// Package correct implements the correcting memory allocator (paper §6.3,
// Figure 6).
//
// The correcting allocator wraps DieFast and applies runtime patches:
//
//   - on every malloc it advances the allocation clock, executes any
//     deferred frees that have come due, and pads the request if the
//     allocation site has a pad-table entry;
//   - on every free it consults the deferral table for the (allocation
//     site, deallocation site) pair and either frees immediately or
//     pushes the pointer on a deferral priority queue.
//
// Patches can be reloaded at any time (the paper's on-the-fly reload
// signal for running replicas), and the pad/deferral tables rebuild
// without interrupting execution.
package correct

import (
	"exterminator/internal/alloc"
	"exterminator/internal/diefast"
	"exterminator/internal/mem"
	"exterminator/internal/patch"
	"exterminator/internal/site"
)

// deferred is one queued deallocation.
type deferred struct {
	ptr mem.Addr
	due uint64 // allocation clock at which to really free
	seq int    // FIFO tie-break for equal due times
}

// before orders deferrals by due time, then FIFO.
func (d deferred) before(e deferred) bool {
	if d.due != e.due {
		return d.due < e.due
	}
	return d.seq < e.seq
}

// deferralQueue is a binary min-heap on (due, seq). It is typed rather
// than built on container/heap so that pushes and pops do not box each
// entry in an interface, which would cost an allocation per deferral.
type deferralQueue []deferred

func (q *deferralQueue) push(d deferred) {
	*q = append(*q, d)
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// pop removes and returns the earliest entry; the queue must be non-empty.
func (q *deferralQueue) pop() deferred {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			c = r
		}
		if !h[c].before(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return top
}

// Allocator is the correcting allocator.
type Allocator struct {
	heap    *diefast.Heap
	patches *patch.Set
	queue   deferralQueue
	seq     int

	// frontPads maps the pointer handed to the program to its leading
	// pad: with a front pad the program sees slotBase+frontPad, and the
	// allocator must translate back on free (the §2.1 backward-overflow
	// extension).
	frontPads map[mem.Addr]int

	// accounting for §7.3 (patch overhead)
	padBytesLive  int
	padBytesPeak  int
	deferredBytes uint64 // Σ size × deferral length ("drag", §6.2)
	deferredCount uint64
	padSizes      map[mem.Addr]int // live pad per object (keyed by slot base)
}

var _ alloc.Allocator = (*Allocator)(nil)

// New wraps a DieFast heap with an (initially empty) patch set.
func New(h *diefast.Heap) *Allocator {
	return &Allocator{
		heap:      h,
		patches:   patch.New(),
		padSizes:  make(map[mem.Addr]int),
		frontPads: make(map[mem.Addr]int),
	}
}

// Heap returns the underlying DieFast heap.
func (a *Allocator) Heap() *diefast.Heap { return a.heap }

// Patches returns the active patch set.
func (a *Allocator) Patches() *patch.Set { return a.patches }

// Reload installs a new patch set, as the paper's reload signal does for
// running replicas. Already-queued deferrals keep their original due
// times; future operations use the new tables.
func (a *Allocator) Reload(p *patch.Set) {
	if p == nil {
		p = patch.New()
	}
	a.patches = p
}

// Clock returns the allocation clock.
func (a *Allocator) Clock() uint64 { return a.heap.Clock() }

// Malloc implements Figure 6's correcting_malloc, extended with leading
// pads: with a front pad f the allocator requests size+f+pad bytes and
// returns base+f, so underflows of up to f bytes stay inside the object's
// own slot.
func (a *Allocator) Malloc(size int, allocSite site.ID) (mem.Addr, error) {
	// The clock ticks inside DieFast's Commit; the deferral queue is
	// drained against the post-allocation clock, so an object deferred
	// "d allocations" survives exactly d further allocations.
	pad := int(a.patches.Pad(allocSite))
	front := int(a.patches.FrontPad(allocSite))
	// Keep the program-visible pointer 8-aligned so word accesses at
	// offset 0 behave as without the patch.
	front = (front + 7) &^ 7
	base, err := a.heap.Malloc(size+front+pad, allocSite)
	if err != nil && (pad > 0 || front > 0) {
		// A padded request can exceed the max size class; fall back to
		// the unpadded size rather than failing the program.
		base, err = a.heap.Malloc(size, allocSite)
		pad, front = 0, 0
	}
	if err != nil {
		return 0, err
	}
	if pad+front > 0 {
		a.padSizes[base] = pad + front
		a.padBytesLive += pad + front
		if a.padBytesLive > a.padBytesPeak {
			a.padBytesPeak = a.padBytesLive
		}
	}
	ptr := base + mem.Addr(front)
	if front > 0 {
		a.frontPads[ptr] = front
	}
	a.drain()
	return ptr, nil
}

// translate maps a program pointer back to its slot base (undoing any
// front pad) and reports the front pad applied.
func (a *Allocator) translate(ptr mem.Addr) (mem.Addr, int) {
	if len(a.frontPads) == 0 {
		return ptr, 0
	}
	if f, ok := a.frontPads[ptr]; ok {
		return ptr - mem.Addr(f), f
	}
	return ptr, 0
}

// Free implements Figure 6's correcting_free: defer if the site pair has a
// deferral entry, otherwise free immediately. Front-padded pointers are
// translated back to their slot base first. The slot is resolved once,
// here, and an immediate free hands it to DieFast's FreeSlot.
func (a *Allocator) Free(ptr mem.Addr, freeSite site.ID) alloc.FreeStatus {
	base, front := a.translate(ptr)
	mh, slot, ok := a.heap.Diehard().Lookup(base)
	if !ok {
		return a.heap.Free(base, freeSite) // counted invalid by diehard
	}
	if front > 0 {
		delete(a.frontPads, ptr)
	}
	m := mh.Meta(slot)
	pair := site.Pair{Alloc: m.AllocSite, Free: freeSite}
	d := a.patches.Deferral(pair)
	if d == 0 {
		a.unaccountPad(base)
		return a.heap.FreeSlot(mh, slot, freeSite)
	}
	// Record the logical free site now, so a heap image taken while the
	// object sits in the queue still shows where the program freed it.
	m.FreeSite = freeSite
	a.seq++
	a.queue.push(deferred{ptr: base, due: a.heap.Clock() + d, seq: a.seq})
	a.deferredCount++
	a.deferredBytes += uint64(m.ReqSize) * d
	return alloc.FreeDeferred
}

// drain really-frees deferred objects that have come due (Figure 6's loop
// at the top of correcting_malloc).
func (a *Allocator) drain() {
	now := a.heap.Clock()
	for len(a.queue) > 0 && a.queue[0].due <= now {
		d := a.queue.pop()
		a.unaccountPad(d.ptr)
		a.heap.Free(d.ptr, 0)
	}
}

// Flush immediately frees everything in the deferral queue (used at
// program end so heap accounting balances).
func (a *Allocator) Flush() {
	for len(a.queue) > 0 {
		d := a.queue.pop()
		a.unaccountPad(d.ptr)
		a.heap.Free(d.ptr, 0)
	}
}

// PendingDeferrals returns the number of queued deallocations.
func (a *Allocator) PendingDeferrals() int { return len(a.queue) }

func (a *Allocator) unaccountPad(ptr mem.Addr) {
	if len(a.padSizes) == 0 {
		return
	}
	if pad, ok := a.padSizes[ptr]; ok {
		a.padBytesLive -= pad
		delete(a.padSizes, ptr)
	}
}

// Overhead reports the space cost of active patches for §7.3:
// peak live pad bytes, and total drag (object bytes × allocations
// deferred).
func (a *Allocator) Overhead() (padPeakBytes int, dragBytes uint64, deferredObjects uint64) {
	return a.padBytesPeak, a.deferredBytes, a.deferredCount
}

// Package diehard implements the adaptive DieHard allocator that
// Exterminator builds on (paper §3.1, Figure 2; Berger & Zorn, PLDI 2006
// and TR UMCS-2007-17).
//
// The heap is sized M times larger than the maximum the application
// needs: each size class maintains the invariant inUse ≤ capacity/M, and
// when an allocation would violate it, a new miniheap twice as large as
// the previous largest is mapped at a random address. Allocation probes
// uniformly among all slots of the class until it hits a free one —
// O(1) expected time under the occupancy invariant — which makes every
// heap layout independent of every other, the property all of
// Exterminator's probabilistic isolation rests on.
//
// Double frees are benign (a bitmap bit resets once) and invalid frees are
// detected by range checks and ignored (paper §2).
package diehard

import (
	"fmt"

	"exterminator/internal/alloc"
	"exterminator/internal/heap"
	"exterminator/internal/mem"
	"exterminator/internal/site"
	"exterminator/internal/xrand"
)

// Config parameterizes the heap.
type Config struct {
	// M is the heap multiplier: each size class is kept at most 1/M full.
	// The paper fixes M=2 for all experiments (§7.1).
	M float64
	// MinSlots is the slot count of the first miniheap of each class.
	MinSlots int
	// LogAllocs records an AllocRecord per allocation, needed by
	// cumulative-mode isolation (paper §5.1).
	LogAllocs bool
}

// DefaultConfig mirrors the paper's experimental setup.
func DefaultConfig() Config { return Config{M: 2, MinSlots: 32} }

func (c *Config) fill() {
	if c.M < 1.0+1e-9 {
		c.M = 2
	}
	if c.MinSlots <= 0 {
		c.MinSlots = 32
	}
}

// AllocRecord is one entry of the cumulative-mode allocation log: enough
// to recompute P(C_i) for any later-discovered corruption (paper §5.1).
type AllocRecord struct {
	ID    heap.ObjectID
	Site  site.ID
	Class int
	Time  uint64 // allocation clock (== ID)
	Mini  int    // miniheap index within the whole heap
	Slot  int
	Size  int
}

type sizeClass struct {
	class    int
	slotSize int
	minis    []*heap.Miniheap
	capacity int // total slots across minis
	inUse    int // allocated slots (including bad-isolated ones)
}

// Heap is a DieHard heap over a simulated address space.
type Heap struct {
	cfg     Config
	space   *mem.Space
	rng     *xrand.RNG
	classes [alloc.NumClasses]*sizeClass
	minis   []*heap.Miniheap // all miniheaps, creation order
	clock   uint64           // number of allocations to date
	stats   alloc.Stats
	log     []AllocRecord
}

var _ alloc.Allocator = (*Heap)(nil)

// New creates a heap. Both the miniheap placement and the slot choices
// draw from rng, so two heaps with different rng seeds are independently
// randomized (the replica property, §3.1).
func New(cfg Config, space *mem.Space, rng *xrand.RNG) *Heap {
	cfg.fill()
	return &Heap{cfg: cfg, space: space, rng: rng}
}

// Space returns the underlying simulated address space.
func (h *Heap) Space() *mem.Space { return h.space }

// Clock returns the allocation clock (allocations to date).
func (h *Heap) Clock() uint64 { return h.clock }

// M returns the configured heap multiplier.
func (h *Heap) M() float64 { return h.cfg.M }

// Stats returns a copy of the accumulated statistics.
func (h *Heap) Stats() alloc.Stats { return h.stats }

// Log returns the allocation log (nil unless Config.LogAllocs).
func (h *Heap) Log() []AllocRecord { return h.log }

// Miniheaps returns all miniheaps in creation order. The slice must not
// be modified.
func (h *Heap) Miniheaps() []*heap.Miniheap { return h.minis }

// AllocSlot reserves a uniformly random free slot in the given size class,
// growing the class if the occupancy invariant requires it. It does not
// stamp metadata — callers follow up with Commit (on success) or MarkBad
// (bad-object isolation). This split lets DieFast examine a slot's canary
// before an object id is consumed, keeping ids aligned across replicas.
func (h *Heap) AllocSlot(class int) (*heap.Miniheap, int) {
	sc := h.ensureClass(class)
	// Grow until (inUse+1) * M <= capacity.
	for float64(sc.inUse+1)*h.cfg.M > float64(sc.capacity) {
		h.grow(sc)
	}
	// Uniform probe over all slots of the class; redraw on collision.
	// Expected draws ≤ M/(M-1) under the invariant.
	for {
		r := h.rng.Intn(sc.capacity)
		for _, mh := range sc.minis {
			if r < mh.Slots {
				if mh.Take(r) {
					sc.inUse++
					return mh, r
				}
				break // occupied: redraw globally to stay uniform
			}
			r -= mh.Slots
		}
	}
}

// Commit stamps slot metadata for a new object of the requested size and
// returns its address. It advances the allocation clock and assigns the
// next object id.
func (h *Heap) Commit(mh *heap.Miniheap, slot, size int, allocSite site.ID) mem.Addr {
	h.clock++
	m := mh.Meta(slot)
	*m = heap.Meta{
		ID:        heap.ObjectID(h.clock),
		AllocSite: allocSite,
		AllocTime: h.clock,
		ReqSize:   uint32(size),
	}
	h.stats.NoteMalloc(size)
	if h.cfg.LogAllocs {
		h.log = append(h.log, AllocRecord{
			ID: m.ID, Site: allocSite, Class: mh.Class,
			Time: h.clock, Mini: mh.Index, Slot: slot, Size: size,
		})
	}
	return mh.SlotAddr(slot)
}

// MarkBad performs bad-object isolation (paper §3.3): the slot stays
// allocated so its corrupted contents are preserved for the error
// isolator, and it is never handed out again.
func (h *Heap) MarkBad(mh *heap.Miniheap, slot int) {
	mh.Meta(slot).Bad = true
	// The slot remains counted in inUse: it consumes capacity like a live
	// object, so the occupancy invariant still bounds probe time.
}

// Isolate bad-isolates a slot that may currently be free (e.g. a corrupted
// freed neighbour found during a free-time check): the slot is re-taken if
// necessary and marked bad, preserving its contents.
func (h *Heap) Isolate(mh *heap.Miniheap, slot int) {
	if mh.Take(slot) {
		h.classes[mh.Class].inUse++
	}
	h.MarkBad(mh, slot)
}

// Malloc allocates size bytes (plain DieHard: no canary checks).
func (h *Heap) Malloc(size int, allocSite site.ID) (mem.Addr, error) {
	class := alloc.ClassForSize(size)
	if class < 0 {
		return 0, fmt.Errorf("diehard: unsatisfiable request of %d bytes", size)
	}
	mh, slot := h.AllocSlot(class)
	return h.Commit(mh, slot, size, allocSite), nil
}

// Lookup resolves a pointer to its miniheap and slot. ok is false for
// addresses outside the heap or not at a slot boundary.
func (h *Heap) Lookup(ptr mem.Addr) (*heap.Miniheap, int, bool) {
	r := h.space.Find(ptr)
	if r == nil {
		return nil, 0, false
	}
	mh, ok := r.Tag.(*heap.Miniheap)
	if !ok {
		return nil, 0, false
	}
	slot, ok := mh.AddrSlot(ptr)
	if !ok || mh.SlotAddr(slot) != ptr {
		return nil, 0, false
	}
	return mh, slot, true
}

// Free releases ptr. Invalid and double frees are detected and ignored
// (paper §2, Table 1).
func (h *Heap) Free(ptr mem.Addr, freeSite site.ID) alloc.FreeStatus {
	mh, slot, ok := h.Lookup(ptr)
	if !ok {
		h.stats.NoteFree(alloc.FreeInvalid, 0)
		return alloc.FreeInvalid
	}
	return h.FreeSlot(mh, slot, freeSite)
}

// FreeSlot is Free for a pointer the caller has already resolved with
// Lookup, so a layered free resolves its pointer once.
func (h *Heap) FreeSlot(mh *heap.Miniheap, slot int, freeSite site.ID) alloc.FreeStatus {
	m := mh.Meta(slot)
	if m.Bad {
		// A bad-isolated slot is not program-owned; treat as invalid.
		h.stats.NoteFree(alloc.FreeInvalid, 0)
		return alloc.FreeInvalid
	}
	if !mh.Release(slot) {
		h.stats.NoteFree(alloc.FreeDouble, 0)
		return alloc.FreeDouble
	}
	h.classes[mh.Class].inUse--
	m.FreeSite = freeSite
	m.FreeTime = h.clock
	h.stats.NoteFree(alloc.FreeOK, int(m.ReqSize))
	return alloc.FreeOK
}

// ClassInfo reports (capacity, inUse) for a size class, for tests and
// statistics.
func (h *Heap) ClassInfo(class int) (capacity, inUse int) {
	if h.classes[class] == nil {
		return 0, 0
	}
	return h.classes[class].capacity, h.classes[class].inUse
}

// CheckInvariants verifies the occupancy invariant and bitmap consistency;
// property tests call it after random operation sequences.
func (h *Heap) CheckInvariants() error {
	for _, sc := range h.classes {
		if sc == nil {
			continue
		}
		used := 0
		for _, mh := range sc.minis {
			used += mh.Used()
		}
		if used != sc.inUse {
			return fmt.Errorf("class %d: counted %d in use, tracked %d", sc.class, used, sc.inUse)
		}
		if float64(sc.inUse)*h.cfg.M > float64(sc.capacity)+1e-9 {
			return fmt.Errorf("class %d: occupancy invariant violated: %d in use, capacity %d, M=%v",
				sc.class, sc.inUse, sc.capacity, h.cfg.M)
		}
	}
	return nil
}

func (h *Heap) ensureClass(class int) *sizeClass {
	if h.classes[class] == nil {
		h.classes[class] = &sizeClass{class: class, slotSize: alloc.ClassSlotSize(class)}
	}
	return h.classes[class]
}

// grow maps a new miniheap twice as large as the previous largest in the
// class (paper §3.1: "twice as large as the previous largest miniheap").
func (h *Heap) grow(sc *sizeClass) {
	slots := h.cfg.MinSlots
	if n := len(sc.minis); n > 0 {
		largest := 0
		for _, mh := range sc.minis {
			if mh.Slots > largest {
				largest = mh.Slots
			}
		}
		slots = largest * 2
	}
	mh := heap.NewMiniheap(h.space, len(h.minis), sc.class, sc.slotSize, slots, h.clock)
	h.minis = append(h.minis, mh)
	sc.minis = append(sc.minis, mh)
	sc.capacity += slots
}

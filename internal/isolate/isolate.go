// Package isolate implements Exterminator's iterative/replicated-mode
// probabilistic error isolation (paper §4).
//
// Input: k heap images of the same logical execution (same inputs, same
// allocation sequence, hence aligned object ids) over independently
// randomized heaps. Output: classified findings —
//
//   - buffer overflows: a culprit allocation site and the pad needed to
//     contain the overflow (§4.1, corrected by §6.1 pad patches);
//   - dangling-pointer overwrites: the victim's allocation/deallocation
//     site pair and a deallocation deferral (§4.2, corrected by §6.2).
//
// Classification follows the paper's probabilistic reasoning:
//
//   - A freed, canaried object overwritten with *identical* values in
//     every image is a dangling overwrite: Theorem 1 bounds the chance a
//     buffer overflow hits the same object identically in k heaps by
//     (1/2^k)(1/(H−S)^k).
//   - Otherwise, corrupted canaries are overflow evidence. A culprit is
//     an object that precedes corruption at the *same* byte distance δ in
//     every image (overflows are deterministic relative to the culprit's
//     base). Theorem 3: one extra image reduces the expected number of
//     accidental same-δ objects to 1/(H−1)^(k−2), so k=3 images suffice
//     in practice (§7.2 observes exactly 3).
//   - Live objects are diffed word-by-word across images; words that are
//     pointer-equivalent (same target object id and offset) or that
//     legitimately differ everywhere (pids, addresses) are filtered
//     before a discrepancy is declared (§4.1).
//
// Culprit-victim pairs are scored 1 − (1/256)^S where S is the total
// length of detected overflow strings; the patch is generated from the
// most highly ranked culprit.
package isolate

import (
	"errors"
	"fmt"
	"sort"

	"exterminator/internal/canary"
	"exterminator/internal/heap"
	"exterminator/internal/image"
	"exterminator/internal/mem"
	"exterminator/internal/patch"
	"exterminator/internal/site"
)

// OverflowFinding is a confirmed culprit-victim pairing.
type OverflowFinding struct {
	CulpritID heap.ObjectID
	AllocSite site.ID
	// Backward marks an underflow: corruption *precedes* the culprit, and
	// the patch is a leading pad (the §2.1 extension).
	Backward bool
	Delta    int     // |culprit start → first confirmed corrupted byte|
	Extent   int     // culprit start → end of corruption (forward only)
	Pad      uint32  // trailing pad (forward) or leading pad (backward)
	Score    float64 // 1 − (1/256)^S
	Evidence int     // S: total detected overflow-string bytes
	Obs      int     // number of images supporting the pair
	Victims  []heap.ObjectID
}

// DanglingFinding is a dangling-pointer overwrite.
type DanglingFinding struct {
	VictimID  heap.ObjectID
	Pair      site.Pair
	FreeTime  uint64 // τ: when the object was (prematurely) freed
	LastAlloc uint64 // T: allocation clock at failure
	Deferral  uint64 // 2(T−τ)+1 (§6.2)
}

// Report is the result of analyzing a set of heap images.
type Report struct {
	Overflows []OverflowFinding // sorted by descending score
	Danglings []DanglingFinding
	// LiveVictims lists live objects with unexplained cross-image
	// discrepancies (diagnostic; culprit confirmation is canary-based).
	LiveVictims []heap.ObjectID
}

// Patches converts the report into runtime patches: the most highly
// ranked overflow culprit's pad (§4.1) and a deferral for every dangling
// finding.
func (r *Report) Patches() *patch.Set {
	ps := patch.New()
	// Most highly ranked forward and backward culprits each yield one
	// patch (the paper patches only the top-ranked culprit).
	forwardDone, backwardDone := false, false
	for _, f := range r.Overflows {
		if f.Score <= 0 {
			continue
		}
		if f.Backward && !backwardDone {
			ps.AddFrontPad(f.AllocSite, f.Pad)
			backwardDone = true
		}
		if !f.Backward && !forwardDone {
			ps.AddPad(f.AllocSite, f.Pad)
			forwardDone = true
		}
		if forwardDone && backwardDone {
			break
		}
	}
	for _, d := range r.Danglings {
		ps.AddDeferral(d.Pair, d.Deferral)
	}
	return ps
}

// Empty reports whether no errors were isolated.
func (r *Report) Empty() bool {
	return len(r.Overflows) == 0 && len(r.Danglings) == 0
}

// corruption is one corrupted-canary range, in absolute addresses.
type corruption struct {
	obj   *image.Object
	start mem.Addr // first corrupted byte
	bytes []byte
}

// Options tunes the analysis; the zero value is the paper's algorithm.
type Options struct {
	// NoPointerFilter disables the §4.1 pointer-equivalence filter for
	// live-object words (ablation: how many false live victims appear).
	NoPointerFilter bool
	// NoDistinctFilter disables the legitimately-different (all pairwise
	// distinct) filter (ablation).
	NoDistinctFilter bool
}

// Analyze runs error isolation over k ≥ 2 images with the paper's
// algorithm.
func Analyze(images []*image.Image) (*Report, error) {
	return AnalyzeWithOptions(images, Options{})
}

// AnalyzeWithOptions runs error isolation with explicit options.
func AnalyzeWithOptions(images []*image.Image, opts Options) (*Report, error) {
	if len(images) < 2 {
		return nil, errors.New("isolate: need at least 2 heap images")
	}
	k := len(images)
	rep := &Report{}
	idx := newIndexes(images)

	// Phase 1: canary evidence per image.
	evidence := make([][]corruption, k)
	for h, img := range images {
		evidence[h] = canaryCorruptions(img)
	}

	// Phase 2: dangling overwrites — identical corruption of the same
	// freed object across every image where it is observable.
	danglingVictims := make(map[heap.ObjectID]bool)
	for h := range evidence {
		for _, c := range evidence[h] {
			id := c.obj.ID
			if id == 0 || danglingVictims[id] {
				continue
			}
			if identicalAcrossImages(images, id) {
				o := c.obj
				T := images[0].Clock
				rep.Danglings = append(rep.Danglings, DanglingFinding{
					VictimID:  id,
					Pair:      site.Pair{Alloc: o.AllocSite, Free: o.FreeSite},
					FreeTime:  o.FreeTime,
					LastAlloc: T,
					Deferral:  2*(T-o.FreeTime) + 1,
				})
				danglingVictims[id] = true
			}
		}
	}
	sort.Slice(rep.Danglings, func(i, j int) bool {
		return rep.Danglings[i].VictimID < rep.Danglings[j].VictimID
	})

	// Phase 3: overflow culprit identification. Anchor on each image's
	// corruption events; confirm candidates at constant δ in all others.
	type pairKey struct {
		culprit  heap.ObjectID
		delta    int
		backward bool
	}
	found := make(map[pairKey]*OverflowFinding)
	for anchor := 0; anchor < k; anchor++ {
		img := images[anchor]
		for _, ev := range evidence[anchor] {
			if danglingVictims[ev.obj.ID] {
				continue
			}
			mini := img.Mini(ev.obj.Mini)
			if mini == nil {
				continue
			}
			for _, cand := range idx[anchor].byMini[ev.obj.Mini] {
				if cand.ID == ev.obj.ID {
					continue
				}
				if cand.Addr < ev.start {
					// Forward overflow: candidate precedes the corruption
					// with δ past its end.
					delta := int(ev.start - cand.Addr)
					if delta < cand.ReqSize {
						continue // corruption inside the candidate itself
					}
					key := pairKey{cand.ID, delta, false}
					if _, ok := found[key]; ok {
						continue
					}
					if f := confirmCulprit(images, idx, cand.ID, delta, ev.bytes); f != nil {
						f.Victims = append(f.Victims, ev.obj.ID)
						found[key] = f
					}
					continue
				}
				// Backward overflow (underflow): candidate sits after the
				// corruption, which must end at or before its start.
				// Underflows reach a bounded distance below a buffer
				// (negative indices, header back-offsets); candidates
				// further away are overwhelmingly coincidences.
				const maxBackwardReach = 1024
				deltaBack := int(cand.Addr - ev.start)
				if deltaBack > maxBackwardReach {
					continue
				}
				if int(cand.Addr)-int(ev.start) < len(ev.bytes) {
					continue // corruption runs into the candidate: not an underflow shape
				}
				key := pairKey{cand.ID, deltaBack, true}
				if _, ok := found[key]; ok {
					continue
				}
				if f := confirmBackwardCulprit(images, idx, cand.ID, deltaBack, ev.bytes); f != nil {
					f.Victims = append(f.Victims, ev.obj.ID)
					found[key] = f
				}
			}
		}
	}
	for _, f := range found {
		rep.Overflows = append(rep.Overflows, *f)
	}
	sort.Slice(rep.Overflows, func(i, j int) bool {
		a, b := rep.Overflows[i], rep.Overflows[j]
		// Accidental same-δ candidates share the true culprit's
		// corruption events in a couple of images; the real culprit is
		// supported wherever the overflow was observable, so support
		// count dominates the ranking, then evidence length (§4.1's
		// similarity ranking).
		if a.Obs != b.Obs {
			return a.Obs > b.Obs
		}
		if a.Evidence != b.Evidence {
			return a.Evidence > b.Evidence
		}
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		// Forward overflows start at the culprit's end: among otherwise
		// equal candidates, the one nearest its corruption is the
		// likeliest source.
		if a.Delta != b.Delta {
			return a.Delta < b.Delta
		}
		return a.CulpritID < b.CulpritID // deterministic order
	})

	// Phase 4: live-object discrepancies (diagnostic victims).
	rep.LiveVictims = liveVictims(images, idx, opts)
	return rep, nil
}

// indexes caches per-image lookup structures.
type index struct {
	img    *image.Image
	byMini map[int][]*image.Object // objects per miniheap, any state
	bySlot map[[2]int]*image.Object
}

func newIndexes(images []*image.Image) []*index {
	out := make([]*index, len(images))
	for h, img := range images {
		ix := &index{
			img:    img,
			byMini: make(map[int][]*image.Object),
			bySlot: make(map[[2]int]*image.Object),
		}
		for i := range img.Objects {
			o := &img.Objects[i]
			ix.byMini[o.Mini] = append(ix.byMini[o.Mini], o)
			ix.bySlot[[2]int{o.Mini, o.Slot}] = o
		}
		out[h] = ix
	}
	return out
}

// canaryCorruptions extracts corrupted canary ranges from freed-canaried
// and bad-isolated objects.
func canaryCorruptions(img *image.Image) []corruption {
	var out []corruption
	for i := range img.Objects {
		o := &img.Objects[i]
		if o.Live || !o.Canaried {
			continue
		}
		for _, r := range img.Canary.CorruptRanges(o.Data) {
			out = append(out, corruption{
				obj:   o,
				start: o.Addr + mem.Addr(r.Start),
				bytes: r.Bytes,
			})
		}
	}
	return out
}

// identicalAcrossImages reports whether object id is freed+canaried and
// "overwritten with identical values across multiple heap images" (§4.2).
//
// The comparison is value-based rather than range-based: a byte of the
// overwritten value can coincide with one image's canary pattern (each
// image has its own random canary), hiding that byte there. The rule is:
// at every offset where two images both detect corruption, the observed
// bytes must agree; the jointly-corrupt offsets must cover most of each
// image's corruption; and at least two images must observe corruption.
func identicalAcrossImages(images []*image.Image, id heap.ObjectID) bool {
	type obs struct {
		mask []bool
		data []byte
	}
	var seen []obs
	for _, img := range images {
		o := img.Object(id)
		if o == nil || o.Live || !o.Canaried {
			continue
		}
		rs := img.Canary.CorruptRanges(o.Data)
		if len(rs) == 0 {
			// Intact here but corrupted elsewhere: the overwrite is not a
			// deterministic dangling write to this object.
			return false
		}
		mask := make([]bool, len(o.Data))
		for _, r := range rs {
			for j := r.Start; j < r.End; j++ {
				mask[j] = true
			}
		}
		seen = append(seen, obs{mask: mask, data: o.Data})
	}
	if len(seen) < 2 {
		return false
	}
	for i := 0; i < len(seen); i++ {
		for j := i + 1; j < len(seen); j++ {
			a, b := seen[i], seen[j]
			n := len(a.mask)
			if len(b.mask) < n {
				n = len(b.mask)
			}
			both, union := 0, 0
			for p := 0; p < n; p++ {
				switch {
				case a.mask[p] && b.mask[p]:
					if a.data[p] != b.data[p] {
						return false // different values: not a dangling overwrite
					}
					both++
					union++
				case a.mask[p] || b.mask[p]:
					union++
				}
			}
			if both == 0 || both*2 < union {
				return false // corruption in different places: overflow victims
			}
		}
	}
	return true
}

// confirmCulprit checks a (culprit id, δ) hypothesis across images.
//
// For each image, the address culprit+δ is examined: if it falls in a
// freed, canaried slot whose canary is broken exactly there with an
// overflow string sharing bytes with the anchor's, that image supports
// the pair (§4.1: "if that object is free and should be filled with
// canaries but they are not intact, it adds this culprit-victim pair").
// All other states are unobservable — including an *intact* canary, which
// may simply postdate the overflow (the slot was freed and re-filled
// after the corrupting write). At least two images must support the pair;
// by Theorem 3 that already reduces the expected number of accidental
// same-δ candidates to ~1/(H−1), and ranking by evidence length S puts
// the true culprit first.
func confirmCulprit(images []*image.Image, idx []*index, culprit heap.ObjectID, delta int, anchorBytes []byte) *OverflowFinding {
	var (
		extent = 0
		totalS = 0
		obsns  = 0
		cref   *image.Object
	)
	for h, img := range images {
		c := img.Object(culprit)
		if c == nil {
			continue // culprit slot recycled in this image: unobservable
		}
		cref = c
		target := c.Addr + mem.Addr(delta)
		mini := img.Mini(c.Mini)
		if mini == nil || target >= mini.Base+mem.Addr(mini.SlotSize*mini.Slots) {
			continue // δ walks off the miniheap in this layout
		}
		slot := int(target-mini.Base) / mini.SlotSize
		v := idx[h].bySlot[[2]int{c.Mini, slot}]
		if v == nil || v.Live || !v.Canaried {
			continue // no canary at c+δ in this image: unobservable
		}
		off := int(target - v.Addr)
		r, ok := corruptRunAt(img.Canary, v.Data, off)
		if !ok {
			continue // canary intact: may postdate the overflow — unobservable
		}
		run := r.Bytes
		// Shared-bytes requirement (§4.1): compare against the anchor's
		// observed overflow string.
		n := len(run)
		if n > len(anchorBytes) {
			n = len(anchorBytes)
		}
		match := 0
		for j := 0; j < n; j++ {
			if run[j] == anchorBytes[j] {
				match++
			}
		}
		if match == 0 {
			continue // corruption present but unrelated values
		}
		obsns++
		if e := delta + len(run); e > extent {
			extent = e
		}
		totalS += len(run)
	}
	if cref == nil || obsns < 2 {
		return nil
	}
	pad := extent - cref.ReqSize
	if pad <= 0 {
		return nil
	}
	score := 1.0
	p := 1.0
	for i := 0; i < totalS && i < 64; i++ {
		p /= 256.0
	}
	score = 1.0 - p
	return &OverflowFinding{
		CulpritID: culprit,
		AllocSite: cref.AllocSite,
		Delta:     delta,
		Extent:    extent,
		Pad:       uint32(pad),
		Score:     score,
		Evidence:  totalS,
		Obs:       obsns,
	}
}

// confirmBackwardCulprit mirrors confirmCulprit for underflows: the
// corruption must appear at the constant distance deltaBack *before* the
// candidate's start in at least two images, and the leading pad is the
// largest observed reach below the object.
func confirmBackwardCulprit(images []*image.Image, idx []*index, culprit heap.ObjectID, deltaBack int, anchorBytes []byte) *OverflowFinding {
	var (
		reach  = 0 // bytes below the culprit's start covered by corruption
		totalS = 0
		obsns  = 0
		cref   *image.Object
	)
	for h, img := range images {
		c := img.Object(culprit)
		if c == nil {
			continue
		}
		cref = c
		if mem.Addr(deltaBack) > c.Addr {
			continue
		}
		target := c.Addr - mem.Addr(deltaBack)
		mini := img.Mini(c.Mini)
		if mini == nil || target < mini.Base {
			continue // δ walks off the miniheap in this layout
		}
		slot := int(target-mini.Base) / mini.SlotSize
		v := idx[h].bySlot[[2]int{c.Mini, slot}]
		if v == nil || v.Live || !v.Canaried {
			continue
		}
		off := int(target - v.Addr)
		r, ok := corruptRunAt(img.Canary, v.Data, off)
		if !ok {
			continue
		}
		run := r.Bytes
		n := len(run)
		if n > len(anchorBytes) {
			n = len(anchorBytes)
		}
		match := 0
		for j := 0; j < n; j++ {
			if run[j] == anchorBytes[j] {
				match++
			}
		}
		if match == 0 {
			continue
		}
		obsns++
		// The run containing target may start even earlier; the front pad
		// must cover from the earliest corrupted byte to the object start.
		if e := deltaBack + (off - r.Start); e > reach {
			reach = e
		}
		totalS += len(run)
	}
	if cref == nil || obsns < 2 || reach <= 0 {
		return nil
	}
	p := 1.0
	for i := 0; i < totalS && i < 64; i++ {
		p /= 256.0
	}
	return &OverflowFinding{
		CulpritID: culprit,
		AllocSite: cref.AllocSite,
		Backward:  true,
		Delta:     deltaBack,
		Pad:       uint32(reach),
		Score:     1.0 - p,
		Evidence:  totalS,
		Obs:       obsns,
	}
}

// corruptRunAt returns the maximal corrupted range of a canary-filled
// buffer that contains offset off, or ok=false if the byte at off is
// intact.
func corruptRunAt(c canary.Canary, data []byte, off int) (canary.Range, bool) {
	for _, r := range c.CorruptRanges(data) {
		if r.Start <= off && off < r.End {
			return r, true
		}
	}
	return canary.Range{}, false
}

// liveVictims diffs live objects across images word-by-word with the
// §4.1 filters: pointer-equivalent words and legitimately-different words
// are not discrepancies.
func liveVictims(images []*image.Image, idx []*index, opts Options) []heap.ObjectID {
	k := len(images)
	var victims []heap.ObjectID
	ref := images[0]
	for i := range ref.Objects {
		o := &ref.Objects[i]
		if !o.Live {
			continue
		}
		objs := make([]*image.Object, k)
		objs[0] = o
		inAll := true
		for h := 1; h < k; h++ {
			oh := images[h].Object(o.ID)
			if oh == nil || !oh.Live {
				inAll = false
				break
			}
			objs[h] = oh
		}
		if !inAll {
			continue
		}
		if hasDiscrepancy(images, objs, opts) {
			victims = append(victims, o.ID)
		}
	}
	return victims
}

func hasDiscrepancy(images []*image.Image, objs []*image.Object, opts Options) bool {
	k := len(objs)
	n := objs[0].ReqSize &^ 7
	for w := 0; w+8 <= n; w += 8 {
		vals := make([]uint64, k)
		for h, o := range objs {
			vals[h] = le64(o.Data[w:])
		}
		if allEqual(vals) {
			continue
		}
		if !opts.NoPointerFilter && pointerEquivalent(images, vals, objs, w) {
			continue
		}
		if !opts.NoDistinctFilter && k >= 3 && allDistinct(vals) {
			continue // legitimately different (pids, handles, addresses)
		}
		return true
	}
	return false
}

func allEqual(vals []uint64) bool {
	for _, v := range vals[1:] {
		if v != vals[0] {
			return false
		}
	}
	return true
}

func allDistinct(vals []uint64) bool {
	seen := make(map[uint64]bool, len(vals))
	for _, v := range vals {
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// pointerEquivalent reports whether every value, interpreted as a pointer
// in its own image, refers to the same logical object at the same offset.
func pointerEquivalent(images []*image.Image, vals []uint64, objs []*image.Object, w int) bool {
	var id heap.ObjectID
	var off mem.Addr
	for h, v := range vals {
		t := images[h].ObjectAt(mem.Addr(v))
		if t == nil {
			return false
		}
		o := mem.Addr(v) - t.Addr
		if h == 0 {
			id, off = t.ID, o
			continue
		}
		if t.ID != id || o != off {
			return false
		}
	}
	_ = objs
	_ = w
	return true
}

func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// String summarizes a report.
func (r *Report) String() string {
	return fmt.Sprintf("report: %d overflow candidate(s), %d dangling finding(s), %d live victim(s)",
		len(r.Overflows), len(r.Danglings), len(r.LiveVictims))
}

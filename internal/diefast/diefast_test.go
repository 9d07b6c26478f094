package diefast

import (
	"testing"

	"exterminator/internal/alloc"
	"exterminator/internal/mem"
	"exterminator/internal/xrand"
)

func newHeap(seed uint64) *Heap {
	return New(DefaultConfig(), xrand.New(seed))
}

func TestZeroFillOnMalloc(t *testing.T) {
	h := newHeap(1)
	p, err := h.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Free (fills with canary), then re-allocating the same slot later
	// must hand back zeroed memory.
	h.Free(p, 0)
	for i := 0; i < 200; i++ {
		q, _ := h.Malloc(64, 0)
		buf := make([]byte, 64)
		if f := h.Space().Read(q, buf); f != nil {
			t.Fatal(f)
		}
		for j, b := range buf {
			if b != 0 {
				t.Fatalf("allocation not zero-filled at byte %d: %02x", j, b)
			}
		}
	}
}

func TestFreeFillsWithCanary(t *testing.T) {
	h := newHeap(2)
	p, _ := h.Malloc(48, 0)
	h.Free(p, 0)
	mh, slot, ok := h.Diehard().Lookup(p)
	if !ok {
		t.Fatal("lookup failed")
	}
	if !mh.Meta(slot).Canaried {
		t.Fatal("AlwaysFill mode did not canary the slot")
	}
	if !h.Canary().Verify(mh.SlotData(slot)) {
		t.Fatal("freed slot does not hold intact canary")
	}
}

func TestProbabilisticFillRate(t *testing.T) {
	h := New(CumulativeConfig(0.5), xrand.New(3))
	canaried, total := 0, 0
	for i := 0; i < 2000; i++ {
		p, _ := h.Malloc(32, 0)
		h.Free(p, 0)
		mh, slot, _ := h.Diehard().Lookup(p)
		total++
		if mh.Meta(slot).Canaried {
			canaried++
		}
	}
	rate := float64(canaried) / float64(total)
	if rate < 0.42 || rate > 0.58 {
		t.Fatalf("canary fill rate = %.3f, want ~0.5", rate)
	}
}

func TestOverflowDetectedOnAllocOrFree(t *testing.T) {
	// Corrupt a freed, canaried slot directly; DieFast must detect it
	// within a bounded number of subsequent allocations (E(H) bound).
	h := newHeap(4)
	var victim mem.Addr
	for i := 0; i < 20; i++ {
		p, _ := h.Malloc(40, 0)
		if i == 10 {
			victim = p
		}
	}
	h.Free(victim, 0)
	// Simulated overflow into the freed slot.
	h.Space().Write(victim+8, []byte("SMASHED!"))

	seen := false
	h.OnError = func(e Event) { seen = true }
	for i := 0; i < 5000 && !seen; i++ {
		p, _ := h.Malloc(40, 0)
		h.Free(p, 0)
	}
	if !seen {
		t.Fatal("corruption never detected")
	}
	ev := h.Events()[0]
	mh, slot, _ := h.Diehard().Lookup(victim)
	if ev.Mini != mh.Index || ev.Slot != slot {
		t.Fatalf("event %v does not locate victim slot %d/%d", ev, mh.Index, slot)
	}
}

func TestBadObjectIsolationPreservesContents(t *testing.T) {
	h := newHeap(5)
	p, _ := h.Malloc(40, 0)
	h.Free(p, 0)
	h.Space().Write(p, []byte("EVIDENCE"))

	h.OnError = func(Event) {}
	// Churn until the corrupted slot is probed and isolated.
	for i := 0; i < 5000 && len(h.Events()) == 0; i++ {
		q, _ := h.Malloc(40, 0)
		h.Free(q, 0)
	}
	if len(h.Events()) == 0 {
		t.Fatal("corruption not found")
	}
	mh, slot, _ := h.Diehard().Lookup(p)
	if !mh.Meta(slot).Bad {
		t.Fatal("corrupted slot not marked bad")
	}
	buf := make([]byte, 8)
	h.Space().Read(p, buf)
	if string(buf) != "EVIDENCE" {
		t.Fatalf("contents not preserved: %q", buf)
	}
	// And the slot is never returned again.
	for i := 0; i < 2000; i++ {
		q, _ := h.Malloc(40, 0)
		if q == p {
			t.Fatal("bad slot reused")
		}
	}
}

func TestNeighborCheckFindsOverflowOnFree(t *testing.T) {
	// Allocate a cluster, free one slot (canaried), overflow into it from
	// the adjacent object, then free that object: the neighbour check
	// should fire immediately.
	h := newHeap(6)
	ptrs := make([]mem.Addr, 0, 64)
	for i := 0; i < 64; i++ {
		p, _ := h.Malloc(24, 0)
		ptrs = append(ptrs, p)
	}
	// Find two physically adjacent allocations.
	var left, right mem.Addr
	for _, a := range ptrs {
		for _, b := range ptrs {
			if b == a+32 { // slot size for class of 24 bytes is 32
				left, right = a, b
			}
		}
	}
	if left == 0 {
		t.Skip("no physically adjacent pair in this layout")
	}
	h.Free(right, 0)                                                                       // right is now canaried
	h.Space().Write(left+24, []byte{0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE}) // spills into right
	h.Free(left, 0)
	found := false
	for _, e := range h.Events() {
		if e.Kind == CorruptOnFreeNeighbor {
			found = true
		}
	}
	if !found {
		t.Fatalf("neighbour check did not fire; events: %v", h.Events())
	}
}

func TestScanFindsAllCorruptions(t *testing.T) {
	h := newHeap(7)
	var freed []mem.Addr
	for i := 0; i < 50; i++ {
		p, _ := h.Malloc(32, 0)
		freed = append(freed, p)
	}
	for _, p := range freed {
		h.Free(p, 0)
	}
	h.Space().Write(freed[3]+4, []byte("xx"))
	h.Space().Write(freed[17]+0, []byte("yyyy"))
	cs := h.Scan(false)
	if len(cs) != 2 {
		t.Fatalf("scan found %d corruptions, want 2", len(cs))
	}
	for _, c := range cs {
		if len(c.Ranges) == 0 {
			t.Fatal("corruption without ranges")
		}
	}
	if len(h.Events()) != 0 {
		t.Fatal("Scan(false) raised events")
	}
	if got := h.Scan(true); len(got) != 2 || len(h.Events()) != 2 {
		t.Fatal("Scan(true) did not signal")
	}
}

func TestDoubleAndInvalidFreeStillBenign(t *testing.T) {
	h := newHeap(8)
	p, _ := h.Malloc(16, 0)
	h.Free(p, 0)
	if st := h.Free(p, 0); st != alloc.FreeDouble {
		t.Fatalf("double free = %v", st)
	}
	if st := h.Free(0x1234567, 0); st != alloc.FreeInvalid {
		t.Fatalf("invalid free = %v", st)
	}
	if len(h.Events()) != 0 {
		t.Fatal("benign frees raised events")
	}
}

func TestIDsAlignedAcrossReplicasDespiteBadIsolation(t *testing.T) {
	// Replica A suffers corruption (bad-isolated slot); replica B does
	// not. Subsequent object ids must stay aligned.
	a, b := newHeap(100), newHeap(200)
	a.OnError = func(Event) {}
	pa, _ := a.Malloc(32, 0)
	pb, _ := b.Malloc(32, 0)
	a.Free(pa, 0)
	b.Free(pb, 0)
	a.Space().Write(pa, []byte("CORRUPT!"))
	for i := 0; i < 3000; i++ {
		qa, _ := a.Malloc(32, 1)
		qb, _ := b.Malloc(32, 1)
		ma, sa, _ := a.Diehard().Lookup(qa)
		mb, sb, _ := b.Diehard().Lookup(qb)
		if ma.Meta(sa).ID != mb.Meta(sb).ID {
			t.Fatalf("ids diverged at %d: %d vs %d", i, ma.Meta(sa).ID, mb.Meta(sb).ID)
		}
	}
	if len(a.Events()) == 0 {
		t.Fatal("replica A never detected the corruption")
	}
}

func TestCanaryWordLowBitSet(t *testing.T) {
	h := newHeap(9)
	if uint32(h.Canary())&1 == 0 {
		t.Fatal("canary low bit clear")
	}
}

func TestChecksCounted(t *testing.T) {
	h := newHeap(10)
	p, _ := h.Malloc(16, 0)
	h.Free(p, 0)
	before := h.Checks()
	for i := 0; i < 100; i++ {
		q, _ := h.Malloc(16, 0)
		h.Free(q, 0)
	}
	if h.Checks() == before {
		t.Fatal("no canary checks performed during churn")
	}
}

func TestSteadyStateMallocFreeAllocatesNothing(t *testing.T) {
	h := newHeap(11)
	for i := 0; i < 1000; i++ { // grow the class and its miniheaps first
		p, _ := h.Malloc(64, 0)
		h.Free(p, 0)
	}
	if n := testing.AllocsPerRun(1000, func() {
		p, _ := h.Malloc(64, 0)
		h.Free(p, 0)
	}); n != 0 {
		t.Fatalf("steady-state malloc+free: %v allocs/op, want 0", n)
	}
}

func BenchmarkDieFastMallocFree(b *testing.B) {
	h := newHeap(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _ := h.Malloc(64, 0)
		h.Free(p, 0)
	}
}

func BenchmarkDieFastMallocFreeNoFill(b *testing.B) {
	// Ablation: canary fill probability p≈0 isolates the cost of filling
	// and verifying canaries.
	cfg := CumulativeConfig(0.001)
	h := New(cfg, xrand.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _ := h.Malloc(64, 0)
		h.Free(p, 0)
	}
}

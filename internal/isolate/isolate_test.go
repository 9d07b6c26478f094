package isolate

import (
	"testing"

	"exterminator/internal/canary"
	"exterminator/internal/diefast"
	"exterminator/internal/heap"
	"exterminator/internal/image"
	"exterminator/internal/mem"
	"exterminator/internal/site"
	"exterminator/internal/xrand"
)

// replicaRun executes the same logical allocation trace on a freshly
// seeded DieFast heap, applies fault (a deterministic logical bug), and
// returns the heap image — the test stand-in for one replica/iteration.
type replicaRun struct {
	h    *diefast.Heap
	ptrs map[heap.ObjectID]mem.Addr // live pointers by object id
}

func runTrace(seed uint64, nObjs int, objSize int, fault func(r *replicaRun)) *image.Image {
	h := diefast.New(diefast.DefaultConfig(), xrand.New(seed))
	h.OnError = func(diefast.Event) {} // record only
	r := &replicaRun{h: h, ptrs: make(map[heap.ObjectID]mem.Addr)}
	for i := 0; i < nObjs; i++ {
		p, err := h.Malloc(objSize, site.ID(0x1000+uint32(i%7)))
		if err != nil {
			panic(err)
		}
		r.ptrs[heap.ObjectID(i+1)] = p
	}
	// Churn so the heap reaches the paper's steady state, where free
	// space is (almost) entirely previously-freed, canaried slots.
	for i := 0; i < 12*nObjs; i++ {
		p, err := h.Malloc(objSize, site.ID(0x3000))
		if err != nil {
			panic(err)
		}
		h.Free(p, site.ID(0x3001))
	}
	// Free every other initial object so there are victims with known ids.
	for i := 1; i <= nObjs; i += 2 {
		h.Free(r.ptrs[heap.ObjectID(i)], site.ID(0x2000+uint32(i%3)))
	}
	if fault != nil {
		fault(r)
	}
	return image.Capture(h, "test")
}

// overflowFault writes b bytes of pattern past the end of object victim.
func overflowFault(victim heap.ObjectID, size int, b int) func(*replicaRun) {
	return func(r *replicaRun) {
		p := r.ptrs[victim]
		over := make([]byte, b)
		for i := range over {
			over[i] = byte(0xC0 + i)
		}
		// Forward overflow from the object's end; ignore faults (an
		// overflow that walks off a miniheap would segfault — not the
		// scenario under test).
		r.h.Space().Write(p+mem.Addr(size), over)
	}
}

// danglingFault overwrites a freed object's contents at a fixed offset —
// what a program writing through a dangling pointer does.
func danglingFault(victim heap.ObjectID) func(*replicaRun) {
	return func(r *replicaRun) {
		p := r.ptrs[victim]
		r.h.Space().Write(p+4, []byte("stale write via dangling ptr"))
	}
}

func images(k int, nObjs, objSize int, fault func(*replicaRun)) []*image.Image {
	out := make([]*image.Image, k)
	for i := 0; i < k; i++ {
		out[i] = runTrace(uint64(1000+i*7919), nObjs, objSize, fault)
	}
	return out
}

func TestNeedTwoImages(t *testing.T) {
	imgs := images(1, 20, 32, nil)
	if _, err := Analyze(imgs); err == nil {
		t.Fatal("single image accepted")
	}
}

func TestCleanHeapsNoFindings(t *testing.T) {
	rep, err := Analyze(images(3, 60, 32, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Empty() {
		t.Fatalf("clean run produced findings: %s", rep)
	}
	if rep.Patches().Len() != 0 {
		t.Fatal("clean run produced patches")
	}
}

func TestOverflowIsolatedWithThreeImages(t *testing.T) {
	// Paper §7.2: 3 images sufficed for every injected overflow.
	const victim, size, overflowLen = 8, 32, 20
	rep, err := Analyze(images(3, 60, size, overflowFault(victim, size, overflowLen)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Overflows) == 0 {
		t.Fatalf("overflow not found: %s", rep)
	}
	top := rep.Overflows[0]
	if top.CulpritID != victim {
		t.Fatalf("culprit = object %d, want %d (report %s)", top.CulpritID, victim, rep)
	}
	if top.AllocSite != site.ID(0x1000+uint32((victim-1)%7)) {
		t.Fatalf("culprit site = %v", top.AllocSite)
	}
	if top.Pad < overflowLen || top.Pad > overflowLen+16 {
		t.Fatalf("pad = %d, want ≥%d and close", top.Pad, overflowLen)
	}
	if top.Score < 0.99 {
		t.Fatalf("score = %v", top.Score)
	}
	ps := rep.Patches()
	if ps.Pad(top.AllocSite) != top.Pad {
		t.Fatal("patch does not carry the pad")
	}
}

func TestOverflowPadCoversAllSizes(t *testing.T) {
	// The paper's injected sizes: 4, 20, 36 bytes.
	for _, b := range []int{4, 20, 36} {
		rep, err := Analyze(images(3, 60, 64, overflowFault(10, 64, b)))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Overflows) == 0 {
			t.Fatalf("overflow of %d bytes not found", b)
		}
		top := rep.Overflows[0]
		if top.CulpritID != 10 {
			t.Errorf("size %d: culprit %d, want 10", b, top.CulpritID)
		}
		if int(top.Pad) < b {
			t.Errorf("size %d: pad %d does not contain overflow", b, top.Pad)
		}
	}
}

func TestDanglingOverwriteClassified(t *testing.T) {
	const victim = 7 // freed (odd id), canaried in every image
	rep, err := Analyze(images(3, 60, 32, danglingFault(victim)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Danglings) != 1 {
		t.Fatalf("dangling findings = %d, want 1 (%s)", len(rep.Danglings), rep)
	}
	d := rep.Danglings[0]
	if d.VictimID != victim {
		t.Fatalf("victim = %d", d.VictimID)
	}
	if d.Pair.Alloc != site.ID(0x1000+uint32((victim-1)%7)) || d.Pair.Free != site.ID(0x2000+uint32(victim%3)) {
		t.Fatalf("site pair = %v", d.Pair)
	}
	// Deferral = 2(T−τ)+1.
	if d.Deferral != 2*(d.LastAlloc-d.FreeTime)+1 {
		t.Fatalf("deferral = %d, T=%d τ=%d", d.Deferral, d.LastAlloc, d.FreeTime)
	}
	if len(rep.Overflows) != 0 {
		t.Fatalf("dangling overwrite misclassified as overflow: %+v", rep.Overflows)
	}
	ps := rep.Patches()
	if ps.Deferral(d.Pair) != d.Deferral {
		t.Fatal("patch does not carry the deferral")
	}
}

func TestDanglingNotMistakenForOverflowAcrossManyTrials(t *testing.T) {
	// Theorem 1 in practice: identical overwrites are classified dangling,
	// not overflow, across repeated independent image sets.
	misclassified := 0
	for trial := 0; trial < 10; trial++ {
		imgs := make([]*image.Image, 3)
		for i := range imgs {
			imgs[i] = runTrace(uint64(trial*100+i+1)*104729, 60, 32, danglingFault(9))
		}
		rep, err := Analyze(imgs)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Overflows) > 0 {
			misclassified++
		}
	}
	if misclassified > 0 {
		t.Fatalf("%d/10 trials misclassified dangling as overflow", misclassified)
	}
}

func TestNoFalseCulpritWithMoreImages(t *testing.T) {
	// Theorem 3: with k ≥ 3 images the expected number of accidental
	// same-δ culprits is ≤ 1/(H−1). A trial may fail to *find* the culprit
	// (the corruption landed where no canary could witness it — iterative
	// mode then simply takes more images), but it must never finger the
	// wrong object.
	wrongCulprit, notFound := 0, 0
	const trials = 15
	for trial := 0; trial < trials; trial++ {
		imgs := make([]*image.Image, 4)
		for i := range imgs {
			imgs[i] = runTrace(uint64(trial*1000+i+1)*7919, 80, 32, overflowFault(12, 32, 16))
		}
		rep, err := Analyze(imgs)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case len(rep.Overflows) == 0:
			notFound++
		case rep.Overflows[0].CulpritID != 12:
			wrongCulprit++
		}
	}
	if wrongCulprit > 0 {
		t.Fatalf("%d/%d trials picked the wrong culprit", wrongCulprit, trials)
	}
	if notFound > trials/2 {
		t.Fatalf("%d/%d trials found nothing", notFound, trials)
	}
}

func TestPatchesTakeTopRankedCulpritOnly(t *testing.T) {
	rep := &Report{
		Overflows: []OverflowFinding{
			{AllocSite: 0xA, Pad: 20, Score: 0.999},
			{AllocSite: 0xB, Pad: 50, Score: 0.5},
		},
	}
	ps := rep.Patches()
	if ps.Pad(0xA) != 20 || ps.Pad(0xB) != 0 {
		t.Fatalf("patches = %s", ps)
	}
}

func TestCorruptRunAt(t *testing.T) {
	c := canary.Canary(0xA1A2A3A5)
	buf := make([]byte, 32)
	c.Fill(buf)
	copy(buf[8:], []byte{1, 2, 3, 4})
	run, ok := corruptRunAt(c, buf, 9)
	if !ok || run.Len() < 3 {
		t.Fatalf("run = %v, ok = %v", run, ok)
	}
	if _, ok := corruptRunAt(c, buf, 0); ok {
		t.Fatal("intact byte reported corrupt")
	}
	if _, ok := corruptRunAt(c, buf, 99); ok {
		t.Fatal("out of range reported corrupt")
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{}
	if rep.String() == "" {
		t.Fatal("empty string")
	}
}

func BenchmarkAnalyzeThreeImages(b *testing.B) {
	imgs := images(3, 100, 32, overflowFault(8, 32, 20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(imgs); err != nil {
			b.Fatal(err)
		}
	}
}

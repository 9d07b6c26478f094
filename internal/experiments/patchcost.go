package experiments

import (
	"bytes"
	"compress/gzip"
	"fmt"

	"exterminator/internal/correct"
	"exterminator/internal/diefast"
	"exterminator/internal/engine"
	"exterminator/internal/inject"
	"exterminator/internal/mutator"
	"exterminator/internal/patch"
	"exterminator/internal/site"
	"exterminator/internal/workloads"
	"exterminator/internal/xrand"
)

// ---------------------------------------------------------------------
// §7.3, patch overhead
// ---------------------------------------------------------------------

// PatchCostResult reproduces the §7.3 space-overhead measurements:
// pad-bytes peak for overflow corrections, and deferral drag for dangling
// corrections.
type PatchCostResult struct {
	OverflowPadBytes  uint32 // pad value applied
	OverflowPeakBytes int    // pad × max live patched objects (paper: 320–2816 B for 36-B overflows)
	DragBytes         uint64 // object size × deferral length (paper: 32–1024 B)
	DeferredObjects   uint64
	PeakHeapBytes     int // for the <1% context claim
}

// Name implements Result.
func (*PatchCostResult) Name() string { return "patchcost" }

// Rows implements Result.
func (r *PatchCostResult) Rows() []string {
	pct := 0.0
	if r.PeakHeapBytes > 0 {
		pct = 100 * float64(r.DragBytes) / float64(r.PeakHeapBytes)
	}
	return []string{
		row("overflow pad:            %d bytes per allocation", r.OverflowPadBytes),
		row("overflow peak pad bytes: %d (paper: 320–2816 for 36-byte overflows)", r.OverflowPeakBytes),
		row("dangling drag:           %d bytes over %d deferred objects (paper: 32–1024)", r.DragBytes, r.DeferredObjects),
		row("drag vs peak heap:       %.2f%% (paper: <1%%)", pct),
	}
}

// PatchCost corrects one injected 36-byte overflow and one injected
// dangling error, then measures the corrected runs' space overhead.
func PatchCost(seed uint64) *PatchCostResult {
	prog, _ := workloads.ByName("espresso", 1)
	res := &PatchCostResult{}

	// Overflow: correct it, then run with the patch and account pads.
	overflowHook := func() mutator.Hook {
		return inject.New(inject.Plan{Kind: inject.Overflow, TriggerAlloc: 700, Size: 36, Seed: seed})
	}
	var patches *patch.Set
	for s := uint64(0); s < 6; s++ {
		ir := runSession(prog, engine.ModeIterative, seed+s*977, engine.WithHook(overflowHook)).Iterative
		if ir.Corrected {
			patches = ir.Patches
			break
		}
	}
	if patches != nil {
		for _, pad := range patches.Pads {
			if pad > res.OverflowPadBytes {
				res.OverflowPadBytes = pad
			}
		}
		out, a := runWithPatches(prog, nil, overflowHook(), patches, seed+55)
		if out.Completed {
			padPeak, _, _ := a.Overhead()
			res.OverflowPeakBytes = padPeak
		}
	}

	// Dangling: a deferral patch and its drag.
	var danglingPlan inject.Plan
	foundPlan := false
	for s := uint64(1); s <= 20 && !foundPlan; s++ {
		danglingPlan = inject.Plan{Kind: inject.Dangling, TriggerAlloc: 2300, Seed: seed + s}
		foundPlan = planFails(prog, danglingPlan)
	}
	if foundPlan {
		cr := runSession(prog, engine.ModeCumulative, seed*3, engine.WithMaxRuns(80),
			engine.WithRunHook(func(int) mutator.Hook { return inject.New(danglingPlan) })).Cumulative
		if cr.Identified {
			out, a := runWithPatches(prog, nil, inject.New(danglingPlan), cr.Patches, seed+77)
			_ = out
			_, drag, n := a.Overhead()
			res.DragBytes = drag
			res.DeferredObjects = n
			res.PeakHeapBytes = a.Heap().Diehard().Stats().PeakLiveBytes
		}
	}
	return res
}

func runWithPatches(prog mutator.Program, input []byte, hook mutator.Hook, patches *patch.Set, seed uint64) (*mutator.Outcome, *correct.Allocator) {
	h := diefast.New(diefast.DefaultConfig(), xrand.New(seed))
	h.OnError = func(diefast.Event) {}
	a := correct.New(h)
	if patches != nil {
		a.Reload(patches.Clone())
	}
	e := mutator.NewEnv(a, h.Space(), xrand.New(0x9106), input)
	e.Hook = hook
	return mutator.Run(prog, e), a
}

// ---------------------------------------------------------------------
// §6.4, patch file compactness
// ---------------------------------------------------------------------

// PatchSizeResult reproduces the patch-size observation: espresso's
// injected-error patches were ~130 KB raw, ~17 KB gzipped. The file size
// is bounded by the number of allocation sites.
type PatchSizeResult struct {
	Entries   int
	RawBytes  int
	GzipBytes int
}

// Name implements Result.
func (*PatchSizeResult) Name() string { return "patchsize" }

// Rows implements Result.
func (r *PatchSizeResult) Rows() []string {
	return []string{
		row("patch entries: %d (bounded by allocation sites)", r.Entries),
		row("raw bytes:     %d (paper: ~130K for espresso)", r.RawBytes),
		row("gzip bytes:    %d (paper: ~17K)", r.GzipBytes),
	}
}

// PatchSize builds a patch set covering every allocation site of a large
// synthetic program (the §6.4 worst case: one pad entry per site plus
// deferral entries) and measures its encoded size.
func PatchSize(seed uint64) *PatchSizeResult {
	rng := xrand.New(seed)
	ps := patch.New()
	// espresso-scale site counts: thousands of allocation contexts.
	for i := 0; i < 8000; i++ {
		ps.AddPad(site.ID(rng.Uint32()), uint32(1+rng.Intn(64)))
	}
	for i := 0; i < 2000; i++ {
		ps.AddDeferral(site.Pair{Alloc: site.ID(rng.Uint32()), Free: site.ID(rng.Uint32())}, uint64(1+rng.Intn(1000)))
	}
	var raw bytes.Buffer
	if err := ps.Encode(&raw); err != nil {
		panic(fmt.Sprintf("patchsize: encode: %v", err))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw.Bytes())
	zw.Close()
	return &PatchSizeResult{Entries: ps.Len(), RawBytes: raw.Len(), GzipBytes: gz.Len()}
}

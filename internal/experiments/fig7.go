package experiments

import (
	"fmt"
	"runtime"

	"exterminator/internal/correct"
	"exterminator/internal/diefast"
	"exterminator/internal/freelist"
	"exterminator/internal/mem"
	"exterminator/internal/mutator"
	"exterminator/internal/stats"
	"exterminator/internal/workloads"
	"exterminator/internal/xrand"
)

// Fig7Row is one bar of Figure 7: a benchmark's execution time under the
// Exterminator stack normalized to the libc-style baseline. Times are
// process CPU time, medians over the measured pairs; Normalized is the
// median of the per-pair ratios, and MinNormalized/MaxNormalized their
// extremes.
type Fig7Row struct {
	Benchmark     string
	Group         string // "alloc-intensive" or "SPECint-like"
	BaselineNs    int64
	ExtermNs      int64
	Normalized    float64
	MinNormalized float64
	MaxNormalized float64
}

// Fig7Result reproduces Figure 7.
type Fig7Result struct {
	RowsData     []Fig7Row
	GeoMeanAlloc float64
	GeoMeanSpec  float64
	GeoMeanAll   float64
}

// Name implements Result.
func (*Fig7Result) Name() string { return "fig7" }

// Rows implements Result.
func (r *Fig7Result) Rows() []string {
	out := []string{fmt.Sprintf("%-10s %-16s %12s %12s %10s %15s", "benchmark", "group", "baseline", "exterminator", "normalized", "min-max")}
	for _, row := range r.RowsData {
		out = append(out, fmt.Sprintf("%-10s %-16s %10dus %10dus %9.2fx %6.2fx-%5.2fx",
			row.Benchmark, row.Group, row.BaselineNs/1000, row.ExtermNs/1000, row.Normalized,
			row.MinNormalized, row.MaxNormalized))
	}
	out = append(out,
		row("geomean alloc-intensive: %.2fx (paper: ~1.81x)", r.GeoMeanAlloc),
		row("geomean SPECint-like:    %.2fx (paper: ~1.07x)", r.GeoMeanSpec),
		row("geomean overall:         %.2fx (paper: ~1.25x)", r.GeoMeanAll),
	)
	return out
}

// Run lengths. At scale 1 a row takes about 2 ms, short enough that fixed
// per-run costs (GC, cache warm-up, set-up) swamp the allocator's cost,
// so each unit of scale doubles the alloc-intensive rows and multiplies
// the compute-bound SPEC-like rows by six.
const (
	fig7AllocScale = 2
	fig7SpecScale  = 6
	// fig7Pairs is the number of baseline/Exterminator pairs per row; the
	// row reports their median.
	fig7Pairs = 7
)

// fig7Run runs prog once under the libc-style freelist with no site
// hashing, or under DieFast + the correcting allocator with full site
// hashing (the §7.1 non-replicated configuration), and returns the
// process CPU time of the simulated execution. A full GC first keeps one
// run's garbage from being collected on the next run's clock.
func fig7Run(prog mutator.Program, exterm bool, seed uint64) int64 {
	var e *mutator.Env
	if exterm {
		h := diefast.New(diefast.DefaultConfig(), xrand.New(seed))
		h.OnError = func(diefast.Event) {}
		e = mutator.NewEnv(correct.New(h), h.Space(), xrand.New(7), nil)
	} else {
		rng := xrand.New(seed)
		fl := freelist.New(mem.NewSpace(rng.Split()), rng.Split())
		e = mutator.NewEnv(fl, fl.Space(), xrand.New(7), nil)
		e.NoSites = true
	}
	runtime.GC()
	start := processCPU()
	out := mutator.Run(prog, e)
	d := int64(processCPU() - start)
	if !out.Completed {
		// A clean workload must not trip either stack; make it obvious.
		panic(fmt.Sprintf("fig7: %s run (exterminator=%v) failed: %s", prog.Name(), exterm, out))
	}
	return d
}

// Fig7 measures the full suite. Each row runs fig7Pairs interleaved
// baseline/Exterminator pairs, alternating which stack runs first so
// neither always inherits the cache and frequency state the other left
// behind; process CPU time, unlike wall time, does not count time a
// shared host withheld. scale multiplies workload length.
func Fig7(scale int, seed uint64) *Fig7Result {
	res := &Fig7Result{}
	measure := func(prog mutator.Program, group string) {
		var base, ext, ratios []float64
		for r := 0; r < fig7Pairs; r++ {
			var b, x int64
			if (r+len(res.RowsData))%2 == 0 {
				b, x = fig7Run(prog, false, seed+uint64(r)), fig7Run(prog, true, seed+uint64(r)+100)
			} else {
				x, b = fig7Run(prog, true, seed+uint64(r)+100), fig7Run(prog, false, seed+uint64(r))
			}
			b = max(b, 1)
			base = append(base, float64(b))
			ext = append(ext, float64(x))
			ratios = append(ratios, float64(x)/float64(b))
		}
		lo, hi := stats.MinMax(ratios)
		res.RowsData = append(res.RowsData, Fig7Row{
			Benchmark: prog.Name(), Group: group,
			BaselineNs: int64(stats.Median(base)), ExtermNs: int64(stats.Median(ext)),
			Normalized: stats.Median(ratios), MinNormalized: lo, MaxNormalized: hi,
		})
	}
	for _, p := range workloads.AllocIntensive(fig7AllocScale * scale) {
		measure(p, "alloc-intensive")
	}
	for _, p := range workloads.SPECLike(fig7SpecScale * scale) {
		measure(p, "SPECint-like")
	}

	var ai, sp, all []float64
	for _, r := range res.RowsData {
		all = append(all, r.Normalized)
		if r.Group == "alloc-intensive" {
			ai = append(ai, r.Normalized)
		} else {
			sp = append(sp, r.Normalized)
		}
	}
	res.GeoMeanAlloc = stats.GeoMean(ai)
	res.GeoMeanSpec = stats.GeoMean(sp)
	res.GeoMeanAll = stats.GeoMean(all)
	return res
}

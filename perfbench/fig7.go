package main

import (
	"bytes"
	"math"
	"runtime"
	"time"

	"exterminator/internal/correct"
	"exterminator/internal/diefast"
	"exterminator/internal/freelist"
	"exterminator/internal/mem"
	"exterminator/internal/mutator"
	"exterminator/internal/trace"
	"exterminator/internal/workloads"
	"exterminator/internal/xrand"
)

// Workload scales. The SPEC-like rows are compute-bound and short at
// scale 1, so they are scaled until one timed run takes tens of
// milliseconds on a 2-vCPU host; the alloc-intensive rows are doubled
// for the same reason.
const (
	fig7AllocScale = 2
	fig7SpecScale  = 6
	// fig7MinRounds guarantees a median even when --seconds is short.
	fig7MinRounds = 3
)

type fig7Row struct {
	prog mutator.Program
	spec bool
	// want is the baseline output recorded in set-up; every timed run of
	// either stack must reproduce it.
	want []byte
}

// fig7Inputs is the generated input set: the rows plus the seeds the
// program and heaps receive.
type fig7Inputs struct {
	rows     []fig7Row
	progSeed uint64
	heapBase uint64
}

func fig7Setup(seed uint64) *fig7Inputs {
	rng := xrand.New(seed ^ 0xF167)
	in := &fig7Inputs{progSeed: rng.Uint64(), heapBase: rng.Uint64()}
	for _, p := range workloads.AllocIntensive(fig7AllocScale) {
		in.rows = append(in.rows, fig7Row{prog: p})
	}
	for _, p := range workloads.SPECLike(fig7SpecScale) {
		in.rows = append(in.rows, fig7Row{prog: p, spec: true})
	}
	// Warm-up round: every row once under each stack, untimed; the
	// baseline's output becomes the reference.
	for i := range in.rows {
		base := fig7Run(in.rows[i].prog, false, in.progSeed, in.heapBase+uint64(i))
		fig7Run(in.rows[i].prog, true, in.progSeed, in.heapBase+uint64(i))
		in.rows[i].want = base.out.Output
	}
	return in
}

// fig7Timed is one timed program run.
type fig7Timed struct {
	out  *mutator.Outcome
	wall time.Duration
	// cpu is the process's CPU time over the run: the program and the
	// garbage collector, without the time a shared host withheld.
	cpu     time.Duration
	bytes   uint64
	mallocs uint64
}

// fig7Run runs prog once under the libc-style baseline (no site
// hashing) or under the Exterminator stack, after a full GC.
func fig7Run(prog mutator.Program, exterm bool, progSeed, heapSeed uint64) fig7Timed {
	var e *mutator.Env
	var h *diefast.Heap
	if exterm {
		h = diefast.New(diefast.DefaultConfig(), xrand.New(heapSeed))
		h.OnError = func(diefast.Event) {}
		a := correct.New(h)
		e = mutator.NewEnv(a, h.Space(), xrand.New(progSeed), nil)
	} else {
		rng := xrand.New(heapSeed)
		fl := freelist.New(mem.NewSpace(rng.Split()), rng.Split())
		e = mutator.NewEnv(fl, fl.Space(), xrand.New(progSeed), nil)
		e.NoSites = true
	}
	runtime.GC()
	b0, _ := heapCounters()
	c0 := processCPU()
	start := time.Now()
	out := mutator.Run(prog, e)
	r := fig7Timed{out: out, wall: time.Since(start), cpu: processCPU() - c0}
	b1, _ := heapCounters()
	r.bytes = b1 - b0
	if h != nil {
		r.mallocs = h.Diehard().Stats().Mallocs
	}
	return r
}

func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func runFig7(cfg *runConfig) (*outcome, error) {
	o := newOutcome()
	in, setupS, err := setupMedian(setupReps, func() (*fig7Inputs, error) { return fig7Setup(cfg.seed), nil }, nil)
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setupS
	o.hashInputs("fig7-clean", in.progSeed, in.heapBase, int64(fig7AllocScale), int64(fig7SpecScale))
	for _, r := range in.rows {
		o.hashInputs(r.prog.Name())
		if s, ok := r.prog.(workloads.Synthetic); ok {
			p := s.P
			o.hashInputs(int64(p.Ops), int64(p.ComputePerOp), int64(p.AllocEvery), int64(p.SizeMin),
				int64(p.SizeMax), int64(p.LiveTarget), p.PointerChase, int64(p.Sites))
		}
	}

	fig7Measure(cfg, in, o)
	if cfg.traced {
		sp := cfg.tr.start("fig7.layers", 0)
		var traces []*trace.Trace
		for i, row := range in.rows {
			if row.spec {
				continue
			}
			prog, _ := workloads.ByName(row.prog.Name(), 1)
			t, out := record(prog, diefast.DefaultConfig(), in.heapBase+uint64(i), in.progSeed, nil)
			o.check(out.Completed, "fig7 %s: trace recording run failed (%s)", row.prog.Name(), out)
			traces = append(traces, t)
		}
		layerCosts(o, cfg.tr, sp, traces, stackSet{diefast.DefaultConfig()}, 9, in.heapBase)
		canaryCosts(o, in.heapBase)
		cfg.tr.end(sp)
	}
	return o, nil
}

// fig7Measure runs rounds of interleaved baseline/Exterminator pairs
// until cfg.seconds has passed, checking every run's output.
func fig7Measure(cfg *runConfig, in *fig7Inputs, o *outcome) {
	// ratios[i] holds row i's Exterminator÷baseline CPU-time ratio per
	// round; allocRounds/specRounds are the per-round geomeans, and the
	// *Wall variants the same over wall time. CPU time is the headline: on
	// a shared host a burst of stolen time lands in one run of a pair and
	// skews its wall-time ratio, but never its CPU time.
	ratios := make([][]float64, len(in.rows))
	var allocRounds, specRounds, allocWall, specWall []float64
	var heapBytes, mallocs uint64
	// Per-op CPU of the Exterminator alloc-intensive runs, split by
	// traced and untraced rounds for trace.overhead_share.
	var perOp [2][]float64
	deadline := time.Now().Add(cfg.seconds)
	rounds := 0
	for ; rounds < fig7MinRounds || time.Now().Before(deadline); rounds++ {
		// A traced run traces every other round, so the untraced rounds
		// give its overhead baseline.
		traced := cfg.traced && rounds%2 == 1
		var tr *tracer
		if traced {
			tr = cfg.tr
		}
		rsp := tr.start("fig7.round", 0)
		var roundAlloc, roundSpec, roundAllocWall, roundSpecWall []float64
		var roundCPU time.Duration
		var roundMallocs uint64
		for i, row := range in.rows {
			heapSeed := in.heapBase + uint64(rounds*len(in.rows)+i+1)*0x9E3779B97F4A7C15
			var base, ext fig7Timed
			timed := func(exterm bool) fig7Timed {
				name := "fig7.run.baseline"
				if exterm {
					name = "fig7.run.exterminator"
				}
				sp := tr.start(name, rsp)
				r := fig7Run(row.prog, exterm, in.progSeed, heapSeed^uint64(boolInt(exterm)))
				tr.end(sp)
				return r
			}
			// Alternate which stack runs first, so neither always runs
			// on a cache or frequency state the other left behind.
			if (rounds+i)%2 == 0 {
				base, ext = timed(false), timed(true)
			} else {
				ext, base = timed(true), timed(false)
			}
			for _, r := range []fig7Timed{base, ext} {
				o.attempted++
				if !r.out.Completed || !bytes.Equal(r.out.Output, row.want) {
					o.fail("fig7 %s: run did not reproduce the baseline output (%s)", row.prog.Name(), r.out)
					o.check(false, "fig7 %s: output differs from the baseline", row.prog.Name())
				}
			}
			ratio := float64(ext.cpu) / float64(base.cpu)
			wall := float64(ext.wall) / float64(base.wall)
			ratios[i] = append(ratios[i], ratio)
			if row.spec {
				roundSpec = append(roundSpec, ratio)
				roundSpecWall = append(roundSpecWall, wall)
				continue
			}
			roundAlloc = append(roundAlloc, ratio)
			roundAllocWall = append(roundAllocWall, wall)
			roundCPU += ext.cpu
			roundMallocs += ext.mallocs
			heapBytes += ext.bytes
		}
		tr.end(rsp)
		mallocs += roundMallocs
		perOp[boolInt(traced)] = append(perOp[boolInt(traced)], float64(roundCPU)/float64(roundMallocs))
		allocRounds = append(allocRounds, geomean(roundAlloc))
		specRounds = append(specRounds, geomean(roundSpec))
		allocWall = append(allocWall, geomean(roundAllocWall))
		specWall = append(specWall, geomean(roundSpecWall))
	}

	o.e2e["ok_share"] = 1 - float64(o.failed)/float64(o.attempted)

	o.e2e["alloc_bytes_per_op"] = float64(heapBytes) / float64(mallocs)
	o.e2e["primary"] = median(allocRounds)
	o.e2e["secondary"] = median(specRounds)

	o.note("overhead_alloc", median(allocRounds), "x", rounds)
	o.note("overhead_alloc_min", quantile(allocRounds, 0), "x", rounds)
	o.note("overhead_alloc_max", quantile(allocRounds, 1), "x", rounds)
	o.note("overhead_spec", median(specRounds), "x", rounds)
	o.note("overhead_spec_min", quantile(specRounds, 0), "x", rounds)
	o.note("overhead_spec_max", quantile(specRounds, 1), "x", rounds)
	o.note("overhead_alloc_wall", median(allocWall), "x", rounds)
	o.note("overhead_spec_wall", median(specWall), "x", rounds)
	o.note("alloc_cpu_ns_per_op", median(append(perOp[0], perOp[1]...)), "ns", rounds)
	o.note("alloc_bytes_per_op", o.e2e["alloc_bytes_per_op"], "B", int(mallocs))
	o.note("failed_share", float64(o.failed)/float64(o.attempted), "ratio", o.attempted)
	for i, row := range in.rows {
		o.layers["fig7."+row.prog.Name()+".ratio"] = median(ratios[i])
	}

	if u := median(perOp[0]); cfg.traced && u > 0 {
		o.layers["trace.overhead_share"] = (median(perOp[1]) - u) / u
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

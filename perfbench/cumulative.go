package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"exterminator/internal/alloc"
	"exterminator/internal/correct"
	"exterminator/internal/cumulative"
	"exterminator/internal/diefast"
	"exterminator/internal/engine"
	"exterminator/internal/inject"
	"exterminator/internal/mutator"
	"exterminator/internal/patch"
	"exterminator/internal/trace"
	"exterminator/internal/workloads"
	"exterminator/internal/xrand"
)

// Session mix. Dangling faults are the paper's cumulative-mode study
// (§7.2: 10/10 isolated in 22–30 runs); overflow faults exercise the
// corrupt-run path (recordOverflow's log walk).
//
// The fault plans are a fixed catalogue, found once by the seeded
// trigger search from cumSearchSeed; the workload seed draws every
// session's isolation heaps and its verification heap. Runs-to-patch is a
// statistic over heap randomization with a long tail (9 to 60 runs for
// one fault), and some faults never isolate within the cap, so it is
// reported as a restricted mean: a session that ends without a patch
// that verifies clean counts cumMaxRuns. Its median would sit at the cap
// (fewer than half of the sessions patch), and a median over the patched
// sessions alone would fall when a fault stops converging.
const (
	cumDanglingPlans = 16
	cumOverflowPlans = 2
	cumSearchSeed    = 1
	// cumRoundSeconds sizes the run: every plan gets one session per
	// cumRoundSeconds of --seconds, six rounds in 20 seconds, which take
	// about 25 s on two workers of a 2-vCPU host. The session count, not
	// a deadline, ends the run, so one seed always yields the same
	// sessions and results.
	cumRoundSeconds = 3
	// cumMaxRuns caps a session: about twice the paper's slowest
	// isolation (34 runs).
	cumMaxRuns = 60
	// cumProbes is the fault search's probe count per candidate plan, as
	// in the paper's methodology of keeping faults that trigger errors.
	cumProbes = 6
)

// cumSession is one fault-correction session's generated input.
type cumSession struct {
	plan       inject.Plan
	heapSeed   uint64
	verifySeed uint64
}

type cumInputs struct {
	progSeed uint64
	sessions []cumSession
}

// cumWorkers is the number of candidate plans probed, or sessions run,
// concurrently: one per CPU, at most two. Each session is serial inside
// (engine parallelism 1) and deterministic in its seeds, so the number
// of workers changes no result.
func cumWorkers() int { return min(2, runtime.GOMAXPROCS(0)) }

func espresso() mutator.Program {
	p, _ := workloads.ByName("espresso", 1)
	return p
}

// planTriggers probes a candidate fault under the cumulative-mode heap:
// a dangling fault must make at least two of cumProbes runs fail, an
// overflow must leave detectable corruption in at least two.
func planTriggers(prog mutator.Program, plan inject.Plan, progSeed uint64) bool {
	hits := 0
	for p := uint64(1); p <= cumProbes; p++ {
		out, clean := engine.VerifyCumulative(prog, nil, inject.New(plan), p*1299709, progSeed)
		if (plan.Kind == inject.Dangling && out.Bad()) || (plan.Kind == inject.Overflow && !clean) {
			hits++
		}
		if hits >= 2 {
			return true
		}
		if hits+int(cumProbes-p) < 2 {
			return false
		}
	}
	return false
}

// searchPlans returns the first n candidates (in candidate order) that
// trigger, probing candidates concurrently.
func searchPlans(prog mutator.Program, n int, cand func(i int) inject.Plan, progSeed uint64) ([]inject.Plan, error) {
	var found []inject.Plan
	batch := 4 * cumWorkers()
	for start := 0; len(found) < n; start += batch {
		if start > 60*n {
			return nil, fmt.Errorf("fault search: only %d of %d plans trigger among %d candidates", len(found), n, start)
		}
		ok := make([]bool, batch)
		parallel(batch, cumWorkers(), func(i int) { ok[i] = planTriggers(prog, cand(start+i), progSeed) })
		for i := 0; i < batch && len(found) < n; i++ {
			if ok[i] {
				found = append(found, cand(start+i))
			}
		}
	}
	return found, nil
}

// parallel runs f(0..n-1) on `workers` goroutines and waits for them.
func parallel(n, workers int, f func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

func cumSetup(seed uint64, rounds int) (*cumInputs, error) {
	search := xrand.New(cumSearchSeed)
	in := &cumInputs{progSeed: search.Uint64()}
	base := search.Uint64()
	prog := espresso()
	dangling, err := searchPlans(prog, cumDanglingPlans, func(i int) inject.Plan {
		return inject.Plan{Kind: inject.Dangling, TriggerAlloc: 2100 + uint64(i%5)*80, Seed: base + uint64(i)}
	}, in.progSeed)
	if err != nil {
		return nil, err
	}
	overflow, err := searchPlans(prog, cumOverflowPlans, func(i int) inject.Plan {
		return inject.Plan{Kind: inject.Overflow, TriggerAlloc: 400 + uint64(i%12)*150,
			Size: []int{4, 20, 36}[i%3], Seed: base ^ uint64(i)<<20}
	}, in.progSeed)
	if err != nil {
		return nil, err
	}
	plans := append(dangling, overflow...)
	heaps := xrand.New(seed ^ 0xC0FA)
	for r := 0; r < rounds; r++ {
		for _, plan := range plans {
			in.sessions = append(in.sessions, cumSession{plan: plan, heapSeed: heaps.Uint64(), verifySeed: heaps.Uint64()})
		}
	}
	return in, nil
}

// cumResult is one session's outcome.
type cumResult struct {
	runs       int
	failures   int // failed runs among them
	identified bool
	clean      bool // verification run with the derived patches was clean
	patches    *patch.Set
	cpu        time.Duration // CPU of the session's thread, verification excluded
	runMs      []float64     // engine.run_ms samples (traced pass only)
}

// patched reports whether the session derived a patch that verified.
func (r *cumResult) patched() bool { return r.identified && r.clean }

// cumScore is the workload's verdict over all sessions.
type cumScore struct {
	// runsToPatch is the restricted mean of runs until a patch that
	// verifies: a session without one counts cumMaxRuns.
	runsToPatch float64
	// failuresPerSession is the mean number of failed runs a session went
	// through, until its patch or the cap.
	failuresPerSession float64
	// patched counts sessions whose patch verified; wrong lists the
	// sessions whose derived patch did not.
	patched int
	wrong   []int
}

func scoreSessions(results []cumResult) cumScore {
	var sc cumScore
	var runs, failures float64
	for i, r := range results {
		failures += float64(r.failures)
		switch {
		case r.patched():
			sc.patched++
			runs += float64(r.runs)
		case r.identified:
			sc.wrong = append(sc.wrong, i)
			runs += cumMaxRuns
		default:
			runs += cumMaxRuns
		}
	}
	n := float64(len(results))
	sc.runsToPatch, sc.failuresPerSession = runs/n, failures/n
	return sc
}

// engineSession runs one session through the engine's cumulative mode
// and verifies its patches. With observe set it also times each run
// from the engine's Progress events.
func engineSession(prog mutator.Program, s cumSession, progSeed uint64, observe bool) (cumResult, error) {
	var r cumResult
	opts := []engine.Option{
		engine.WithMode(engine.ModeCumulative),
		engine.WithSeeds(s.heapSeed, progSeed),
		engine.WithMaxRuns(cumMaxRuns),
		engine.WithHook(func() mutator.Hook { return inject.New(s.plan) }),
	}
	last := time.Now()
	if observe {
		opts = append(opts, engine.WithObserver(engine.ObserverFunc(func(ev engine.Event) {
			if _, ok := ev.(engine.Progress); ok {
				now := time.Now()
				r.runMs = append(r.runMs, ms(now.Sub(last)))
				last = now
			}
		})))
	}
	c0 := threadCPU()
	sess, err := engine.New(engine.Batch(prog), opts...)
	if err != nil {
		return r, err
	}
	last = time.Now()
	res, err := sess.Run(context.Background())
	if err != nil {
		return r, err
	}
	r.cpu = threadCPU() - c0
	r.runs = res.Cumulative.Runs
	r.failures = res.Cumulative.Failures
	r.identified = res.Cumulative.Identified
	r.patches = res.Patches
	if r.identified {
		r.clean = verifyPatches(prog, s, res.Patches, progSeed)
	}
	return r, nil
}

// verifyPatches is the session's output check: one run with the fault
// and the derived patches loaded must end cleanly (completed, no DieFast
// signal, no residual canary corruption).
func verifyPatches(prog mutator.Program, s cumSession, patches *patch.Set, progSeed uint64) bool {
	_, clean := engine.Verify(prog, nil, inject.New(s.plan), patches, s.verifySeed, progSeed)
	return clean
}

// tracedStats are the per-run layer timings of the traced loop.
type tracedStats struct {
	recordMs, identifyMs, logRecords []float64
}

// tracedSession reproduces engineSession's cumulative loop from the same
// public calls (diefast.New, correct.New, mutator.Run, RecordRun,
// Identify) with a span around each; it must reach the same runs.
func tracedSession(tr *tracer, prog mutator.Program, s cumSession, progSeed uint64, st *tracedStats) (runs int, identified bool) {
	hist := cumulative.NewHistory(cumulative.Config{C: 4, P: 0.5})
	ssp := tr.start("cumulative.session", 0)
	defer tr.end(ssp)
	for run := 1; run <= cumMaxRuns; run++ {
		rsp := tr.start("cumulative.run", ssp)
		h := diefast.New(diefast.CumulativeConfig(0.5), xrand.New(s.heapSeed+uint64(run)*104729))
		h.OnError = func(diefast.Event) {}
		a := correct.New(h)
		a.Reload(patch.New())
		e := mutator.NewEnv(a, h.Space(), xrand.New(progSeed), nil)
		e.Hook = inject.New(s.plan)
		sp := tr.start("mutator.run", rsp)
		out := mutator.Run(prog, e)
		tr.end(sp)
		st.logRecords = append(st.logRecords, float64(len(h.Diehard().Log())+len(h.FreeLog())))
		sp = tr.start("cumulative.record_run", rsp)
		hist.RecordRun(h, out.Bad())
		st.recordMs = append(st.recordMs, ms(tr.end(sp)))
		sp = tr.start("cumulative.identify", rsp)
		f := hist.Identify()
		st.identifyMs = append(st.identifyMs, ms(tr.end(sp)))
		tr.end(rsp)
		if !f.Empty() {
			return run, true
		}
	}
	return cumMaxRuns, false
}

func runCumulative(cfg *runConfig) (*outcome, error) {
	o := newOutcome()
	rounds := max(1, int(cfg.seconds.Seconds())/cumRoundSeconds)
	if cfg.traced {
		// The traced run replays every session a second time through the
		// traced loop; half the rounds keep it near --seconds.
		rounds = max(1, rounds/2)
	}
	in, setupS, err := setupMedian(setupReps, func() (*cumInputs, error) { return cumSetup(cfg.seed, rounds) }, nil)
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setupS
	o.hashInputs("cumulative-fault", in.progSeed, int64(cumMaxRuns))
	for _, s := range in.sessions {
		o.hashInputs(int64(s.plan.Kind), s.plan.TriggerAlloc, int64(s.plan.Size), s.plan.Seed, s.heapSeed, s.verifySeed)
	}
	prog := espresso()

	results := make([]cumResult, len(in.sessions))
	errs := make([]error, len(in.sessions))
	b0, _ := heapCounters()
	c0 := processCPU()
	parallel(len(in.sessions), cumWorkers(), func(i int) {
		results[i], errs[i] = engineSession(prog, in.sessions[i], in.progSeed, cfg.traced)
	})
	totalCPU := processCPU() - c0
	b1, _ := heapCounters()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	sc := scoreSessions(results)
	var runsPatched, cpuPatched, runMs []float64
	var sessionCPU time.Duration
	// programRuns adds each identified session's verification run to its
	// cumulative runs: the process-wide counters cover both.
	totalRuns, programRuns := 0, 0
	union := patch.New()
	for _, r := range results {
		totalRuns += r.runs
		programRuns += r.runs + boolInt(r.identified)
		sessionCPU += r.cpu
		runMs = append(runMs, r.runMs...)
		if r.patched() {
			runsPatched = append(runsPatched, float64(r.runs))
			cpuPatched = append(cpuPatched, r.cpu.Seconds())
			union.Merge(r.patches)
		}
	}
	// A failed operation is a session whose derived patch does not hold on
	// its verification run. A session that reaches the cap without a patch
	// is not a failed operation; it scores cumMaxRuns in runs_to_patch.
	o.attempted = len(results)
	for _, i := range sc.wrong {
		o.fail("cumulative session %d (%s fault): verification run with the derived patches was not clean", i, in.sessions[i].plan.Kind)
	}
	o.check(sc.patched > 0, "cumulative: no session derived a clean patch")
	patchedShare := float64(sc.patched) / float64(len(results))
	o.e2e["ok_share"] = 1 - float64(o.failed)/float64(o.attempted)
	o.e2e["alloc_bytes_per_op"] = float64(b1-b0) / float64(programRuns)
	o.e2e["primary"] = sc.runsToPatch
	o.e2e["secondary"] = sc.failuresPerSession

	o.note("runs_to_patch", sc.runsToPatch, "runs", len(results))
	o.note("failures_to_patch", sc.failuresPerSession, "runs", len(results))
	o.note("patched_share", patchedShare, "ratio", len(results))
	o.note("runs_to_patch_p50_patched", median(runsPatched), "runs", len(runsPatched))
	o.note("cpu_s_to_patch", median(cpuPatched), "s", len(cpuPatched))
	o.note("alloc_bytes_per_run", o.e2e["alloc_bytes_per_op"], "B", programRuns)
	// The sessions' own thread CPU: the garbage collector's background
	// workers do not land in it.
	o.note("cpu_ns_per_run", float64(sessionCPU)/float64(totalRuns), "ns", totalRuns)
	o.note("process_cpu_ns_per_run", float64(totalCPU)/float64(programRuns), "ns", programRuns)
	o.note("failed_share", float64(o.failed)/float64(o.attempted), "ratio", o.attempted)
	o.layers["cumulative.patched_share"] = patchedShare

	if cfg.traced {
		cumLayers(cfg, o, in, prog, results, union)
		o.layers["engine.run_ms"] = median(runMs)
	}
	return o, nil
}

// cumLayers is the traced run's second half: the traced loop over the
// same sessions, then the allocator replays with and without the
// derived patches.
func cumLayers(cfg *runConfig, o *outcome, in *cumInputs, prog mutator.Program, results []cumResult, union *patch.Set) {
	tr := cfg.tr
	stats := make([]tracedStats, len(in.sessions))
	runs := make([]int, len(in.sessions))
	ident := make([]bool, len(in.sessions))
	cpu := make([]time.Duration, len(in.sessions))
	parallel(len(in.sessions), cumWorkers(), func(i int) {
		c0 := threadCPU()
		runs[i], ident[i] = tracedSession(tr, prog, in.sessions[i], in.progSeed, &stats[i])
		cpu[i] = threadCPU() - c0
	})
	// Both sides of the overhead are the sessions' thread CPU over their
	// cumulative runs; the engine side's verification runs are outside it.
	var tracedCPU, untracedCPU time.Duration
	var st tracedStats
	for i := range in.sessions {
		tracedCPU += cpu[i]
		untracedCPU += results[i].cpu
		o.check(runs[i] == results[i].runs && ident[i] == results[i].identified,
			"cumulative session %d: traced loop took %d runs, engine %d", i, runs[i], results[i].runs)
		st.recordMs = append(st.recordMs, stats[i].recordMs...)
		st.identifyMs = append(st.identifyMs, stats[i].identifyMs...)
		st.logRecords = append(st.logRecords, stats[i].logRecords...)
	}
	o.layers["cumulative.record_run_ms"] = median(st.recordMs)
	o.layers["cumulative.identify_ms"] = median(st.identifyMs)
	o.layers["cumulative.log_records_per_run"] = median(st.logRecords)
	// The check above makes both sides the same runs.
	o.layers["trace.overhead_share"] = float64(tracedCPU-untracedCPU) / float64(untracedCPU)

	// Allocation trace of a faulted run that completes, for the replays.
	var t *trace.Trace
	for i, s := range in.sessions {
		if !results[i].identified || s.plan.Kind != inject.Dangling {
			continue
		}
		for k := uint64(1); k <= 32 && t == nil; k++ {
			rt, out := record(prog, diefast.CumulativeConfig(0.5), s.heapSeed+k, in.progSeed, inject.New(s.plan))
			if out.Completed {
				t = rt
			}
		}
		break
	}
	if t == nil {
		o.check(false, "cumulative: no faulted run completed for the replay trace")
		return
	}
	sp := tr.start("cumulative.layers", 0)
	defer tr.end(sp)
	stacks := stackSet{diefast.CumulativeConfig(0.5)}
	layerCosts(o, tr, sp, []*trace.Trace{t}, stacks, 15, in.progSeed)
	canaryCosts(o, in.progSeed)

	// Patched path: the whole correcting stack's per-call cost on the
	// same trace with every derived patch loaded. (Not a difference from
	// the stack below: deferred frees change what that stack would see.)
	m, f := replayMedians(tr, sp, []*trace.Trace{t}, []string{"replay.correct.patched"},
		[]func(uint64) alloc.Allocator{func(s uint64) alloc.Allocator { return stacks.correct(s, union) }},
		15, in.progSeed)
	o.layers["correct.patched_malloc_ns"] = m[0]
	o.layers["correct.patched_free_ns"] = f[0]
	// Peak deferrals and Go heap objects over one more replay: the
	// callback allocates nothing.
	a := stacks.correct(in.progSeed, union)
	peak := 0
	_, objs0 := heapCounters()
	replay(t, a, func() { peak = max(peak, a.PendingDeferrals()) })
	_, objs1 := heapCounters()
	o.layers["correct.patched_allocs_per_op"] = float64(objs1-objs0) / float64(len(t.Ops))
	o.layers["correct.peak_deferrals"] = float64(peak)
}

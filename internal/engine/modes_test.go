package engine

import (
	"context"
	"testing"

	"exterminator/internal/correct"
	"exterminator/internal/diefast"
	"exterminator/internal/inject"
	"exterminator/internal/mutator"
	"exterminator/internal/patch"
	"exterminator/internal/workloads"
	"exterminator/internal/xrand"
)

// runMode drives one session over w to completion with the given heap
// seed and the default program seed, failing the test on any error.
func runMode(t testing.TB, w Workload, mode Mode, heapSeed uint64, opts ...Option) *Result {
	t.Helper()
	sess, err := New(w, append([]Option{WithMode(mode), WithSeeds(heapSeed, 0x9106)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func iterative(t testing.TB, prog mutator.Program, heapSeed uint64, opts ...Option) *IterativeResult {
	t.Helper()
	return runMode(t, Batch(prog), ModeIterative, heapSeed, opts...).Iterative
}

func replicated(t testing.TB, prog mutator.Program, heapSeed uint64, opts ...Option) *ReplicatedResult {
	t.Helper()
	return runMode(t, Batch(prog), ModeReplicated, heapSeed, opts...).Replicated
}

func cumulativeRun(t testing.TB, prog mutator.Program, heapSeed uint64, opts ...Option) *CumulativeResult {
	t.Helper()
	return runMode(t, Batch(prog), ModeCumulative, heapSeed, opts...).Cumulative
}

// TestOptionsDefaults pins the paper's defaults for every knob a
// session leaves unset.
func TestOptionsDefaults(t *testing.T) {
	var c config
	c.fill()
	if c.images != 3 || c.maxIterations != 8 || c.replicas != 3 || c.maxRuns != 100 || c.fillProb != 0.5 {
		t.Fatalf("%+v", c)
	}
}

func TestIterativeCleanRun(t *testing.T) {
	res := iterative(t, espresso(), 1)
	if !res.CleanAtStart || res.Corrected || res.GaveUp {
		t.Fatalf("%s", res)
	}
	if res.Patches.Len() != 0 {
		t.Fatal("clean run generated patches")
	}
}

func TestIterativeCorrectsInjectedOverflow(t *testing.T) {
	// The §7.2 experiment: injected overflows, iterative mode. The paper
	// observed 3 images sufficing; we assert correction within the
	// default budget and verify the patched program runs clean.
	for _, size := range []int{4, 20, 36} {
		// A single detection run may miss the overflow when it lands on
		// uncanaried space (the paper ran 10 experiments per size); try a
		// few heap seeds and require at least one full correction.
		corrected := false
		for seed := uint64(0); seed < 5 && !corrected; seed++ {
			res := iterative(t, espresso(), uint64(100+size)+seed*977, WithHook(overflowHook(size)))
			if res.CleanAtStart || !res.Corrected {
				continue
			}
			if res.Patches.Len() == 0 {
				t.Fatalf("size %d: corrected without patches?", size)
			}
			// Independent verification on a fresh seed.
			if _, clean := Verify(espresso(), nil, overflowHook(size)(), res.Patches, 0xFEED+seed, 0x9106); !clean {
				t.Fatalf("size %d: patched program still misbehaves", size)
			}
			corrected = true
		}
		if !corrected {
			t.Fatalf("size %d: never corrected across 5 seeds", size)
		}
	}
}

func TestIterativeDanglingWriteCorrection(t *testing.T) {
	// Injected dangling pointers in iterative mode: the paper isolates
	// the error when the program *writes* through the dangling pointer
	// (4/10 runs) and cannot when it only reads (the canary-read
	// crash/abort cases). Either outcome is faithful; what must hold is
	// no wrong patch and, when corrected, a clean verified rerun.
	corrected, gaveUp := 0, 0
	for trial := uint64(1); trial <= 6; trial++ {
		// Each trial is a *different* injected dangling fault (different
		// victim and trigger), as in the paper's 10 distinct faults.
		hookFor := func() mutator.Hook {
			return inject.New(inject.Plan{Kind: inject.Dangling, TriggerAlloc: 300 + trial*150, Seed: trial * 13})
		}
		res := iterative(t, espresso(), trial*31, WithHook(hookFor))
		switch {
		case res.Corrected:
			corrected++
		case res.GaveUp:
			gaveUp++
		}
	}
	if corrected == 0 && gaveUp == 0 {
		t.Fatal("dangling injection neither corrected nor abandoned in 6 trials")
	}
	t.Logf("dangling iterative: %d corrected, %d gave up (paper: 4/10 vs 6/10)", corrected, gaveUp)
}

func TestReplicatedHealthyRun(t *testing.T) {
	res := replicated(t, espresso(), 5)
	if res.ErrorDetected {
		t.Fatalf("healthy run flagged: %s", res.Detection)
	}
	if len(res.Agreed) == 0 {
		t.Fatal("no agreed output")
	}
	for _, o := range res.Outcomes {
		if !o.Completed {
			t.Fatalf("replica outcome: %s", o)
		}
	}
}

func TestReplicatedDetectsAndCorrectsOverflow(t *testing.T) {
	res := replicated(t, espresso(), 6, WithHook(overflowHook(20)), WithReplicas(4))
	if !res.ErrorDetected {
		t.Fatal("overflow not detected across replicas")
	}
	if res.Patches.Len() == 0 {
		t.Fatalf("no patches from replicated isolation (detection: %s)", res.Detection)
	}
	if !res.Corrected {
		t.Fatalf("patched re-run not clean (detection: %s)", res.Detection)
	}
}

func TestCumulativeIdentifiesInjectedDangling(t *testing.T) {
	// The §7.2 cumulative-mode experiment: injected dangling pointers in
	// espresso, isolated by correlating canary placement with failures.
	// Following the paper's methodology, first search for an injector
	// seed whose fault actually triggers an error, then use that seed
	// deterministically.
	// The trigger sits near the run's end: a premature free close to the
	// object's real lifetime end, so the slot is rarely reused before the
	// program's own accesses — failure then hinges on the canary coin.
	plan, ok := findFailingDanglingPlan(2300, 20)
	if !ok {
		t.Fatal("no injector seed triggers a failure")
	}
	hook := func(run int) mutator.Hook { return inject.New(plan) }
	res := cumulativeRun(t, espresso(), 7, WithRunHook(hook), WithMaxRuns(80))
	if !res.Identified {
		t.Fatalf("cumulative mode never identified the dangling error: %s", res.History)
	}
	if len(res.Findings.Danglings) == 0 {
		t.Fatalf("findings: %+v", res.Findings)
	}
	t.Logf("identified after %d runs, %d failures (paper: 22–34 runs, ~15 failures)", res.Runs, res.Failures)
}

func TestCumulativeMozilla(t *testing.T) {
	// The Mozilla case study (§7.2): nondeterministic workload, cumulative
	// mode, immediate-trigger scenario.
	moz := workloads.NewMozilla(8)
	inputFor := func(run int) []byte { return workloads.MozillaSession(2, true) }
	res := cumulativeRun(t, moz, 8, WithInputFunc(inputFor), WithMaxRuns(80), WithVaryProgSeed(true))
	if !res.Identified {
		t.Fatalf("mozilla overflow never identified: %s", res.History)
	}
	if len(res.Findings.Overflows) == 0 {
		t.Fatal("no overflow finding")
	}
	t.Logf("mozilla isolated after %d runs (paper: 23 immediate / 34 browse-first)", res.Runs)
}

func TestVerifyDetectsResidualBug(t *testing.T) {
	// Verify must fail when the bug is still present (no patches).
	_, clean := Verify(espresso(), nil, overflowHook(20)(), nil, 9, 0x9106)
	if clean {
		t.Fatal("Verify passed an unpatched buggy run")
	}
	_, clean = Verify(espresso(), nil, nil, nil, 9, 0x9106)
	if !clean {
		t.Fatal("Verify failed a clean run")
	}
}

func TestIterativeCorrectsRealMinimizer(t *testing.T) {
	// End-to-end on a real algorithm (QM minimizer), not a synthetic
	// profile: inject an overflow, isolate, patch, verify.
	prog, _ := workloads.ByName("espresso-qm", 1)
	hookFor := func() mutator.Hook {
		return inject.New(inject.Plan{Kind: inject.Overflow, TriggerAlloc: 120, Size: 12, Seed: 5})
	}
	corrected := false
	for seed := uint64(1); seed <= 8 && !corrected; seed++ {
		res := iterative(t, prog, seed*104729, WithHook(hookFor))
		if res.Corrected {
			corrected = true
			if _, clean := Verify(prog, nil, hookFor(), res.Patches, 0xF00D+seed, 0x9106); !clean {
				t.Fatal("patched minimizer still misbehaves")
			}
		}
	}
	if !corrected {
		t.Fatal("minimizer overflow never corrected across 8 seeds")
	}
}

func TestReplicatedRealFactorizer(t *testing.T) {
	// The factorizer is deterministic: replicas agree on healthy runs.
	prog, _ := workloads.ByName("cfrac-mp", 1)
	res := replicated(t, prog, 77)
	if res.ErrorDetected {
		t.Fatalf("healthy factorizer flagged: %s", res.Detection)
	}
	if len(res.Agreed) == 0 {
		t.Fatal("no agreed output")
	}
}

func TestIterativeCorrectsInjectedUnderflow(t *testing.T) {
	// The §2.1 extension end to end: the paper's §7.2 even describes its
	// overflow experiments as "underflowing objects in the espresso
	// benchmark". Inject a backward overflow, isolate, front-pad, verify.
	hookFor := func() mutator.Hook {
		return inject.New(inject.Plan{Kind: inject.Underflow, TriggerAlloc: 700, Size: 12, Seed: 29})
	}
	corrected := false
	for seed := uint64(1); seed <= 8 && !corrected; seed++ {
		res := iterative(t, espresso(), seed*15485863, WithHook(hookFor))
		if !res.Corrected {
			continue
		}
		if len(res.Patches.FrontPads) == 0 {
			t.Fatalf("corrected without a front pad: %s", res.Patches)
		}
		if _, clean := Verify(espresso(), nil, hookFor(), res.Patches, 0xFACE+seed, 0x9106); !clean {
			t.Fatal("front-padded program still misbehaves")
		}
		corrected = true
	}
	if !corrected {
		t.Fatal("underflow never corrected across 8 seeds")
	}
}

func TestIterativeEndToEnd(t *testing.T) {
	prog, _ := workloads.ByName("espresso", 1)
	res := iterative(t, prog, 41, WithHook(overflowHook(20)))
	if !res.Corrected && !res.CleanAtStart {
		t.Fatalf("not corrected: %s", res)
	}
}

func TestVerifyCleanWorkload(t *testing.T) {
	prog, _ := workloads.ByName("cfrac", 1)
	out, clean := Verify(prog, nil, nil, nil, 42^0xFEEDFACE, 0x9106)
	if !clean || !out.Completed {
		t.Fatalf("clean workload not clean: %s", out)
	}
}

// TestHistoryFileRoundTrip: a cumulative history survives an encode /
// decode round trip through a file, and a session resumed from it keeps
// counting runs.
func TestHistoryFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/h.xtc"
	prog, _ := workloads.ByName("cfrac", 1)
	res := cumulativeRun(t, prog, 45, WithMaxRuns(3))
	if err := HistoryFile(path).Commit(context.Background(), &Evidence{History: res.History}); err != nil {
		t.Fatal(err)
	}
	hist, err := loadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if hist.Runs != res.History.Runs {
		t.Fatalf("runs %d != %d", hist.Runs, res.History.Runs)
	}
	// Resume and confirm run accounting continues.
	res2 := cumulativeRun(t, prog, 45, WithMaxRuns(3), WithHistory(hist))
	if res2.Runs <= res.Runs {
		t.Fatalf("resumed run count %d not beyond %d", res2.Runs, res.Runs)
	}
	if _, err := loadHistory(t.TempDir() + "/missing"); err == nil {
		t.Fatal("missing history loaded")
	}
}

// TestOnTheFlyPatchReload exercises the paper's deployment story for
// long-running programs (§3.4, §6.3): a server keeps running on one heap;
// an error is isolated out-of-band; the correcting allocator reloads the
// patches without interrupting execution; subsequent allocations are
// fixed in place.
func TestOnTheFlyPatchReload(t *testing.T) {
	squid := workloads.NewSquid()
	hostile := workloads.SquidHostileInput(200, 100)

	// Derive patches out-of-band (the error isolator process).
	var patches *patch.Set
	for seed := uint64(1); seed <= 8; seed++ {
		ir := iterative(t, squid, seed*7919, WithInput(hostile))
		if ir.Corrected {
			patches = ir.Patches
			break
		}
	}
	if patches == nil {
		t.Fatal("could not derive squid patches")
	}

	// The long-running server: ONE heap and allocator across phases.
	h := diefast.New(diefast.DefaultConfig(), xrand.New(0xBEEF))
	h.OnError = func(diefast.Event) {} // record only
	a := correct.New(h)
	env := mutator.NewEnv(a, h.Space(), xrand.New(4), hostile)

	// Phase 1: unpatched service hits the exploit.
	out1 := mutator.Run(squid, env)
	if !out1.Completed {
		t.Skipf("phase 1 crashed in this layout: %s", out1)
	}
	corrupt1 := len(h.Scan(false))
	if corrupt1 == 0 && len(h.Events()) == 0 {
		t.Skip("exploit left no visible corruption in this layout")
	}
	eventsBefore := len(h.Events())

	// The reload signal: patches applied to the running allocator.
	a.Reload(patches.Clone())

	// Phase 2: same process, same heap, fresh hostile traffic.
	env2 := mutator.NewEnv(a, h.Space(), xrand.New(4), hostile)
	out2 := mutator.Run(squid, env2)
	if !out2.Completed {
		t.Fatalf("patched phase crashed: %s", out2)
	}
	// Phase 2's overflow must be contained: no new DieFast events and no
	// new corrupt slots beyond phase 1's residue (which is bad-isolated
	// and stays visible by design).
	if got := len(h.Events()); got != eventsBefore {
		t.Fatalf("new DieFast events after reload: %d -> %d", eventsBefore, got)
	}
	if got := len(h.Scan(false)); got > corrupt1 {
		t.Fatalf("new corruption after reload: %d -> %d", corrupt1, got)
	}
}

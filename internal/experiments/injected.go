package experiments

import (
	"fmt"

	"exterminator/internal/engine"
	"exterminator/internal/inject"
	"exterminator/internal/mutator"
	"exterminator/internal/stats"
	"exterminator/internal/workloads"
)

// ---------------------------------------------------------------------
// §7.2, injected buffer overflows (iterative mode)
// ---------------------------------------------------------------------

// OverflowTrial is one injected overflow experiment.
type OverflowTrial struct {
	Size      int
	Seed      uint64
	Detected  bool
	Corrected bool
	Images    int // total heap images used (paper: 3 in every case)
	Pad       uint32
}

// OverflowResult reproduces the injected-overflow table.
type OverflowResult struct {
	Trials []OverflowTrial
}

// Name implements Result.
func (*OverflowResult) Name() string { return "overflow" }

// Rows implements Result.
func (r *OverflowResult) Rows() []string {
	out := []string{fmt.Sprintf("%-6s %-8s %-9s %-9s %-7s %-5s", "size", "seed", "detected", "corrected", "images", "pad")}
	byImages := map[int][]float64{}
	for _, t := range r.Trials {
		out = append(out, fmt.Sprintf("%-6d %-8d %-9v %-9v %-7d %-5d", t.Size, t.Seed, t.Detected, t.Corrected, t.Images, t.Pad))
		byImages[t.Size] = append(byImages[t.Size], float64(t.Images))
	}
	for _, size := range []int{4, 20, 36} {
		if xs := byImages[size]; len(xs) > 0 {
			out = append(out, row("size %d: mean images %.1f (paper: 3 in every case)", size, stats.Mean(xs)))
		}
	}
	return out
}

// InjectedOverflows runs `trials` experiments per overflow size (the
// paper: 10 each of 4, 20, 36 bytes) in iterative mode.
func InjectedOverflows(trials int, seed uint64) *OverflowResult {
	prog, _ := workloads.ByName("espresso", 1)
	res := &OverflowResult{}
	for _, size := range []int{4, 20, 36} {
		for i := 0; i < trials; i++ {
			trialSeed := seed + uint64(size*1000+i)
			hookFor := func() mutator.Hook {
				return inject.New(inject.Plan{
					Kind: inject.Overflow, TriggerAlloc: 400 + uint64(i)*180,
					Size: size, Seed: trialSeed,
				})
			}
			ir := runSession(prog, engine.ModeIterative, trialSeed*31, engine.WithHook(hookFor)).Iterative
			t := OverflowTrial{Size: size, Seed: trialSeed, Detected: !ir.CleanAtStart, Corrected: ir.Corrected}
			for _, round := range ir.Rounds {
				t.Images += round.Images
			}
			for _, pad := range ir.Patches.Pads {
				if pad > t.Pad {
					t.Pad = pad
				}
			}
			res.Trials = append(res.Trials, t)
		}
	}
	return res
}

// CorrectionRate summarizes how many detected trials were corrected.
func (r *OverflowResult) CorrectionRate() (detected, corrected int) {
	for _, t := range r.Trials {
		if t.Detected {
			detected++
			if t.Corrected {
				corrected++
			}
		}
	}
	return
}

// ---------------------------------------------------------------------
// §7.2, injected dangling pointers (iterative mode)
// ---------------------------------------------------------------------

// DanglingIterResult reproduces the iterative dangling experiment: some
// faults are isolated (dangling writes), some only read the canary and
// abort (cannot be isolated), some cascade.
type DanglingIterResult struct {
	Trials    int
	Corrected int // isolated and fixed (paper: 4/10)
	GaveUp    int // read-only or cascaded (paper: 4/10 + 2/10)
	Benign    int // fault never manifested
}

// Name implements Result.
func (*DanglingIterResult) Name() string { return "dangling-iter" }

// Rows implements Result.
func (r *DanglingIterResult) Rows() []string {
	return []string{
		row("trials:    %d", r.Trials),
		row("corrected: %d (paper: 4/10)", r.Corrected),
		row("gave up:   %d (paper: 4/10 read-only aborts + 2/10 cascades)", r.GaveUp),
		row("benign:    %d", r.Benign),
	}
}

// InjectedDanglingIterative runs `trials` distinct dangling faults,
// searching — per the paper's methodology — for injector seeds whose
// faults actually trigger errors before measuring isolation.
func InjectedDanglingIterative(trials int, seed uint64) *DanglingIterResult {
	prog, _ := workloads.ByName("espresso", 1)
	res := &DanglingIterResult{Trials: trials}
	found := 0
	for s := uint64(0); found < trials && s < uint64(trials)*15; s++ {
		plan := inject.Plan{Kind: inject.Dangling, TriggerAlloc: 300 + (s%12)*190, Seed: seed + s*13}
		if !planTriggersIterative(prog, plan) {
			continue
		}
		found++
		hookFor := func() mutator.Hook { return inject.New(plan) }
		ir := runSession(prog, engine.ModeIterative, seed+s*311, engine.WithHook(hookFor)).Iterative
		switch {
		case ir.Corrected:
			res.Corrected++
		case ir.CleanAtStart:
			res.Benign++
		default:
			res.GaveUp++
		}
	}
	res.Trials = found
	return res
}

// planTriggersIterative probes a fault under the iterative-mode heap
// configuration (canaries always filled).
func planTriggersIterative(prog mutator.Program, plan inject.Plan) bool {
	out, clean := engine.Verify(prog, nil, inject.New(plan), nil, 0xABCD, 0x9106)
	return out.Bad() || !clean
}

// ---------------------------------------------------------------------
// §7.2, injected dangling pointers (cumulative mode)
// ---------------------------------------------------------------------

// DanglingCumTrial is one cumulative-mode dangling isolation.
type DanglingCumTrial struct {
	Identified bool
	Runs       int
	Failures   int
}

// DanglingCumResult reproduces the cumulative dangling experiment
// (paper: all 10 isolated; 22–30 runs; ~15 failures each).
type DanglingCumResult struct {
	Trials []DanglingCumTrial
}

// Name implements Result.
func (*DanglingCumResult) Name() string { return "dangling-cum" }

// Rows implements Result.
func (r *DanglingCumResult) Rows() []string {
	out := []string{fmt.Sprintf("%-6s %-11s %-6s %-9s", "trial", "identified", "runs", "failures")}
	var runs, fails []float64
	identified := 0
	for i, t := range r.Trials {
		out = append(out, fmt.Sprintf("%-6d %-11v %-6d %-9d", i+1, t.Identified, t.Runs, t.Failures))
		if t.Identified {
			identified++
			runs = append(runs, float64(t.Runs))
			fails = append(fails, float64(t.Failures))
		}
	}
	out = append(out,
		row("identified %d/%d (paper: 10/10)", identified, len(r.Trials)),
		row("mean runs %.1f (paper: 22–30, up to 34)", stats.Mean(runs)),
		row("mean failures %.1f (paper: ~15, up to 18)", stats.Mean(fails)))
	return out
}

// InjectedDanglingCumulative runs `trials` distinct dangling faults in
// cumulative mode, searching (per the paper's methodology) for injector
// seeds whose faults actually trigger errors.
func InjectedDanglingCumulative(trials int, seed uint64) *DanglingCumResult {
	prog, _ := workloads.ByName("espresso", 1)
	res := &DanglingCumResult{}
	found := 0
	for s := uint64(1); found < trials && s < uint64(trials)*12; s++ {
		plan := inject.Plan{Kind: inject.Dangling, TriggerAlloc: 2100 + (s%5)*80, Seed: seed + s}
		if !planFails(prog, plan) {
			continue
		}
		found++
		hook := func(run int) mutator.Hook { return inject.New(plan) }
		cr := runSession(prog, engine.ModeCumulative, seed+s*104729, engine.WithMaxRuns(80), engine.WithRunHook(hook)).Cumulative
		res.Trials = append(res.Trials, DanglingCumTrial{
			Identified: cr.Identified && len(cr.Findings.Danglings) > 0,
			Runs:       cr.Runs,
			Failures:   cr.Failures,
		})
	}
	return res
}

// planFails reports whether the fault triggers program failure under the
// *cumulative-mode* configuration (p = 1/2) often enough for the §5.2
// Bernoulli correlation to have signal: the paper searches injector seeds
// "until it triggers an error" in the configuration under test.
func planFails(prog mutator.Program, plan inject.Plan) bool {
	failures := 0
	const probes = 6
	for heapSeed := uint64(1); heapSeed <= probes; heapSeed++ {
		ex := cumulativeProbe(prog, plan, heapSeed*1299709)
		if ex.Bad() {
			failures++
		}
	}
	return failures >= 2
}

// cumulativeProbe runs one execution under CumulativeConfig.
func cumulativeProbe(prog mutator.Program, plan inject.Plan, heapSeed uint64) *mutator.Outcome {
	out, _ := engine.VerifyCumulative(prog, nil, inject.New(plan), heapSeed, 0x9106)
	return out
}

// ---------------------------------------------------------------------
// Backward overflows (underflows) — the §2.1 extension
// ---------------------------------------------------------------------

// UnderflowResult measures the backward-overflow extension: injected
// underflows isolated to front-pad patches.
type UnderflowResult struct {
	Trials    int
	Detected  int
	Corrected int
	FrontPads []uint32
}

// Name implements Result.
func (*UnderflowResult) Name() string { return "underflow" }

// Rows implements Result.
func (r *UnderflowResult) Rows() []string {
	return []string{
		row("trials:    %d injected underflows (the paper leaves backward overflows as future work)", r.Trials),
		row("detected:  %d", r.Detected),
		row("corrected: %d (via front-pad patches %v)", r.Corrected, r.FrontPads),
	}
}

// InjectedUnderflows runs the §2.1-extension experiment.
func InjectedUnderflows(trials int, seed uint64) *UnderflowResult {
	prog, _ := workloads.ByName("espresso", 1)
	res := &UnderflowResult{Trials: trials}
	for i := 0; i < trials; i++ {
		hookFor := func() mutator.Hook {
			return inject.New(inject.Plan{
				Kind: inject.Underflow, TriggerAlloc: 400 + uint64(i)*170,
				Size: 12, Seed: seed + uint64(i)*7,
			})
		}
		ir := runSession(prog, engine.ModeIterative, seed+uint64(i)*15485863, engine.WithHook(hookFor)).Iterative
		if !ir.CleanAtStart {
			res.Detected++
		}
		if ir.Corrected {
			res.Corrected++
			for _, fp := range ir.Patches.FrontPads {
				res.FrontPads = append(res.FrontPads, fp)
			}
		}
	}
	return res
}

package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"exterminator/internal/inject"
	"exterminator/internal/patch"
)

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpecJSON `json:"end_to_end"`
	PerLayer []metricSpecJSON `json:"per_layer"`
}

type metricSpecJSON struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// sameMetrics reports the first difference between what a run printed
// and what BENCHMARK.json declares.
func sameMetrics(t *testing.T, label string, got map[string]metricValue, want []metricSpecJSON) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json declares %d", label, len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s declared but not printed", label, m.Name)
			continue
		}
		if v.Unit != m.Unit {
			t.Errorf("%s: metric %s printed in %q, declared in %q", label, m.Name, v.Unit, m.Unit)
		}
	}
}

// TestWorkloadsPrintDeclaredMetrics runs every workload briefly, untraced
// and traced, and on two seeds, and checks that the printed metrics are
// exactly the ones BENCHMARK.json declares.
func TestWorkloadsPrintDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(runners) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(runners))
	}
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			seed := uint64(3)
			if traced {
				seed = 4
			}
			cfg := &runConfig{workload: w.Name, seed: seed, seconds: time.Second, traced: traced, spansDir: t.TempDir()}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d", w.Name, traced, res.Correct, res.Attempted)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			sameMetrics(t, w.Name, res.Metrics, want)
			if traced {
				files, _ := filepath.Glob(filepath.Join(cfg.spansDir, "*.json"))
				if len(files) != 1 {
					t.Errorf("%s: traced run wrote %d span files", w.Name, len(files))
				}
			}
		}
	}
}

// TestCumulativeSeedReproduces checks that one seed reproduces the
// cumulative workload's deterministic metrics exactly.
func TestCumulativeSeedReproduces(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the cumulative workload twice")
	}
	var got [2]*result
	for i := range got {
		res, err := run(&runConfig{workload: "cumulative-fault", seed: 5, seconds: time.Second}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = res
	}
	for _, m := range []string{"primary", "secondary", "ok_share"} {
		if a, b := got[0].Metrics[m].Value, got[1].Metrics[m].Value; a != b {
			t.Errorf("%s: %v then %v on the same seed", m, a, b)
		}
	}
	if got[0].Failed != got[1].Failed {
		t.Errorf("failed: %d then %d on the same seed", got[0].Failed, got[1].Failed)
	}
}

// TestFig7CheckFires feeds the Fig 7 output check a wrong reference.
func TestFig7CheckFires(t *testing.T) {
	in := fig7Setup(1)
	in.rows = []fig7Row{in.rows[0], in.rows[len(in.rows)-1]}
	in.rows[0].want = append([]byte("tampered "), in.rows[0].want...)
	o := newOutcome()
	fig7Measure(&runConfig{seconds: 0}, in, o)
	if len(o.checks) == 0 || o.failed == 0 {
		t.Fatalf("a wrong reference output passed: checks %v failed %d", o.checks, o.failed)
	}
}

// TestCumulativeCheckFires verifies a triggering fault with no patches:
// the verification check must report the run as not clean.
func TestCumulativeCheckFires(t *testing.T) {
	prog := espresso()
	in, err := cumSetup(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range in.sessions {
		if s.plan.Kind != inject.Dangling {
			continue
		}
		r, err := engineSession(prog, s, in.progSeed, false)
		if err != nil {
			t.Fatal(err)
		}
		if !r.identified || !r.clean {
			continue
		}
		if verifyPatches(prog, s, patch.New(), in.progSeed) {
			continue // this heap happened not to expose the fault
		}
		return
	}
	t.Fatal("no unpatched fault failed verification")
}

// TestCumulativeCapCountsAsUnpatched runs sessions to the cap and checks
// that the score counts each at the cap, so that a fault that stops
// converging makes runs_to_patch worse.
func TestCumulativeCapCountsAsUnpatched(t *testing.T) {
	prog := espresso()
	in, err := cumSetup(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range in.sessions {
		if s.plan.Kind != inject.Overflow {
			continue
		}
		r, err := engineSession(prog, s, in.progSeed, false)
		if err != nil {
			t.Fatal(err)
		}
		if r.identified {
			continue
		}
		if r.runs != cumMaxRuns {
			t.Fatalf("an unidentified session stopped after %d runs, the cap is %d", r.runs, cumMaxRuns)
		}
		patched := cumResult{runs: 20, failures: 4, identified: true, clean: true}
		wrong := cumResult{runs: 10, failures: 2, identified: true}
		sc := scoreSessions([]cumResult{patched, r, wrong})
		if want := float64(20+2*cumMaxRuns) / 3; sc.runsToPatch != want {
			t.Errorf("runs to patch %v, want %v", sc.runsToPatch, want)
		}
		if want := float64(4+r.failures+2) / 3; sc.failuresPerSession != want {
			t.Errorf("failures per session %v, want %v", sc.failuresPerSession, want)
		}
		if sc.patched != 1 || len(sc.wrong) != 1 || sc.wrong[0] != 2 {
			t.Errorf("patched %d, wrong %v; want 1 and [2]", sc.patched, sc.wrong)
		}
		return
	}
	t.Fatal("no overflow session reached the cap")
}

// TestFleetCheckFires checks a short, synchronously driven cluster: its
// end state passes, then a tampered acknowledgement count and a bug that
// was never uploaded must each be caught.
func TestFleetCheckFires(t *testing.T) {
	in, err := genFleet(1, 4*fleetBugEvery)
	if err != nil {
		t.Fatal(err)
	}
	c, err := startCluster(in)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	ctx := context.Background()
	for i, s := range in.sessions[:len(in.sessions)-1] { // the last bug is never uploaded
		if _, err := c.upload(ctx, i, s.snap, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	o := newOutcome()
	c.verify(ctx, o, in)
	if len(o.checks) != 1 {
		t.Fatalf("want exactly the missing bug caught, got %v", o.checks)
	}
	c.ackedRuns++
	o = newOutcome()
	c.verify(ctx, o, in)
	if len(o.checks) != 2 {
		t.Fatalf("want the run count and the missing bug caught, got %v", o.checks)
	}
}

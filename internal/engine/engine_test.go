package engine

import (
	"bytes"
	"context"
	"errors"
	"os"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/inject"
	"exterminator/internal/mutator"
	"exterminator/internal/patch"
	"exterminator/internal/site"
	"exterminator/internal/workloads"
)

func loadHistory(path string) (*cumulative.History, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return cumulative.DecodeHistory(f)
}

func espresso() mutator.Program {
	p, _ := workloads.ByName("espresso", 1)
	return p
}

func overflowHook(size int) HookFactory {
	return func() mutator.Hook {
		return inject.New(inject.Plan{Kind: inject.Overflow, TriggerAlloc: 700, Size: size, Seed: 17})
	}
}

func TestNewValidatesOptions(t *testing.T) {
	if _, err := New(Batch(espresso()), WithMode(Mode(99))); err == nil {
		t.Fatal("bad mode accepted")
	}
	if _, err := New(Batch(espresso()), WithReplicas(-1)); err == nil {
		t.Fatal("negative replicas accepted")
	}
	if _, err := New(Workload{}, WithMode(ModeIterative)); err == nil {
		t.Fatal("iterative session without a program accepted")
	}
	if _, err := New(Batch(espresso()), WithMode(ModeServe)); err == nil {
		t.Fatal("serve session without a stream accepted")
	}
	if _, err := New(Batch(espresso()), WithFillProb(1.5)); err == nil {
		t.Fatal("out-of-range fill probability accepted")
	}
	if _, err := New(Batch(espresso()), WithObserver(nil)); err == nil {
		t.Fatal("nil observer accepted")
	}
}

// TestSeedZeroHonored: WithSeeds must distinguish "unset" (historical
// defaults apply) from an explicit zero, which is honored as given.
func TestSeedZeroHonored(t *testing.T) {
	var def, zero config
	for _, o := range []Option{WithMode(ModeIterative)} {
		if err := o(&def); err != nil {
			t.Fatal(err)
		}
	}
	def.fill()
	if def.heapSeed != 0x5eed || def.progSeed != 0x9106 {
		t.Fatalf("defaults not applied when seeds unset: %x/%x", def.heapSeed, def.progSeed)
	}
	for _, o := range []Option{WithMode(ModeIterative), WithSeeds(0, 0)} {
		if err := o(&zero); err != nil {
			t.Fatal(err)
		}
	}
	zero.fill()
	if zero.heapSeed != 0 || zero.progSeed != 0 {
		t.Fatalf("explicit zero seeds remapped to %x/%x", zero.heapSeed, zero.progSeed)
	}
}

func TestUnifiedResultCleanIterative(t *testing.T) {
	sess, err := New(Batch(espresso()), WithMode(ModeIterative), WithSeeds(1, 0x9106))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeIterative || res.Workload != "espresso" {
		t.Fatalf("header: %s", res)
	}
	if res.Detected || res.Corrected || res.Canceled {
		t.Fatalf("clean run header wrong: %s", res)
	}
	if res.Iterative == nil || !res.Iterative.CleanAtStart {
		t.Fatalf("missing or wrong iterative detail: %+v", res.Iterative)
	}
	if res.Replicated != nil || res.Cumulative != nil || res.Serve != nil {
		t.Fatal("more than one mode detail set")
	}
	if res.Executions < 1 {
		t.Fatalf("executions = %d", res.Executions)
	}
	if res.Derived.Len() != 0 {
		t.Fatalf("clean run derived patches: %s", res.Derived)
	}
}

func TestIterativeCorrectsThroughEngine(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		sess, err := New(Batch(espresso()),
			WithMode(ModeIterative),
			WithSeeds(120+seed*977, 0x9106),
			WithHook(overflowHook(20)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Corrected {
			continue
		}
		if !res.Detected {
			t.Fatalf("corrected without detection: %s", res)
		}
		if res.Derived.Len() == 0 {
			t.Fatalf("corrected but no derived patches: %s", res)
		}
		if _, clean := Verify(espresso(), nil, overflowHook(20)(), res.Patches, 0xFEED+seed, 0x9106); !clean {
			t.Fatal("patched program still misbehaves")
		}
		return
	}
	t.Fatal("overflow never corrected across 5 seeds")
}

// TestSessionRerunnable: a session may be driven multiple times; each
// Run starts from the configured state.
func TestSessionRerunnable(t *testing.T) {
	sess, err := New(Batch(espresso()), WithMode(ModeCumulative), WithSeeds(3, 0x9106), WithMaxRuns(2))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cumulative.Runs != 2 || r2.Cumulative.Runs != 2 {
		t.Fatalf("runs: %d then %d, want 2 and 2", r1.Cumulative.Runs, r2.Cumulative.Runs)
	}
	if r1.Executions != r2.Executions {
		t.Fatalf("execution counter leaked across runs: %d then %d", r1.Executions, r2.Executions)
	}
}

// --- sinks -------------------------------------------------------------

// fakeSink records commits and optionally serves patches.
type fakeSink struct {
	patches   *patch.Set
	fetchErr  error
	commitErr error
	committed []*Evidence
}

func (f *fakeSink) SinkName() string { return "fake" }
func (f *fakeSink) Commit(_ context.Context, ev *Evidence) error {
	if f.commitErr != nil {
		return f.commitErr
	}
	f.committed = append(f.committed, ev)
	return nil
}
func (f *fakeSink) FetchPatches(context.Context) (*patch.Set, error) {
	return f.patches, f.fetchErr
}

func TestSinkFetchMergesAndCommitReceivesEvidence(t *testing.T) {
	pre := patch.New()
	pre.AddPad(site.ID(0x42), 64)
	sink := &fakeSink{patches: pre}

	sess, err := New(Batch(espresso()),
		WithMode(ModeCumulative),
		WithSeeds(11, 0x9106),
		WithMaxRuns(3),
		WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SinkErrors) != 0 {
		t.Fatalf("sink errors: %v", res.SinkErrors)
	}
	// Fetched patches are in the working set but NOT in the derived set.
	if res.Patches.Pad(site.ID(0x42)) != 64 {
		t.Fatal("fetched patch missing from working set")
	}
	if res.Derived.Pad(site.ID(0x42)) != 0 {
		t.Fatal("fetched patch re-reported as derived")
	}
	if len(sink.committed) != 1 {
		t.Fatalf("commits: %d", len(sink.committed))
	}
	ev := sink.committed[0]
	if ev.History == nil || ev.History.Runs != 3 {
		t.Fatalf("evidence history: %+v", ev.History)
	}
	if ev.Mode != ModeCumulative || ev.Workload != "espresso" {
		t.Fatalf("evidence header: %+v", ev)
	}
}

func TestSinkErrorsAreSoft(t *testing.T) {
	bad := &fakeSink{fetchErr: errors.New("fleet down"), commitErr: errors.New("still down")}
	sess, err := New(Batch(espresso()),
		WithMode(ModeCumulative), WithSeeds(12, 0x9106), WithMaxRuns(2), WithSink(bad))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cumulative == nil || res.Cumulative.Runs != 2 {
		t.Fatalf("run did not complete despite soft sink errors: %+v", res.Cumulative)
	}
	if len(res.SinkErrors) != 2 {
		t.Fatalf("want fetch+commit errors recorded, got %v", res.SinkErrors)
	}
}

func TestHistoryFileSinkRoundTrip(t *testing.T) {
	path := t.TempDir() + "/hist.xth"
	sess, err := New(Batch(espresso()),
		WithMode(ModeCumulative), WithSeeds(13, 0x9106), WithMaxRuns(2),
		WithSink(HistoryFile(path)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SinkErrors) != 0 {
		t.Fatalf("sink errors: %v", res.SinkErrors)
	}
	// Resume from the written history: the run counter carries over.
	resumed, err := loadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Runs != 2 {
		t.Fatalf("persisted history has %d runs, want 2", resumed.Runs)
	}
	sess2, err := New(Batch(espresso()),
		WithMode(ModeCumulative), WithSeeds(13, 0x9106), WithMaxRuns(2),
		WithHistory(resumed))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sess2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cumulative.Runs != 4 {
		t.Fatalf("resumed session ended at %d runs, want 4", res2.Cumulative.Runs)
	}
}

func TestPatchFileRoundTrip(t *testing.T) {
	p := patch.New()
	p.AddPad(site.ID(0xAA), 6)
	p.AddDeferral(site.Pair{Alloc: 1, Free: 2}, 33)
	path := t.TempDir() + "/app.patches"
	if err := PatchFile(path).Commit(context.Background(), &Evidence{Result: &Result{Patches: p}}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := patch.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(p) {
		t.Fatal("round trip mismatch")
	}
	var buf bytes.Buffer
	if err := got.EncodeText(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty text encoding")
	}
}

func TestSavePatchesBadPath(t *testing.T) {
	ev := &Evidence{Result: &Result{Patches: patch.New()}}
	if err := PatchFile(string(os.PathSeparator)+"no/such/dir/x").Commit(context.Background(), ev); err == nil {
		t.Fatal("save to bad path succeeded")
	}
}

// --- parallel cumulative ----------------------------------------------

// TestParallelCumulativeMatchesSerialEvidence: with no identification,
// serial and parallel sessions record the same run population (same
// seeds), so the history counters must agree.
func TestParallelCumulativeMatchesSerialEvidence(t *testing.T) {
	run := func(parallelism int) *CumulativeResult {
		sess, err := New(Batch(espresso()),
			WithMode(ModeCumulative),
			WithSeeds(21, 0x9106),
			WithMaxRuns(8),
			WithParallelism(parallelism))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Cumulative
	}
	serial, par := run(1), run(4)
	if serial.Runs != par.Runs {
		t.Fatalf("runs: serial %d, parallel %d", serial.Runs, par.Runs)
	}
	if serial.Failures != par.Failures {
		t.Fatalf("failures: serial %d, parallel %d", serial.Failures, par.Failures)
	}
	if serial.History.Sites() != par.History.Sites() {
		t.Fatalf("sites: serial %d, parallel %d", serial.History.Sites(), par.History.Sites())
	}
	if serial.Identified != par.Identified {
		t.Fatalf("identified: serial %v, parallel %v", serial.Identified, par.Identified)
	}
}

// TestParallelCumulativeIdentifies: the worker pool must still converge
// on an injected dangling error (§7.2 methodology: find an injector
// seed whose fault actually fails, then isolate it cumulatively).
func TestParallelCumulativeIdentifies(t *testing.T) {
	plan, ok := findFailingDanglingPlan(2300, 20)
	if !ok {
		t.Fatal("no injector seed triggers a failure")
	}
	sess, err := New(Batch(espresso()),
		WithMode(ModeCumulative),
		WithSeeds(7, 0x9106),
		WithMaxRuns(80),
		WithParallelism(4),
		WithRunHook(func(int) mutator.Hook { return inject.New(plan) }))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cumulative.Identified {
		t.Fatalf("parallel cumulative never identified the dangling error: %s", res.Cumulative.History)
	}
	if len(res.Cumulative.Findings.Danglings) == 0 {
		t.Fatalf("findings: %+v", res.Cumulative.Findings)
	}
	if !res.Detected || !res.Corrected {
		t.Fatalf("header: %s", res)
	}
	t.Logf("parallel(4) identified after %d runs (%d failures)", res.Cumulative.Runs, res.Cumulative.Failures)
}

// findFailingDanglingPlan searches injector seeds for a dangling fault
// that actually makes espresso fail.
func findFailingDanglingPlan(trigger uint64, maxSeeds uint64) (inject.Plan, bool) {
	for s := uint64(1); s <= maxSeeds; s++ {
		plan := inject.Plan{Kind: inject.Dangling, TriggerAlloc: trigger, Seed: s}
		for heapSeed := uint64(1); heapSeed <= 3; heapSeed++ {
			out, _ := Verify(espresso(), nil, inject.New(plan), nil, heapSeed*1299709, 0x9106)
			if out.Bad() {
				return plan, true
			}
		}
	}
	return inject.Plan{}, false
}

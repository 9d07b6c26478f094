package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exterminator/internal/cumulative"
	"exterminator/internal/engine"
	"exterminator/internal/fleet"
	"exterminator/internal/mutator"
	"exterminator/internal/patch"
	"exterminator/internal/report"
	"exterminator/internal/site"
	"exterminator/internal/testutil"
)

// Single-fleetd sink tests: a fleetd is a one-node ring, so
// NewSink(url, id, url) is the sink `exterminate -fleet` uploads through.

// installBatch is one installation's upload: the guilty overflow site
// (Y=1 at small X), the guilty dangling pair, pad and deferral hints,
// and chance-consistent innocents.
func installBatch() *cumulative.Snapshot {
	s := &cumulative.Snapshot{C: 4, P: 0.5, Runs: 3, FailedRuns: 1, CorruptRuns: 1}
	for i := 0; i < 10; i++ {
		s.Sites = append(s.Sites, site.ID(0x100+uint32(i)))
	}
	s.Sites = append(s.Sites, guiltySite)
	s.Overflow = append(s.Overflow, cumulative.SiteObservations{
		Site: guiltySite,
		Obs:  []cumulative.Observation{{X: 0.1, Y: true}},
	})
	for i := 0; i < 4; i++ {
		s.Overflow = append(s.Overflow, cumulative.SiteObservations{
			Site: site.ID(0x100 + uint32(i)),
			Obs:  []cumulative.Observation{{X: 0.5, Y: i%2 == 0}},
		})
	}
	s.Dangling = append(s.Dangling, cumulative.PairObservations{
		Alloc: guiltyAlloc, Free: guiltyFree,
		Obs: []cumulative.Observation{{X: 0.5, Y: true}},
	})
	s.PadHints = append(s.PadHints, cumulative.PadHint{Site: guiltySite, Pad: 9})
	s.DeferralHints = append(s.DeferralHints, cumulative.DeferralHint{
		Alloc: guiltyAlloc, Free: guiltyFree, Deferral: 30,
	})
	return s
}

// overflowBatch is a two-run batch with one overflow observation and a
// pad hint at id.
func overflowBatch(id site.ID) *cumulative.Snapshot {
	return &cumulative.Snapshot{C: 4, P: 0.5, Runs: 2, CorruptRuns: 1,
		Sites: []site.ID{id},
		Overflow: []cumulative.SiteObservations{
			{Site: id, Obs: []cumulative.Observation{{X: 0.2, Y: true}}},
		},
		PadHints: []cumulative.PadHint{{Site: id, Pad: 8}},
	}
}

// runsBatch is a batch of runs with one innocent observation per site.
func runsBatch(runs int, sites ...site.ID) *cumulative.Snapshot {
	s := &cumulative.Snapshot{C: 4, P: 0.5, Runs: runs}
	for _, id := range sites {
		s.Sites = append(s.Sites, id)
		s.Overflow = append(s.Overflow, cumulative.SiteObservations{
			Site: id,
			Obs:  []cumulative.Observation{{X: 0.25, Y: false}},
		})
	}
	return s
}

// fleetdSink starts a fleetd behind h (nil = the server's own handler)
// and returns a single-fleetd sink for it.
func fleetdSink(t *testing.T, srv *fleet.Server, h http.Handler, id string) (*Sink, string) {
	t.Helper()
	if h == nil {
		h = srv.Handler()
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	sink, err := NewSink(ts.URL, id, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return sink, ts.URL
}

// retainedReports counts the reports a fleetd retains.
func retainedReports(t *testing.T, url string) int {
	t.Helper()
	var reps []*report.Report
	getJSON(t, url+"/v1/reports", &reps)
	return len(reps)
}

// TestSinkFetchAndCommit drives a fleetd through the engine sink
// contract: FetchPatches downloads the fleet's current set, Commit
// uploads observation history and reports newly derived patches.
func TestSinkFetchAndCommit(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv := fleet.NewServer(fleet.ServerOptions{CorrectEvery: 0})
	sink, url := fleetdSink(t, srv, nil, "sink-test")

	// Seed the fleet's patch log so the fetch has something to return.
	seeded := patch.New()
	seeded.AddPad(site.ID(0xF00), 48)
	srv.PatchLog().Fold(seeded)

	ctx := context.Background()
	ps, err := sink.FetchPatches(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Pad(site.ID(0xF00)) != 48 {
		t.Fatalf("fetched set missing seeded pad: %s", ps)
	}
	if entries, version := sink.Fetched(); entries != 1 || version == 0 {
		t.Fatalf("fetch bookkeeping: entries=%d version=%d", entries, version)
	}

	// Commit: a cumulative history plus one newly derived entry.
	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	hist.Absorb(installBatch())
	derived := patch.New()
	derived.AddPad(site.ID(0xD0D0), 16)
	ev := &engine.Evidence{
		Workload: "sink-test",
		Mode:     engine.ModeCumulative,
		History:  hist,
		Derived:  derived,
	}
	if err := sink.Commit(ctx, ev); err != nil {
		t.Fatal(err)
	}
	if reply := sink.LastIngest(); reply == nil || reply.Runs != int64(hist.Runs) {
		t.Fatalf("ingest reply: %+v", sink.LastIngest())
	}
	if got := srv.Store().Runs(); got != int64(hist.Runs) {
		t.Fatalf("server runs: %d, want %d", got, hist.Runs)
	}
	if n := retainedReports(t, url); n != 1 {
		t.Fatalf("derived-patch report not uploaded: %d retained", n)
	}
}

// TestSinkCommitSkipsEmptyEvidence: nothing is uploaded for a session
// with no history and no derived patches (e.g. a clean iterative run).
func TestSinkCommitSkipsEmptyEvidence(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv := fleet.NewServer(fleet.ServerOptions{CorrectEvery: -1})
	sink, url := fleetdSink(t, srv, nil, "quiet")

	ev := &engine.Evidence{Workload: "quiet", Mode: engine.ModeIterative, Derived: patch.New()}
	if err := sink.Commit(context.Background(), ev); err != nil {
		t.Fatal(err)
	}
	if srv.Store().Batches() != 0 || retainedReports(t, url) != 0 {
		t.Fatal("empty evidence produced uploads")
	}
}

// flushOnRun is a clean workload that fires exactly one deterministic
// mid-run flush: on its trigger run it sends on the session's flush
// signal (engine.WithFlushSignal) and blocks until the flush is
// acknowledged. "Evidence visible mid-run" then holds by construction
// instead of depending on a wall-clock ticker winning a race against
// the workload's pacing.
type flushOnRun struct {
	runs    atomic.Int64
	trigger int64
	fire    chan<- time.Time
	acked   <-chan struct{}
}

func (p *flushOnRun) Name() string { return "paced" }
func (p *flushOnRun) Run(e *mutator.Env) {
	ptr := e.Malloc(16)
	if p.runs.Add(1) == p.trigger {
		p.fire <- time.Time{}
		<-p.acked
	}
	e.Free(ptr)
}

// TestSessionStreamsToLiveFleetMidRun is the live-streaming acceptance
// test: a cumulative session with a flush trigger contributes evidence
// to a running fleetd while it is still executing — observable through
// /v1/status before the session exits — and the post-run commit adds
// exactly the remainder, never double-counting what was flushed.
func TestSessionStreamsToLiveFleetMidRun(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv := fleet.NewServer(fleet.ServerOptions{CorrectEvery: -1})
	sink, url := fleetdSink(t, srv, nil, "live")
	client := fleet.NewClient(url, "live")

	// The observer probes the server the moment the flush is
	// acknowledged: the session is mid-run (its trigger run is blocked
	// inside Run waiting for this ack), yet the fleet already holds
	// evidence.
	fire := make(chan time.Time)
	acked := make(chan struct{}, 1)
	var (
		mu         sync.Mutex
		midRunRuns int64
		midRunSeen bool
	)
	obs := engine.ObserverFunc(func(ev engine.Event) {
		if _, ok := ev.(engine.EvidenceFlushed); !ok {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if midRunSeen {
			return
		}
		st, err := client.Status()
		if err != nil {
			t.Errorf("status during flush: %v", err)
			return
		}
		midRunRuns, midRunSeen = st.Runs, true
		acked <- struct{}{}
	})

	const trigger = 5
	prog := &flushOnRun{trigger: trigger, fire: fire, acked: acked}
	sess, err := engine.New(engine.Batch(prog),
		engine.WithMode(engine.ModeCumulative),
		engine.WithSeeds(1, 0x9106),
		engine.WithMaxRuns(10),
		engine.WithFlushSignal(fire),
		engine.WithSink(sink),
		engine.WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, se := range res.SinkErrors {
		t.Fatalf("sink error: %v", se)
	}

	if !midRunSeen {
		t.Fatal("no mid-run flush reached the fleet")
	}
	if midRunRuns != trigger-1 {
		t.Fatalf("fleet showed %d runs at the mid-run flush, want the %d folded before the trigger run",
			midRunRuns, trigger-1)
	}
	total := int64(res.Cumulative.History.Runs)
	if midRunRuns >= total {
		t.Fatalf("first flush already showed all %d runs — nothing was streamed mid-run", total)
	}
	// No double count at session end: the fleet's total equals the
	// session's, even though evidence arrived across a flush plus a
	// final commit.
	if got := srv.Store().Runs(); got != total {
		t.Fatalf("fleet holds %d runs after session end, session recorded %d", got, total)
	}
	// Flushes are counted where they land: the mid-run flush and the
	// final commit are two batches at the fleetd.
	if got := srv.Store().Batches(); got < 2 {
		t.Fatalf("fleet absorbed %d batches: the sink flushed nothing mid-run", got)
	}
}

// lossyAck wraps a handler: while lossy, requests are fully processed
// (the server absorbs the batch) but the client receives a 500 — the
// lost-ack failure mode exactly-once ingest exists for.
type lossyAck struct {
	mu    sync.Mutex
	lossy bool
	inner http.Handler
}

func (l *lossyAck) set(lossy bool) {
	l.mu.Lock()
	l.lossy = lossy
	l.mu.Unlock()
}

func (l *lossyAck) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	lossy := l.lossy
	l.mu.Unlock()
	if !lossy {
		l.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	l.inner.ServeHTTP(rec, r)
	http.Error(w, "ack lost", http.StatusInternalServerError)
}

// TestSinkExactlyOnceAfterLostAck: the sink's first upload is absorbed
// but the ack is lost; the retried commit re-sends the identical batch,
// the server dedups it, and the fleet counts the evidence exactly once.
func TestSinkExactlyOnceAfterLostAck(t *testing.T) {
	srv := fleet.NewServer(fleet.ServerOptions{CorrectEvery: -1})
	la := &lossyAck{inner: srv.Handler(), lossy: true}
	sink, _ := fleetdSink(t, srv, la, "lossy")
	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	hist.Absorb(runsBatch(4, 0x500, 0x501))
	ev := &engine.Evidence{History: hist}

	if err := sink.Commit(context.Background(), ev); err == nil {
		t.Fatal("commit with a lost ack must report the failure")
	}
	if got := srv.Store().Runs(); got != 4 {
		t.Fatalf("server should have absorbed the batch despite the lost ack: runs = %d", got)
	}
	// The watermark must NOT have advanced: the sink has no proof of
	// delivery, so the evidence stays pending.
	if d := hist.UploadDelta(); cumulative.DeltaEmpty(d) {
		t.Fatal("watermark advanced on an unacknowledged upload")
	}

	la.set(false)
	if err := sink.Commit(context.Background(), ev); err != nil {
		t.Fatalf("retry commit: %v", err)
	}
	if got := srv.Store().Runs(); got != 4 {
		t.Fatalf("lost-ack retry double-counted: runs = %d, want 4", got)
	}
	if got := srv.Store().Batches(); got != 1 {
		t.Fatalf("batches = %d, want 1 (retry deduped, not re-absorbed)", got)
	}
	if d := hist.UploadDelta(); !cumulative.DeltaEmpty(d) {
		t.Fatalf("watermark incomplete after acknowledged retry: %+v", d)
	}

	// New evidence after the recovery flows as a fresh batch.
	hist.Absorb(runsBatch(1, 0x502))
	if err := sink.Commit(context.Background(), ev); err != nil {
		t.Fatal(err)
	}
	if got := srv.Store().Runs(); got != 5 {
		t.Fatalf("follow-up delta lost: runs = %d, want 5", got)
	}
}

// TestSinkUploadsDeltaOnly is the -resume-history + -fleet dedup test at
// the sink level: committing the same history twice must not double the
// server's evidence.
func TestSinkUploadsDeltaOnly(t *testing.T) {
	srv := fleet.NewServer(fleet.ServerOptions{CorrectEvery: -1})
	sink, _ := fleetdSink(t, srv, nil, "dedup")

	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	hist.Absorb(overflowBatch(0x42))
	ev := &engine.Evidence{History: hist}
	if err := sink.Commit(context.Background(), ev); err != nil {
		t.Fatal(err)
	}
	if got := srv.Store().Runs(); got != 2 {
		t.Fatalf("first commit: runs = %d, want 2", got)
	}

	// Second commit with nothing new: nothing uploaded.
	if err := sink.Commit(context.Background(), ev); err != nil {
		t.Fatal(err)
	}
	if got := srv.Store().Runs(); got != 2 {
		t.Fatalf("re-commit double-counted: runs = %d, want 2", got)
	}
	if got := srv.Store().Batches(); got != 1 {
		t.Fatalf("re-commit sent a batch: %d", got)
	}

	// New evidence: only the delta goes up.
	hist.Absorb(overflowBatch(0x43))
	if err := sink.Commit(context.Background(), ev); err != nil {
		t.Fatal(err)
	}
	if got := srv.Store().Runs(); got != 4 {
		t.Fatalf("delta commit: runs = %d, want 4", got)
	}
}

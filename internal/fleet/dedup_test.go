package fleet

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/site"
)

// stampedBatch builds an upload with a content-addressed batch ID, the
// way a sink cuts one from a history at watermark position (0, 0).
func stampedBatch(client string, s *cumulative.Snapshot) *ObservationBatch {
	return &ObservationBatch{
		Client:   client,
		Snapshot: s,
		BatchID:  cumulative.BatchID(client, 0, 0, s),
	}
}

func smallSnapshot(runs int, sites ...site.ID) *cumulative.Snapshot {
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

// TestExactlyOnceIngest: re-sending a stamped batch (the lost-ack retry)
// is acknowledged as a duplicate and absorbed exactly once; an unstamped
// batch keeps the legacy at-least-once behavior.
func TestExactlyOnceIngest(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, "dup")

	batch := stampedBatch("dup", smallSnapshot(3, 0x100, 0x101))
	first, err := c.PushBatchContext(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if first.Duplicate {
		t.Fatal("first delivery acked as duplicate")
	}
	second, err := c.PushBatchContext(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Duplicate {
		t.Fatal("retry not recognized as duplicate")
	}
	if got := srv.Store().Runs(); got != 3 {
		t.Fatalf("retried batch double-counted: runs = %d, want 3", got)
	}
	if got := srv.Store().Batches(); got != 1 {
		t.Fatalf("retried batch absorbed twice: batches = %d, want 1", got)
	}

	// Legacy clients (no batch ID) are still at-least-once.
	plain := smallSnapshot(1, 0x102)
	for i := 0; i < 2; i++ {
		if _, err := c.PushSnapshot(plain); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Store().Runs(); got != 5 {
		t.Fatalf("unstamped batches should absorb every time: runs = %d, want 5", got)
	}
}

// TestDedupWindowBounded: the window retains only the configured number
// of IDs; a retry arriving after its ID aged out falls back to
// at-least-once (absorbed again) instead of growing server memory.
func TestDedupWindowBounded(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1, DedupWindow: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, "bounded")

	first := stampedBatch("bounded", smallSnapshot(1, 0x200))
	if _, err := c.PushBatchContext(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	// Push enough distinct batches to evict the first ID.
	for i := 0; i < 3; i++ {
		b := stampedBatch("bounded", smallSnapshot(1, site.ID(0x300+uint32(i))))
		if _, err := c.PushBatchContext(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	reply, err := c.PushBatchContext(context.Background(), first)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Duplicate {
		t.Fatal("evicted ID still deduped — window is not bounded")
	}
	if got := srv.Store().Runs(); got != 5 {
		t.Fatalf("runs = %d, want 5 (first batch absorbed twice after eviction)", got)
	}
}

// TestDedupSurvivesSnapshotRestore: the dedup window persists inside the
// fleet snapshot, so a batch absorbed before a restart and retried after
// it is still recognized — exactly-once survives crashes.
func TestDedupSurvivesSnapshotRestore(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, "restart")

	batch := stampedBatch("restart", smallSnapshot(2, 0x400, 0x401))
	if _, err := c.PushBatchContext(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "fleet.snap")
	if err := srv.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}

	restored := NewServer(ServerOptions{CorrectEvery: -1})
	if err := restored.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(restored.Handler())
	defer ts2.Close()
	c2 := NewClient(ts2.URL, "restart")
	reply, err := c2.PushBatchContext(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Duplicate {
		t.Fatal("dedup window lost across snapshot restore")
	}
	if got := restored.Store().Runs(); got != 2 {
		t.Fatalf("restored server double-counted the retry: runs = %d, want 2", got)
	}
}

package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/patch"
	"exterminator/internal/site"
)

// patchGet issues one request and returns the response with its body
// read.
func patchGet(t *testing.T, method, url string, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestPatchesEndpointConformance runs one GET /v1/patches contract
// against all three serving tiers: a standalone fleetd, a coordinator,
// and a read replica synced from that coordinator.
func TestPatchesEndpointConformance(t *testing.T) {
	ctx := context.Background()
	cfg := cumulative.DefaultConfig()

	fleetd := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1})
	fleetdTS := httptest.NewServer(fleetd.Handler())
	defer fleetdTS.Close()
	feedCluster(t, ctx, 23, 10, fleetdTS.URL)
	if _, changed := fleetd.Correct(); !changed {
		t.Fatal("fleetd derived no patches")
	}

	_, partURL := haPartition(t, cfg)
	feedCluster(t, ctx, 23, 10, partURL)
	coord, err := NewCoordinator(CoordinatorOptions{Partitions: []string{partURL}, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord.Handler())
	defer coordTS.Close()
	if _, err := coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	rep, err := NewReplica(ReplicaOptions{Upstreams: []string{coordTS.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.PollOnce(ctx); err != nil {
		t.Fatal(err)
	}
	repTS := httptest.NewServer(rep.Handler())
	defer repTS.Close()

	for _, tier := range []struct{ name, url string }{
		{"fleetd", fleetdTS.URL},
		{"coordinator", coordTS.URL},
		{"replica", repTS.URL},
	} {
		t.Run(tier.name, func(t *testing.T) {
			url := tier.url + "/v1/patches"
			if resp, _ := patchGet(t, http.MethodPost, url, nil); resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("POST = %d, want 405", resp.StatusCode)
			}
			if resp, _ := patchGet(t, http.MethodGet, url+"?since=abc", nil); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("since=abc = %d, want 400", resp.StatusCode)
			}

			resp, full := patchGet(t, http.MethodGet, url+"?since=0", map[string]string{fleet.RequestIDHeader: "conformance-1"})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("since=0 = %d", resp.StatusCode)
			}
			if got := resp.Header.Get(fleet.RequestIDHeader); got != "conformance-1" {
				t.Fatalf("X-Request-ID echoed as %q", got)
			}
			wire, err := fleet.JSONCodec.DecodePatchSet(full)
			if err != nil {
				t.Fatal(err)
			}
			if wire.Epoch == 0 || wire.Version == 0 || wire.Set().Len() == 0 {
				t.Fatalf("full answer: epoch %d version %d, %d entries", wire.Epoch, wire.Version, wire.Set().Len())
			}
			etag := fleet.PatchETag(wire.Epoch, wire.Version)
			if got := resp.Header.Get("ETag"); got != etag {
				t.Fatalf("ETag %s, want %s", got, etag)
			}

			resp, ahead := patchGet(t, http.MethodGet, url+"?since="+utoa(wire.Version+100), nil)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(ahead, full) {
				t.Fatalf("since ahead of version = %d %s, want the full set %s", resp.StatusCode, ahead, full)
			}

			resp, body := patchGet(t, http.MethodGet, url+"?since=0", map[string]string{"If-None-Match": etag})
			if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
				t.Fatalf("revalidation = %d with %d body bytes, want 304 and none", resp.StatusCode, len(body))
			}

			resp, frame := patchGet(t, http.MethodGet, url+"?since=0", map[string]string{"Accept": codec.ContentTypeV2})
			if ct := resp.Header.Get("Content-Type"); ct != codec.ContentTypeV2 || !bytes.HasPrefix(frame, []byte("XWF2")) {
				t.Fatalf("v2 answer: Content-Type %q, body %q", ct, frame)
			}
			v2, err := fleet.V2Codec.DecodePatchSet(frame)
			if err != nil {
				t.Fatal(err)
			}
			if v2.Epoch != wire.Epoch || v2.Version != wire.Version || !v2.Set().Equal(wire.Set()) {
				t.Fatalf("v2 answer %+v differs from v1 %+v", v2, wire)
			}
		})
	}
}

// scriptedUpstream serves GET /v1/patches answers from a script, one per
// poll; the last entry repeats. A zero status means 200 with the set.
type scriptedUpstream struct {
	mu     sync.Mutex
	script []scriptedAnswer
}

type scriptedAnswer struct {
	status int
	wire   *fleet.WirePatchSet
}

func (u *scriptedUpstream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/triage" {
		w.Write([]byte("[]"))
		return
	}
	u.mu.Lock()
	a := u.script[0]
	if len(u.script) > 1 {
		u.script = u.script[1:]
	}
	u.mu.Unlock()
	if a.status != 0 {
		http.Error(w, "scripted failure", a.status)
		return
	}
	fleet.WriteJSON(w, a.wire)
}

func epochAnswer(epoch, version uint64, pad site.ID) scriptedAnswer {
	ps := patch.New()
	ps.AddPad(pad, 8)
	wire := fleet.ToWire(ps, version)
	wire.Epoch = epoch
	return scriptedAnswer{wire: wire}
}

// TestReplicaRefetchKeepsEpochFloor: when a poll reveals a higher epoch,
// the full refetch that follows may rotate upstreams; an answer from a
// zombie at a lower epoch must be refused there too, never cached.
func TestReplicaRefetchKeepsEpochFloor(t *testing.T) {
	ctx := context.Background()
	a := &scriptedUpstream{script: []scriptedAnswer{
		epochAnswer(5, 1, 0xA1),                 // initial sync
		epochAnswer(10, 1, 0xA2),                // failover: epoch rises to 10
		{status: http.StatusServiceUnavailable}, // the since=0 refetch fails
	}}
	zombie := &scriptedUpstream{script: []scriptedAnswer{epochAnswer(3, 7, 0xDEAD)}}
	aTS := httptest.NewServer(a)
	defer aTS.Close()
	zTS := httptest.NewServer(zombie)
	defer zTS.Close()

	rep, err := NewReplica(ReplicaOptions{Upstreams: []string{aTS.URL, zTS.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.PollOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rep.PollOnce(ctx); err == nil {
		t.Fatal("refetch answered by a zombie epoch was accepted")
	}
	st := rep.Status()
	if st.ReplicaEpoch != 5 || st.ReplicaVersion != 1 {
		t.Fatalf("replica cached epoch %d version %d, want epoch 5 version 1 kept", st.ReplicaEpoch, st.ReplicaVersion)
	}
	repTS := httptest.NewServer(rep.Handler())
	defer repTS.Close()
	wire, err := fleet.JSONCodec.DecodePatchSet(getBytes(t, repTS.URL+"/v1/patches?since=0"))
	if err != nil {
		t.Fatal(err)
	}
	if wire.Epoch != 5 || wire.Set().Pad(0xDEAD) != 0 {
		t.Fatalf("replica serves epoch %d with the zombie's pad %d", wire.Epoch, wire.Set().Pad(0xDEAD))
	}
}

// TestReplicaReadsStayConsistentWhilePolling: readers hit the replica
// while its poller advances the mirrored log and swaps it on epoch
// changes; every answer's ETag must match the epoch and version in its
// body.
func TestReplicaReadsStayConsistentWhilePolling(t *testing.T) {
	ctx := context.Background()
	var mu sync.Mutex
	n := uint64(0)
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/triage" {
			w.Write([]byte("[]"))
			return
		}
		mu.Lock()
		n++
		v := n
		mu.Unlock()
		a := epochAnswer(1+v/5, v, site.ID(v)) // a new epoch every fifth answer
		fleet.WriteJSON(w, a.wire)
	}))
	defer upstream.Close()

	rep, err := NewReplica(ReplicaOptions{Upstreams: []string{upstream.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.PollOnce(ctx); err != nil {
		t.Fatal(err)
	}
	repTS := httptest.NewServer(rep.Handler())
	defer repTS.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for since := uint64(i); ; since = (since + 3) % 40 {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(repTS.URL + "/v1/patches?since=" + utoa(since))
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				wire, err := fleet.JSONCodec.DecodePatchSet(body)
				if err != nil {
					t.Error(err)
					return
				}
				if got, want := resp.Header.Get("ETag"), fleet.PatchETag(wire.Epoch, wire.Version); got != want {
					t.Errorf("ETag %s does not match body (%s)", got, want)
					return
				}
			}
		}(i)
	}
	for i := 0; i < 40; i++ {
		if err := rep.PollOnce(ctx); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

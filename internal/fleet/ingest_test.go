package fleet

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet/codec"
)

// ingestForm is one way a batch reaches POST /v1/observations.
type ingestForm struct {
	name   string
	encode func(t *testing.T, b *ObservationBatch) (body []byte, header map[string]string)
}

func jsonBatchBody(t *testing.T, b *ObservationBatch) []byte {
	t.Helper()
	body, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

var ingestForms = []ingestForm{
	{"v1", func(t *testing.T, b *ObservationBatch) ([]byte, map[string]string) {
		return jsonBatchBody(t, b), map[string]string{"Content-Type": "application/json"}
	}},
	{"v1-gzip", func(t *testing.T, b *ObservationBatch) ([]byte, map[string]string) {
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		zw.Write(jsonBatchBody(t, b))
		zw.Close()
		return gz.Bytes(), map[string]string{"Content-Type": "application/json", "Content-Encoding": "gzip"}
	}},
	{"v2", func(t *testing.T, b *ObservationBatch) ([]byte, map[string]string) {
		buf := codec.GetBuffer()
		defer codec.PutBuffer(buf)
		frame, err := V2Codec.EncodeBatch(buf, b)
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), frame...), map[string]string{"Content-Type": codec.ContentTypeV2}
	}},
}

// postIngest delivers b in the given form under request ID reqID and
// returns the status code and decoded reply.
func postIngest(t *testing.T, url string, form ingestForm, b *ObservationBatch, reqID string) (int, IngestReply) {
	t.Helper()
	body, header := form.encode(t, b)
	req, err := http.NewRequest(http.MethodPost, url+"/v1/observations", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	req.Header.Set(RequestIDHeader, reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply IngestReply
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusConflict {
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, reply
}

// TestIngestConformanceAcrossCodecs posts the same batches to a fleetd
// as v1 JSON, gzipped v1 JSON and a v2 frame: every admission outcome —
// absorb, duplicate ack, 400 on a missing snapshot, counters-only runs,
// 409 on a stale ring — and the resulting store and delta feed must be
// the same whichever codec carried the batch.
func TestIngestConformanceAcrossCodecs(t *testing.T) {
	evidence := testBatches(1)[0]
	first := &ObservationBatch{Client: "conf", Snapshot: evidence, BatchID: "conf-evidence"}
	counters := &ObservationBatch{
		Client:   "conf",
		Snapshot: &cumulative.Snapshot{C: 4, P: 0.5, Runs: 5, FailedRuns: 2, CorruptRuns: 1},
		BatchID:  "conf-counters",
	}
	wantRuns := int64(evidence.Runs + counters.Snapshot.Runs)

	type outcome struct {
		combined *cumulative.History
		delta    []byte
	}
	var outcomes []outcome
	for _, form := range ingestForms {
		t.Run(form.name, func(t *testing.T) {
			srv := NewServer(ServerOptions{Shards: 4, CorrectEvery: -1})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			if code, reply := postIngest(t, ts.URL, form, first, "conf-1"); code != http.StatusOK || reply.Duplicate {
				t.Fatalf("first delivery = %d %+v, want absorbed", code, reply)
			}
			if code, reply := postIngest(t, ts.URL, form, first, "conf-2"); code != http.StatusOK || !reply.Duplicate {
				t.Fatalf("retry = %d %+v, want a duplicate ack", code, reply)
			}
			if got := srv.Store().Batches(); got != 1 {
				t.Fatalf("batches = %d after a retry, want 1", got)
			}
			if code, _ := postIngest(t, ts.URL, form, &ObservationBatch{Client: "conf"}, "conf-3"); code != http.StatusBadRequest {
				t.Fatalf("batch with no snapshot = %d, want 400", code)
			}
			if code, reply := postIngest(t, ts.URL, form, counters, "conf-4"); code != http.StatusOK || reply.Duplicate {
				t.Fatalf("counters-only batch = %d %+v, want absorbed", code, reply)
			}

			var st StatusReply
			resp, err := http.Get(ts.URL + "/v1/status")
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if st.Runs != wantRuns || st.Batches != 2 || st.Deduped != 1 {
				t.Fatalf("status runs %d batches %d deduped %d, want %d, 2, 1", st.Runs, st.Batches, st.Deduped, wantRuns)
			}

			resp, err = http.Get(ts.URL + "/v1/deltas?since=0")
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var delta SnapshotDelta
			if err := json.Unmarshal(body, &delta); err != nil {
				t.Fatal(err)
			}
			if delta.Full || delta.Snapshot == nil || int64(delta.Snapshot.Runs) != wantRuns {
				t.Fatalf("delta since 0 = %s, want %d runs counted once", body, wantRuns)
			}
			// The epoch names the server incarnation; everything else
			// must match across codecs byte for byte.
			delta.Epoch = 0
			normalized, err := json.Marshal(&delta)
			if err != nil {
				t.Fatal(err)
			}

			srv.RequireRingVersion(4)
			stale := &ObservationBatch{Client: "conf", Snapshot: testBatches(2)[1], BatchID: "conf-stale", RingVersion: 2}
			if code, reply := postIngest(t, ts.URL, form, stale, "conf-5"); code != http.StatusConflict || !reply.StaleRing {
				t.Fatalf("stale-ring batch = %d %+v, want 409", code, reply)
			}
			if got := srv.Store().Runs(); got != wantRuns {
				t.Fatalf("stale batch absorbed: runs = %d, want %d", got, wantRuns)
			}
			outcomes = append(outcomes, outcome{srv.Store().Combined(), normalized})
		})
	}
	if len(outcomes) != len(ingestForms) {
		t.Fatal("a codec run failed")
	}
	for i, o := range outcomes[1:] {
		name := ingestForms[i+1].name
		if !o.combined.Equal(outcomes[0].combined) {
			t.Fatalf("%s store differs from v1", name)
		}
		if !bytes.Equal(o.delta, outcomes[0].delta) {
			t.Fatalf("%s delta differs from v1:\n%s\n%s", name, o.delta, outcomes[0].delta)
		}
	}
}

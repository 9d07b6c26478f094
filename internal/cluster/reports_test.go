package cluster

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet"
	"exterminator/internal/report"
)

// retainedReportCap is the report ring's fixed capacity on every tier.
const retainedReportCap = 128

// postReport POSTs body to url with the given headers and returns the
// response with its body read.
func postReport(t *testing.T, url string, body []byte, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func reportJSON(t *testing.T, rep *report.Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReportsEndpointConformance runs one /v1/reports contract against
// both tiers that accept reports: a standalone fleetd and a coordinator,
// each with an ingest token set.
func TestReportsEndpointConformance(t *testing.T) {
	const token = "sekrit"
	cfg := cumulative.DefaultConfig()

	fleetd := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1, Token: token})
	fleetdTS := httptest.NewServer(fleetd.Handler())
	defer fleetdTS.Close()

	_, partURL := haPartition(t, cfg)
	coord, err := NewCoordinator(CoordinatorOptions{Partitions: []string{partURL}, Config: cfg, Token: token})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord.Handler())
	defer coordTS.Close()

	auth := map[string]string{"Authorization": "Bearer " + token}
	for _, tier := range []struct{ name, url string }{
		{"fleetd", fleetdTS.URL},
		{"coordinator", coordTS.URL},
	} {
		t.Run(tier.name, func(t *testing.T) {
			url := tier.url + "/v1/reports"
			accepted := int64(0)

			if resp, _ := patchGet(t, http.MethodPut, url, nil); resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("PUT = %d, want 405", resp.StatusCode)
			}
			body := reportJSON(t, triageReport())
			if resp, _ := postReport(t, url, body, nil); resp.StatusCode != http.StatusUnauthorized {
				t.Fatalf("POST without token = %d, want 401", resp.StatusCode)
			}
			if resp, _ := postReport(t, url, []byte("{not json"), auth); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("POST with a bad body = %d, want 400", resp.StatusCode)
			}

			// Gzip body, as fleet.Client sends by default.
			var gz bytes.Buffer
			zw := gzip.NewWriter(&gz)
			zw.Write(body)
			zw.Close()
			resp, reply := postReport(t, url, gz.Bytes(), map[string]string{
				"Authorization":       "Bearer " + token,
				"Content-Encoding":    "gzip",
				fleet.RequestIDHeader: "reports-1",
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("gzip POST = %d %s", resp.StatusCode, reply)
			}
			accepted++
			if got := resp.Header.Get(fleet.RequestIDHeader); got != "reports-1" {
				t.Fatalf("X-Request-ID echoed as %q", got)
			}
			var ack struct {
				OK       bool `json:"ok"`
				Retained int  `json:"retained"`
			}
			if err := json.Unmarshal(reply, &ack); err != nil || !ack.OK || ack.Retained != 1 {
				t.Fatalf("POST reply %s, want ok with 1 retained", reply)
			}

			// Redaction on ingest, even for an uploader that skipped it.
			leaky := &report.Report{Findings: []report.Finding{{
				Kind:  "buffer-overflow",
				Title: "crash in /home/alice/src/app.c mailed to alice@example.com with token=abc123",
				Sites: []report.SiteTrace{{Site: guiltySite, Role: "alloc", Frames: guiltyFrames}},
			}}}
			if resp, reply := postReport(t, url, reportJSON(t, leaky), auth); resp.StatusCode != http.StatusOK {
				t.Fatalf("POST = %d %s", resp.StatusCode, reply)
			}
			accepted++
			var got []*report.Report
			getJSON(t, url, &got)
			if len(got) != 2 {
				t.Fatalf("GET returned %d reports, want 2", len(got))
			}
			title := got[1].Findings[0].Title
			for _, leak := range []string{"/home/alice", "alice@example.com", "abc123"} {
				if strings.Contains(title, leak) {
					t.Fatalf("retained title %q still carries %q", title, leak)
				}
			}
			if frames := got[1].Findings[0].Sites[0].Frames; len(frames) != len(guiltyFrames) {
				t.Fatalf("redaction dropped the call stack: %v", frames)
			}

			// Retention is capped; the oldest reports go first.
			for i := 0; i < retainedReportCap; i++ {
				rep := &report.Report{Findings: []report.Finding{{Kind: "buffer-overflow", Title: fmt.Sprintf("report %d", i)}}}
				if resp, reply := postReport(t, url, reportJSON(t, rep), auth); resp.StatusCode != http.StatusOK {
					t.Fatalf("POST %d = %d %s", i, resp.StatusCode, reply)
				}
				accepted++
			}
			got = nil
			getJSON(t, url, &got)
			if len(got) != retainedReportCap {
				t.Fatalf("retained %d reports, want the cap %d", len(got), retainedReportCap)
			}
			if first, last := got[0].Findings[0].Title, got[len(got)-1].Findings[0].Title; first != "report 0" || last != fmt.Sprintf("report %d", retainedReportCap-1) {
				t.Fatalf("retained window runs %q .. %q, want the newest %d", first, last, retainedReportCap)
			}

			var st fleet.StatusReply
			getJSON(t, tier.url+"/v1/status", &st)
			if st.Reports != accepted {
				t.Fatalf("status counts %d reports, want every one accepted (%d)", st.Reports, accepted)
			}
		})
	}
}

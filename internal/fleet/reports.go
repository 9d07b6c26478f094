package fleet

import (
	"net/http"
	"sync"
	"sync/atomic"

	"exterminator/internal/report"
	"exterminator/internal/triage"
)

// maxReports bounds the retained bug-report ring on every tier.
const maxReports = 128

// ReportLog is the bounded bug-report ring behind /v1/reports on every
// tier that accepts reports (fleetd and the cluster coordinator): the
// most recent maxReports uploads, oldest dropped first, plus a count of
// every report accepted. The zero value is ready to use.
type ReportLog struct {
	mu      sync.Mutex
	reports []*report.Report
	seen    atomic.Int64
}

// Seen returns how many reports were accepted, retained or not (the
// status endpoints' Reports field).
func (l *ReportLog) Seen() int64 { return l.seen.Load() }

// ServeReports is /v1/reports on every tier that accepts reports. GET
// answers the retained reports; POST decodes one (gzip accepted, body
// capped at limit), redacts it, hands its recorded call stacks to tri
// (nil-safe: partitions run no triage) and retains it, replying
// {"ok":true,"retained":N}. The caller checks write authorization in
// front of it; reads stay open.
func ServeReports(w http.ResponseWriter, r *http.Request, l *ReportLog, limit int64, tri *triage.Engine) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
		return
	}
	EchoRequestID(w, r)
	if r.Method == http.MethodGet {
		l.mu.Lock()
		out := append([]*report.Report{}, l.reports...)
		l.mu.Unlock()
		WriteJSON(w, out)
		return
	}
	var rep report.Report
	if err := DecodeJSONBody(w, r, limit, &rep); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Clients redact before upload; redacting again here keeps the
	// retained set clean even for hand-rolled uploaders.
	report.Redact(&rep)
	// Recorded call stacks are what upgrade site-hash triage clusters
	// into signature clusters.
	for _, f := range rep.Findings {
		for _, t := range f.Sites {
			tri.RecordFrames(t.Site, t.Frames)
		}
	}
	l.seen.Add(1)
	l.mu.Lock()
	l.reports = append(l.reports, &rep)
	if len(l.reports) > maxReports {
		l.reports = append([]*report.Report(nil), l.reports[len(l.reports)-maxReports:]...)
	}
	retained := len(l.reports)
	l.mu.Unlock()
	WriteJSON(w, map[string]any{"ok": true, "retained": retained})
}

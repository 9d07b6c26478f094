package fleet

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"crypto/subtle"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/report"
	"exterminator/internal/site"
	"exterminator/internal/telemetry"
	"exterminator/internal/triage"
	"exterminator/internal/version"
)

// ServerOptions configures an aggregation server.
type ServerOptions struct {
	// Shards is the evidence-store stripe count (0 = DefaultShards).
	Shards int
	// Config parameterizes the Bayesian classifier (zero = paper defaults).
	Config cumulative.Config
	// CorrectEvery triggers a synchronous correction pass once more than
	// this many ingested batches are pending, in addition to any
	// background loop. 0 means every batch (evidence is never left
	// sitting); negative disables inline correction entirely (background
	// loop only).
	CorrectEvery int
	// MaxReports bounds the retained bug-report ring (0 = 128).
	MaxReports int
	// MaxBodyBytes bounds request bodies (0 = 16 MiB).
	MaxBodyBytes int64
	// Token, when non-empty, is required as `Authorization: Bearer
	// <token>` on the write endpoints (/v1/observations, /v1/reports).
	// Reads stay open.
	Token string
	// RatePerSec enables a per-remote-host token-bucket limit on
	// /v1/observations (0 disables). Over-limit requests get 429 with a
	// Retry-After header.
	RatePerSec float64
	// RateBurst is the token-bucket capacity (0 = 2×RatePerSec, min 1).
	RateBurst int
	// JournalLen bounds the evidence journal behind GET /v1/deltas
	// (0 = 1024 batches; negative disables retention — single-node
	// deployments that nothing delta-polls then hold no snapshot
	// references, and any poll is answered with a full resync).
	// Coordinators that fall further behind than the window receive a
	// full resync.
	JournalLen int
	// CorrectWorkers is the correction pool width: how many evidence
	// shards an Identify pass rescores concurrently. 0 sizes the pool
	// elastically — min(GOMAXPROCS, Shards) — so many-core hosts use
	// their cores without the operator re-deriving the number from the
	// replica count; 1 (or negative) keeps passes serial. Findings are
	// merged in shard order, so the pool width never changes results.
	CorrectWorkers int
	// DisableCorrection turns Correct into a no-op (cluster partition
	// mode): the server stores and journals evidence but never derives
	// patches. A partition holds only its ring slice of the sites, so
	// its local N would understate the Bayesian prior — only the
	// coordinator, which sees the merged pool and the true N, may run
	// the hypothesis test.
	DisableCorrection bool
	// DedupWindow bounds the exactly-once ingest window: the number of
	// recently absorbed batch IDs retained (0 = 4096; negative disables
	// dedup entirely). An upload stamped with a batch ID already in the
	// window is acknowledged without being re-absorbed, so a client
	// retrying after a lost ack cannot double-count evidence. The window
	// is persisted in snapshots, so the guarantee survives restarts.
	DedupWindow int
	// Triage configures the triage engine behind GET /v1/triage
	// (clustered top-offender rankings) and its webhook alerter. The
	// zero value serves rankings with alerting off. Partition-mode
	// servers (DisableCorrection) skip triage passes for the same
	// reason they skip correction — a ring slice's local view would
	// mis-rank — and serve empty rankings.
	Triage triage.Config
	// Metrics is the telemetry registry the server instruments into and
	// serves on GET /metrics (nil = a fresh private registry — /metrics
	// still works, nothing else shares it).
	Metrics *telemetry.Registry
	// Logger receives the server's structured log stream (ingest,
	// dedup/stale/eviction decisions, correction passes, snapshots), each
	// record carrying the upload's X-Request-ID correlation field where
	// one applies. Nil discards.
	Logger *slog.Logger
}

// Server is the fleet aggregation service: sharded evidence store,
// versioned patch log, correction loop, and the HTTP API over them.
type Server struct {
	store  *Store
	log    *PatchLog
	triage *triage.Engine // nil in partition mode

	correctEvery int
	noCorrect    bool
	maxBody      int64
	pending      atomic.Int64 // batches since the last correction pass
	correctMu    sync.Mutex   // serializes correction passes
	corrections  atomic.Int64

	token   string
	limiter *rateLimiter
	limited atomic.Int64 // requests rejected with 429

	// dedup is the exactly-once ingest window (nil when disabled). IDs
	// are admitted *before* the absorb, so a concurrent duplicate is
	// acked while the first delivery is still folding in.
	dedup   *dedupWindow
	deduped atomic.Int64 // batches acked as duplicates without absorbing

	// ringVersion is the required cluster membership version (0 = none
	// announced; versioned uploads below it are rejected with 409 +
	// StaleRing). It is only ever raised — under deltaMu exclusively, so
	// an ingest that passed the check before a rebalance's announcement
	// either lands before the announce completes (and is then drained by
	// the eviction that follows it) or re-checks under the shared lock
	// and is rejected. evictions/evicts back POST /v1/evict.
	ringVersion atomic.Uint64
	evictions   atomic.Int64
	evicts      *evictCache

	// journal records absorbed batches for GET /v1/deltas. deltaMu makes
	// (absorb into store + append to journal) atomic with respect to a
	// full-resync read: ingest holds it shared (absorbs stay concurrent
	// across shards), a full snapshot holds it exclusively, so the
	// snapshot it takes corresponds exactly to a journal position.
	journal *journal
	deltaMu sync.RWMutex

	reportMu   sync.Mutex
	reports    []*report.Report
	maxReports int
	reportSeen atomic.Int64

	reg     *telemetry.Registry
	metrics serverMetrics
	logger  *slog.Logger

	start time.Time
	epoch uint64
	mux   *http.ServeMux
}

// serverMetrics is the fleet server's instrument set (see
// docs/OBSERVABILITY.md for the full reference).
type serverMetrics struct {
	batches      *telemetry.Counter
	v2Batches    *telemetry.Counter
	observations *telemetry.Counter
	runs         *telemetry.Counter
	wireBytes    *telemetry.Counter
	bodyBytes    *telemetry.Counter
	dedupHits    *telemetry.Counter
	staleRing    *telemetry.Counter
	rateLimited  *telemetry.Counter
	unauthorized *telemetry.Counter
	evictions    *telemetry.Counter
	corrections  *telemetry.Counter
	ingestSec    *telemetry.Histogram
	identifySec  *telemetry.Histogram
	correctSec   *telemetry.Histogram
}

// register instruments the server into reg: the ingest counter set, the
// identify/correct latency histograms, and scrape-time gauges over the
// live store/journal/patch-log state.
func (m *serverMetrics) register(reg *telemetry.Registry, s *Server) {
	m.batches = reg.Counter("fleet_ingest_batches_total",
		"Observation batches absorbed (duplicates and rejections excluded).")
	m.v2Batches = reg.Counter("fleet_ingest_v2_batches_total",
		"Batches that arrived as v2 binary frames (subset of fleet_ingest_batches_total).")
	m.observations = reg.Counter("fleet_ingest_observations_total",
		"Individual overflow/dangling observations absorbed.")
	m.runs = reg.Counter("fleet_ingest_runs_total",
		"Run-counter increments absorbed with batches.")
	m.wireBytes = reg.Counter("fleet_ingest_wire_bytes_total",
		"Ingest request-body bytes read off the wire (compressed when the client gzips).")
	m.bodyBytes = reg.Counter("fleet_ingest_body_bytes_total",
		"Ingest request-body bytes after decompression; divide wire by body for the gzip ratio.")
	m.dedupHits = reg.Counter("fleet_dedup_hits_total",
		"Uploads acknowledged as duplicates without being re-absorbed (exactly-once window hits).")
	m.staleRing = reg.Counter("fleet_stale_ring_rejects_total",
		"Uploads rejected with 409 for being split under an outdated cluster membership.")
	m.rateLimited = reg.Counter("fleet_rate_limited_total",
		"Uploads rejected with 429 by the per-host token bucket.")
	m.unauthorized = reg.Counter("fleet_unauthorized_total",
		"Write requests rejected with 401 (missing or invalid ingest token).")
	m.evictions = reg.Counter("fleet_evictions_total",
		"Rebalance drains served via POST /v1/evict (cache hits included).")
	m.corrections = reg.Counter("fleet_corrections_total",
		"Completed correction passes.")
	m.ingestSec = reg.Histogram("fleet_ingest_seconds",
		"POST /v1/observations handling latency in seconds.", nil)
	m.identifySec = reg.Histogram("fleet_identify_seconds",
		"Incremental Bayesian identify latency per correction pass, in seconds.", nil)
	m.correctSec = reg.Histogram("fleet_correct_seconds",
		"Whole correction-pass latency (identify + patch fold), in seconds.", nil)
	reg.GaugeFunc("fleet_dirty_keys",
		"Evidence keys the next correction pass must rescore (recompute backlog).",
		func() float64 { return float64(s.store.DirtyKeys()) })
	reg.GaugeFunc("fleet_journal_seq",
		"Evidence journal sequence number (the cursor coordinators poll with).",
		func() float64 { return float64(s.journal.seqNow()) })
	reg.GaugeFunc("fleet_journal_entries",
		"Evidence journal entries currently retained (delta-poll window depth).",
		func() float64 { return float64(s.journal.length()) })
	reg.GaugeFunc("fleet_patch_version",
		"Patch log version.",
		func() float64 { return float64(s.log.Version()) })
	reg.GaugeFunc("fleet_patch_entries",
		"Patch log entry count.",
		func() float64 { return float64(s.log.Len()) })
	reg.GaugeFunc("fleet_evidence_sites",
		"Distinct allocation sites in the evidence store (N in the Bayesian prior).",
		func() float64 { return float64(s.store.Sites()) })
	reg.GaugeFunc("fleet_evidence_runs",
		"Fleet-wide run count in the evidence store.",
		func() float64 { return float64(s.store.Runs()) })
	telemetry.RegisterBuildInfo(reg)
}

// NewServer returns a ready-to-serve aggregation server.
func NewServer(opts ServerOptions) *Server {
	cfg := opts.Config
	if cfg.C == 0 && cfg.P == 0 {
		cfg = cumulative.DefaultConfig()
	}
	burst := opts.RateBurst
	if burst <= 0 {
		burst = int(2 * opts.RatePerSec)
	}
	s := &Server{
		store:        NewStore(opts.Shards, cfg),
		log:          NewPatchLog(),
		correctEvery: opts.CorrectEvery,
		noCorrect:    opts.DisableCorrection,
		maxReports:   opts.MaxReports,
		maxBody:      opts.MaxBodyBytes,
		token:        opts.Token,
		limiter:      newRateLimiter(opts.RatePerSec, burst),
		dedup:        newDedupWindow(opts.DedupWindow),
		evicts:       newEvictCache(0),
		journal:      newJournal(opts.JournalLen),
		reg:          opts.Metrics,
		logger:       opts.Logger,
		start:        time.Now(),
		epoch:        uint64(time.Now().UnixNano()),
	}
	if s.maxReports <= 0 {
		s.maxReports = 128
	}
	if s.maxBody <= 0 {
		s.maxBody = 16 << 20
	}
	switch {
	case opts.CorrectWorkers == 0:
		s.store.SetIdentifyWorkers(min(runtime.GOMAXPROCS(0), s.store.NumShards()))
	case opts.CorrectWorkers > 1:
		s.store.SetIdentifyWorkers(opts.CorrectWorkers)
	}
	if s.reg == nil {
		s.reg = telemetry.NewRegistry()
	}
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	if !s.noCorrect {
		tcfg := opts.Triage
		tcfg.Source = "fleetd"
		s.triage = triage.New(tcfg)
		s.triage.SetLogger(s.logger)
		s.triage.SetMetrics(s.reg)
	}
	s.logger = s.logger.With("component", "fleet")
	s.metrics.register(s.reg, s)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/observations", s.handleObservations)
	mux.HandleFunc("/v1/reports", s.handleReports)
	mux.HandleFunc("/v1/patches", s.handlePatches)
	mux.HandleFunc("/v1/deltas", s.handleDeltas)
	mux.HandleFunc("/v1/evict", s.handleEvict)
	mux.HandleFunc("/v1/ring", s.handleRing)
	mux.HandleFunc("/v1/status", s.handleStatus)
	// s.triage may be a typed nil (partition mode): Engine.ServeHTTP is
	// nil-receiver-safe and answers with an empty ranking.
	mux.Handle("/v1/triage", s.triage)
	mux.Handle("/v1/triage/", s.triage)
	mux.Handle("/metrics", s.reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	s.mux = mux
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the registry the server instruments into (fleetd also
// serves it on the -debug-addr listener).
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// Store exposes the evidence store (tests and fleetd snapshots).
func (s *Server) Store() *Store { return s.store }

// PatchLog exposes the versioned patch log.
func (s *Server) PatchLog() *PatchLog { return s.log }

// Correct runs one correction pass: rerun the Bayesian test over the
// sharded store and fold any derived patches into the versioned log. It
// returns the current version and whether it changed. Passes are
// incremental — only sites whose evidence changed since the previous
// pass are rescored (Store.Identify) — and serialize; ingest is never
// blocked by a running pass.
func (s *Server) Correct() (uint64, bool) {
	if s.noCorrect {
		// Partition mode: every derivation path — inline, background
		// loop, snapshot restore — is suppressed here, at the server, so
		// no caller can accidentally publish partition-local patches.
		return s.log.Version(), false
	}
	s.correctMu.Lock()
	defer s.correctMu.Unlock()
	start := time.Now()
	defer s.metrics.correctSec.ObserveSince(start)
	s.pending.Store(0)
	s.corrections.Add(1)
	s.metrics.corrections.Inc()
	identifyStart := time.Now()
	//extlint:ignore lockio correctMu exists to serialize whole correction passes; the elastic identify pool's WaitGroup joins CPU-bound stripe scorers, not IO, and the serial pass held the lock for the same work
	findings := s.store.Identify()
	s.metrics.identifySec.ObserveSince(identifyStart)
	changed := false
	if findings.Empty() {
		s.logger.Debug("correction pass: no findings",
			"version", s.log.Version(), "durationSec", time.Since(start).Seconds())
	} else {
		var v uint64
		if v, changed = s.log.Fold(findings.Patches()); changed {
			s.logger.Info("correction pass derived patches",
				"version", v, "patchEntries", s.log.Len(), "durationSec", time.Since(start).Seconds())
		}
	}
	// Triage rides the correction pass: cluster the rescored candidates
	// against the patch log the pass just folded. Still under correctMu,
	// so passes (and their lifecycle transitions) stay serialized.
	s.triagePass()
	return s.log.Version(), changed
}

// triagePass folds the store's current per-site candidates into the
// triage engine. No-op in partition mode.
func (s *Server) triagePass() {
	if s.triage == nil {
		return
	}
	over, dang := s.store.TriageCandidates()
	ps, _ := s.log.Since(0)
	s.triage.Pass(triage.PassInput{
		Overflows: over,
		Danglings: dang,
		Patches:   ps,
		Threshold: s.store.Threshold(),
	})
}

// Triage exposes the triage engine (nil in partition mode).
func (s *Server) Triage() *triage.Engine { return s.triage }

// RunCorrectionLoop reruns Correct every interval until ctx is done — the
// background half of "rerun the test as evidence arrives". It only pays
// for a pass when new batches actually arrived since the last one.
func (s *Server) RunCorrectionLoop(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if s.pending.Load() > 0 {
				s.Correct()
			}
			// Alert delivery is decoupled from passes: due retries
			// drain every tick even when no new evidence arrived.
			s.triage.DeliverAlerts(ctx)
		}
	}
}

// BearerAuthorized reports whether the request carries `Authorization:
// Bearer <token>`, compared in constant time. Exported so other fleet
// tiers (the cluster coordinator) enforce exactly the same check.
func BearerAuthorized(r *http.Request, token string) bool {
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	return len(auth) > len(prefix) && strings.EqualFold(auth[:len(prefix)], prefix) &&
		subtle.ConstantTimeCompare([]byte(auth[len(prefix):]), []byte(token)) == 1
}

// authorize enforces the shared ingest token on write endpoints. With no
// token configured it always passes.
func (s *Server) authorize(w http.ResponseWriter, r *http.Request) bool {
	if s.token == "" || BearerAuthorized(r, s.token) {
		return true
	}
	s.metrics.unauthorized.Inc()
	s.logger.Warn("unauthorized write rejected",
		"path", r.URL.Path, "remote", r.RemoteAddr, "requestId", r.Header.Get(RequestIDHeader))
	w.Header().Set("WWW-Authenticate", `Bearer realm="fleet"`)
	http.Error(w, "fleet: missing or invalid ingest token", http.StatusUnauthorized)
	return false
}

// throttle applies the per-remote-host token bucket to the ingest path.
func (s *Server) throttle(w http.ResponseWriter, r *http.Request) bool {
	if s.limiter == nil {
		return true
	}
	ok, wait := s.limiter.allow(limiterKey(r.RemoteAddr), time.Now())
	if ok {
		return true
	}
	s.limited.Add(1)
	s.metrics.rateLimited.Inc()
	secs := int64(wait/time.Second) + 1
	s.logger.Warn("ingest rate limited",
		"remote", r.RemoteAddr, "retryAfterSec", secs, "requestId", r.Header.Get(RequestIDHeader))
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	http.Error(w, "fleet: ingest rate limit exceeded", http.StatusTooManyRequests)
	return false
}

// requestID extracts the upload's X-Request-ID correlation field,
// minting one for requests that arrive without it (legacy clients), so
// every ingest log record and journal entry carries a grep-able handle.
func requestID(r *http.Request) string {
	if id := strings.TrimSpace(r.Header.Get(RequestIDHeader)); id != "" {
		if len(id) > 128 {
			id = id[:128]
		}
		return id
	}
	return telemetry.NewRequestID()
}

// EchoRequestID extracts (or mints) the request's correlation ID and
// echoes it on the response — the read-path half of the X-Request-ID
// contract, so failed fetches grep across tiers just like uploads.
// Exported so the cluster coordinator's read handlers share it.
func EchoRequestID(w http.ResponseWriter, r *http.Request) string {
	id := requestID(r)
	w.Header().Set(RequestIDHeader, id)
	return id
}

func (s *Server) handleObservations(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	defer s.metrics.ingestSec.ObserveSince(start)
	if !s.authorize(w, r) || !s.throttle(w, r) {
		return
	}
	reqID := requestID(r)
	w.Header().Set(RequestIDHeader, reqID)
	if CodecForContentType(r.Header.Get("Content-Type")) == V2Codec {
		s.ingestV2(w, r, reqID)
		return
	}
	var batch ObservationBatch
	wireBytes, bodyBytes, err := decodeBodyMetered(w, r, s.maxBody, &batch)
	s.metrics.wireBytes.Add(float64(wireBytes))
	s.metrics.bodyBytes.Add(float64(bodyBytes))
	if err != nil {
		s.logger.Warn("ingest body rejected", "requestId", reqID, "error", err.Error())
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if batch.Snapshot == nil {
		http.Error(w, "fleet: batch has no snapshot", http.StatusBadRequest)
		return
	}
	// Exactly-once ingest: a batch whose content-addressed ID is already
	// in the dedup window was absorbed by an earlier delivery whose ack
	// was lost — acknowledge it (Duplicate set) without re-absorbing.
	// Unstamped batches (legacy clients) skip the window and stay
	// at-least-once. The duplicate check comes BEFORE the stale-ring
	// check: a retry of a batch absorbed before a rebalance must ack as
	// a duplicate (its evidence was drained to the new owner), not make
	// the client re-split and double-deliver it.
	if batch.BatchID != "" && s.dedup != nil && s.dedup.has(batch.BatchID) {
		s.ackDuplicate(w, &batch, reqID)
		return
	}
	// Cheap pre-check; the authoritative stale-ring check runs under the
	// shared deltaMu below, ordered against the rebalance announcement.
	if s.writeIfStale(w, &batch, reqID) {
		return
	}
	// Shared deltaMu: absorbs from many clients stay concurrent, but a
	// full-resync read (which takes it exclusively) sees store and
	// journal at one consistent point — and the ring-version requirement
	// (raised exclusively) is re-checked here, so no stale batch can slip
	// in behind a rebalance's drain.
	s.deltaMu.RLock()
	if s.writeIfStale(w, &batch, reqID) {
		s.deltaMu.RUnlock()
		return
	}
	if batch.BatchID != "" && s.dedup != nil && !s.dedup.admit(batch.BatchID) {
		s.deltaMu.RUnlock()
		s.ackDuplicate(w, &batch, reqID)
		return
	}
	s.store.AbsorbSnapshot(batch.Snapshot)
	seq := s.journal.append(batch.Snapshot, reqID)
	s.deltaMu.RUnlock()
	s.store.NoteClient(batch.Client)
	obs := SnapshotObservations(batch.Snapshot)
	s.metrics.batches.Inc()
	s.metrics.observations.Add(float64(obs))
	s.metrics.runs.Add(float64(batch.Snapshot.Runs))
	s.logger.Info("ingest absorbed",
		"requestId", reqID, "batchId", batch.BatchID, "client", batch.Client,
		"runs", batch.Snapshot.Runs, "observations", obs, "seq", seq,
		"wireBytes", wireBytes, "bodyBytes", bodyBytes)
	version := s.log.Version()
	if n := s.pending.Add(1); s.correctEvery >= 0 && n > int64(s.correctEvery) {
		version, _ = s.Correct()
	}
	WriteJSON(w, IngestReply{
		OK:          true,
		RequestID:   reqID,
		Version:     version,
		Sites:       s.store.Sites(),
		Runs:        s.store.Runs(),
		RingVersion: s.ringVersion.Load(),
	})
}

// ingestV2 is the binary-wire ingest path: the frame is decoded
// straight into per-shard sub-snapshots along the store's own stripes
// (codec.DecodeBatchSharded keyed by Store.ShardIndex) — no
// intermediate merged snapshot, no re-split under the ingest lock, and
// the whole decode runs before deltaMu is even touched, so decoding
// cost never extends lock hold time. The exactly-once window, the
// stale-ring fence and the journal discipline are identical to the v1
// path; only the wire format and the absorb shape differ. Replies stay
// JSON on every ingest response (success and failure), v2 or not.
func (s *Server) ingestV2(w http.ResponseWriter, r *http.Request, reqID string) {
	buf := codec.GetBuffer()
	wireBytes, bodyBytes, err := readBodyMetered(w, r, s.maxBody, buf)
	s.metrics.wireBytes.Add(float64(wireBytes))
	s.metrics.bodyBytes.Add(float64(bodyBytes))
	if err != nil {
		codec.PutBuffer(buf)
		s.logger.Warn("ingest body rejected", "requestId", reqID, "error", err.Error())
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	info, parts, err := codec.DecodeBatchSharded(buf.B, s.store.NumShards(), s.store.ShardIndex)
	codec.PutBuffer(buf) // decoded values never alias the frame bytes
	if err != nil {
		s.logger.Warn("ingest v2 frame rejected", "requestId", reqID, "error", err.Error())
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !info.HasSnapshot {
		http.Error(w, "fleet: batch has no snapshot", http.StatusBadRequest)
		return
	}
	// stub carries the batch's identity fields through the same dedup /
	// stale-ring / ack helpers the v1 path uses.
	stub := &ObservationBatch{Client: info.Client, BatchID: info.BatchID, RingVersion: info.RingVersion}
	if stub.BatchID != "" && s.dedup != nil && s.dedup.has(stub.BatchID) {
		s.ackDuplicate(w, stub, reqID)
		return
	}
	if s.writeIfStale(w, stub, reqID) {
		return
	}
	s.deltaMu.RLock()
	if s.writeIfStale(w, stub, reqID) {
		s.deltaMu.RUnlock()
		return
	}
	if stub.BatchID != "" && s.dedup != nil && !s.dedup.admit(stub.BatchID) {
		s.deltaMu.RUnlock()
		s.ackDuplicate(w, stub, reqID)
		return
	}
	s.store.AbsorbParts(parts)
	seq := s.journal.appendParts(parts, reqID)
	s.deltaMu.RUnlock()
	s.store.NoteClient(info.Client)
	s.metrics.batches.Inc()
	s.metrics.v2Batches.Inc()
	s.metrics.observations.Add(float64(info.Observations))
	s.metrics.runs.Add(float64(info.Runs))
	s.logger.Info("ingest absorbed",
		"requestId", reqID, "batchId", info.BatchID, "client", info.Client,
		"runs", info.Runs, "observations", info.Observations, "seq", seq,
		"wireBytes", wireBytes, "bodyBytes", bodyBytes, "wire", "v2")
	version := s.log.Version()
	if n := s.pending.Add(1); s.correctEvery >= 0 && n > int64(s.correctEvery) {
		version, _ = s.Correct()
	}
	WriteJSON(w, IngestReply{
		OK:          true,
		RequestID:   reqID,
		Version:     version,
		Sites:       s.store.Sites(),
		Runs:        s.store.Runs(),
		RingVersion: s.ringVersion.Load(),
	})
}

// ackDuplicate acknowledges a batch the dedup window already holds,
// without re-absorbing it.
func (s *Server) ackDuplicate(w http.ResponseWriter, batch *ObservationBatch, reqID string) {
	s.deduped.Add(1)
	s.metrics.dedupHits.Inc()
	s.logger.Info("ingest duplicate acknowledged",
		"requestId", reqID, "batchId", batch.BatchID, "client", batch.Client)
	WriteJSON(w, IngestReply{
		OK:          true,
		Duplicate:   true,
		RequestID:   reqID,
		Version:     s.log.Version(),
		Sites:       s.store.Sites(),
		Runs:        s.store.Runs(),
		RingVersion: s.ringVersion.Load(),
	})
}

// writeIfStale rejects a versioned batch split under an older membership
// than this partition requires (409 + StaleRing), reporting whether it
// wrote the response. Unversioned batches always pass.
func (s *Server) writeIfStale(w http.ResponseWriter, batch *ObservationBatch, reqID string) bool {
	cur := s.ringVersion.Load()
	if batch.RingVersion == 0 || cur == 0 || batch.RingVersion >= cur {
		return false
	}
	s.metrics.staleRing.Inc()
	s.logger.Warn("stale-ring upload rejected",
		"requestId", reqID, "batchId", batch.BatchID, "client", batch.Client,
		"batchRingVersion", batch.RingVersion, "requiredRingVersion", cur)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusConflict)
	json.NewEncoder(w).Encode(IngestReply{StaleRing: true, RequestID: reqID, RingVersion: cur})
	return true
}

// RequireRingVersion raises the partition's required membership version
// (it never regresses) and returns the version now in force. The raise
// is ordered against ingest through deltaMu: once it returns, every
// in-flight stale batch has either fully absorbed (and will be drained
// by the eviction that follows the announcement) or will be rejected.
func (s *Server) RequireRingVersion(v uint64) uint64 {
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	if cur := s.ringVersion.Load(); v > cur {
		s.ringVersion.Store(v)
	}
	return s.ringVersion.Load()
}

// handleRing is the rebalance announcement endpoint: POST /v1/ring
// {version} raises the required membership version.
func (s *Server) handleRing(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !s.authorize(w, r) {
		return
	}
	var upd RingUpdate
	if err := DecodeJSONBody(w, r, s.maxBody, &upd); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if upd.Version == 0 {
		http.Error(w, "fleet: ring version must be positive", http.StatusBadRequest)
		return
	}
	v := s.RequireRingVersion(upd.Version)
	s.logger.Info("ring version announced", "announced", upd.Version, "required", v)
	WriteJSON(w, RingReply{OK: true, Version: v})
}

// Evict atomically removes and returns the canonical evidence for a key
// set (a rebalance drain), journaling the removal so delta pollers see
// it; with counters set it also drains the global run counters into the
// snapshot (a node leaving the cluster takes its totals with it). The
// extraction is exclusive against ingest (deltaMu), so the returned
// snapshot plus the remaining store partition the evidence exactly.
// Results are cached under token: re-evicting with the same token
// returns the original snapshot without touching the store, which is
// what makes a crashed coordinator's re-drive lossless.
func (s *Server) Evict(token string, keys []site.ID, counters bool) (snap *cumulative.Snapshot, cached bool) {
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	if prev, ok := s.evicts.get(token); ok {
		return prev, true
	}
	snap = s.store.Extract(keys)
	switch {
	case counters:
		r, f, cr := s.store.DrainCounters()
		snap.Runs, snap.FailedRuns, snap.CorruptRuns = int(r), int(f), int(cr)
		// Counter movement cannot be expressed as a journal op (run
		// counters only ever add), so a journal replay from before this
		// point would re-count the drained runs if the node ever rejoins.
		// Invalidate every cursor instead: pollers full-resync against
		// the post-drain store, which is the truth.
		s.journal.invalidate()
	case len(keys) > 0:
		// Empty key drains (nothing to move) need no journal entry —
		// there is no removal for a mirror to apply.
		s.journal.appendEvict(keys)
	}
	s.evicts.put(token, snap)
	s.evictions.Add(1)
	s.metrics.evictions.Inc()
	s.logger.Info("rebalance drain served",
		"token", token, "keys", len(keys), "counters", counters)
	return snap, false
}

// handleEvict serves POST /v1/evict (see Evict). It is a write endpoint:
// token-authenticated when the server has an ingest token.
func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !s.authorize(w, r) {
		return
	}
	var req EvictRequest
	if err := DecodeJSONBody(w, r, s.maxBody, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Token == "" {
		http.Error(w, "fleet: evict needs an idempotency token", http.StatusBadRequest)
		return
	}
	snap, cached := s.Evict(req.Token, req.Keys, req.Counters)
	WriteJSON(w, EvictReply{OK: true, Cached: cached, Evicted: snap, RingVersion: s.ringVersion.Load()})
}

func (s *Server) handleReports(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		if !s.authorize(w, r) {
			return
		}
		var rep report.Report
		if err := DecodeJSONBody(w, r, s.maxBody, &rep); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// Clients redact before upload; redacting again here keeps the
		// retained set clean even for hand-rolled uploaders.
		report.Redact(&rep)
		s.feedTriageFrames(&rep)
		s.reportSeen.Add(1)
		s.reportMu.Lock()
		s.reports = append(s.reports, &rep)
		if len(s.reports) > s.maxReports {
			s.reports = append([]*report.Report(nil), s.reports[len(s.reports)-s.maxReports:]...)
		}
		s.reportMu.Unlock()
		WriteJSON(w, map[string]any{"ok": true, "retained": s.retainedReports()})
	case http.MethodGet:
		s.reportMu.Lock()
		out := append([]*report.Report{}, s.reports...)
		s.reportMu.Unlock()
		WriteJSON(w, out)
	default:
		http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
	}
}

// feedTriageFrames hands a report's structured site provenance to the
// triage engine: recorded call stacks are what upgrade site-hash
// clusters into signature clusters.
func (s *Server) feedTriageFrames(rep *report.Report) {
	if s.triage == nil {
		return
	}
	for _, f := range rep.Findings {
		for _, t := range f.Sites {
			s.triage.RecordFrames(t.Site, t.Frames)
		}
	}
}

func (s *Server) retainedReports() int {
	s.reportMu.Lock()
	defer s.reportMu.Unlock()
	return len(s.reports)
}

func (s *Server) handlePatches(w http.ResponseWriter, r *http.Request) {
	ServePatches(w, r, s.log, s.epoch, s.logger)
}

// handleDeltas serves the partition→coordinator evidence feed: the
// batches absorbed after journal position ?since=S, merged into one
// canonical snapshot. Cursors outside the retained window (or from a
// previous incarnation) are answered with a Full resync taken at a
// consistent journal position.
func (s *Server) handleDeltas(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	since, ok := sinceParam(w, r)
	if !ok {
		return
	}
	reqID := EchoRequestID(w, r)
	entries, seq, ok := s.journal.since(since)
	if !ok {
		// Full resync: exclude in-flight ingest so the snapshot matches
		// the sequence number exactly.
		s.deltaMu.Lock()
		seq = s.journal.seqNow()
		hist := s.store.Combined()
		s.deltaMu.Unlock()
		s.logger.Info("delta poll answered with full resync",
			"since", since, "seq", seq, "requestId", reqID)
		WriteSnapshotDelta(w, r, &SnapshotDelta{Epoch: s.epoch, Seq: seq, Full: true, Snapshot: hist.Snapshot()})
		return
	}
	reply := SnapshotDelta{Epoch: s.epoch, Seq: seq}
	// Carry the window's correlation IDs so the coordinator's delta log
	// lines up with this partition's ingest log, upload by upload.
	for _, e := range entries {
		if e.reqID != "" && len(reply.ReqIDs) < maxDeltaReqIDs {
			reply.ReqIDs = append(reply.ReqIDs, e.reqID)
		}
	}
	// Merge runs of consecutive additions; a rebalance eviction breaks
	// the run (ordering matters: evidence added before the drain was
	// drained, evidence added after it was not). Windows without
	// evictions keep the legacy single-snapshot shape.
	var ops []DeltaOp
	var merged *cumulative.History
	flush := func() {
		if merged != nil {
			ops = append(ops, DeltaOp{Snapshot: merged.Snapshot()})
			merged = nil
		}
	}
	hasEvict := false
	for _, e := range entries {
		if len(e.evict) > 0 {
			hasEvict = true
			flush()
			ops = append(ops, DeltaOp{Evict: e.evict})
			continue
		}
		if merged == nil {
			merged = cumulative.NewHistory(s.store.cfg)
		}
		if e.snap != nil {
			merged.Absorb(e.snap)
		}
		// v2 uploads are journaled pre-split; Absorb is commutative over
		// the parts' disjoint key sets, so folding them one by one equals
		// folding the original batch.
		for _, p := range e.parts {
			merged.Absorb(p)
		}
	}
	flush()
	switch {
	case hasEvict:
		reply.Ops = ops
	case len(ops) == 1:
		reply.Snapshot = ops[0].Snapshot
	}
	s.logger.Debug("deltas served",
		"since", since, "seq", seq, "entries", len(entries), "requestId", reqID)
	WriteSnapshotDelta(w, r, &reply)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	reqID := EchoRequestID(w, r)
	s.logger.Debug("status served", "requestId", reqID)
	WriteJSON(w, StatusReply{
		Build:       version.String(),
		Version:     s.log.Version(),
		Sites:       s.store.Sites(),
		Runs:        s.store.Runs(),
		FailedRuns:  s.store.FailedRuns(),
		CorruptRuns: s.store.CorruptRuns(),
		Batches:     s.store.Batches(),
		Clients:     s.store.Clients(),
		Reports:     s.reportSeen.Load(),
		PatchLen:    s.log.Len(),
		UptimeSec:   int64(time.Since(s.start).Seconds()),
		Corrections: s.corrections.Load(),
		RateLimited: s.limited.Load(),
		DirtyKeys:   s.store.DirtyKeys(),
		Deduped:     s.deduped.Load(),
		Seq:         s.journal.seqNow(),
		RingVersion: s.ringVersion.Load(),
		Evictions:   s.evictions.Load(),
		Shards:      s.store.ShardStats(),
	})
}

// DecodeJSONBody strictly decodes one JSON document from the request,
// transparently decompressing gzip-encoded bodies (Content-Encoding:
// gzip — the client's default upload encoding). limit bounds both the
// compressed bytes read off the wire and the decompressed bytes fed to
// the decoder, so a decompression bomb cannot expand past it. Exported
// so every fleet tier (the cluster coordinator included) accepts
// exactly the request bodies fleet.Client sends.
func DecodeJSONBody(w http.ResponseWriter, r *http.Request, limit int64, dst any) error {
	_, _, err := decodeBodyMetered(w, r, limit, dst)
	return err
}

// decodeBodyMetered is DecodeJSONBody additionally reporting the bytes
// read off the wire (compressed, when the client gzips) and the decoded
// body bytes fed to the JSON decoder — the pair behind the ingest
// byte/gzip-ratio metrics. Byte counts are valid even on error (they
// cover whatever was consumed before the failure).
func decodeBodyMetered(w http.ResponseWriter, r *http.Request, limit int64, dst any) (wireBytes, bodyBytes int64, err error) {
	wire := &countReader{r: http.MaxBytesReader(w, r.Body, limit)}
	var body io.Reader = wire
	gz := false
	if enc := r.Header.Get("Content-Encoding"); enc != "" {
		if !strings.EqualFold(enc, "gzip") {
			return wire.n, wire.n, fmt.Errorf("fleet: unsupported Content-Encoding %q", enc)
		}
		zr, zerr := gzip.NewReader(body)
		if zerr != nil {
			return wire.n, 0, fmt.Errorf("fleet: decode gzip body: %w", zerr)
		}
		defer zr.Close()
		// Stream straight into the decoder — no full-body buffer — but
		// fail as soon as the decompressed stream exceeds the limit.
		body = &boundedReader{r: zr, remaining: limit + 1, limit: limit}
		gz = true
	}
	decoded := &countReader{r: body}
	dec := json.NewDecoder(decoded)
	bytesRead := func() (int64, int64) {
		if gz {
			return wire.n, decoded.n
		}
		return wire.n, wire.n
	}
	if err := dec.Decode(dst); err != nil {
		wireBytes, bodyBytes = bytesRead()
		return wireBytes, bodyBytes, fmt.Errorf("fleet: decode body: %w", err)
	}
	if dec.More() {
		wireBytes, bodyBytes = bytesRead()
		return wireBytes, bodyBytes, fmt.Errorf("fleet: decode body: trailing data")
	}
	wireBytes, bodyBytes = bytesRead()
	return wireBytes, bodyBytes, nil
}

// readBodyMetered reads a raw (non-JSON) request body into buf,
// applying the same wire/decompression limits and byte accounting as
// decodeBodyMetered: limit bounds both the compressed bytes and the
// decompressed expansion, and the returned counts are valid even on
// error. The v2 ingest path uses it to land a whole binary frame in one
// pooled buffer before decoding.
func readBodyMetered(w http.ResponseWriter, r *http.Request, limit int64, buf *codec.Buffer) (wireBytes, bodyBytes int64, err error) {
	wire := &countReader{r: http.MaxBytesReader(w, r.Body, limit)}
	var body io.Reader = wire
	gz := false
	if enc := r.Header.Get("Content-Encoding"); enc != "" {
		if !strings.EqualFold(enc, "gzip") {
			return wire.n, wire.n, fmt.Errorf("fleet: unsupported Content-Encoding %q", enc)
		}
		zr, zerr := gzip.NewReader(body)
		if zerr != nil {
			return wire.n, 0, fmt.Errorf("fleet: decode gzip body: %w", zerr)
		}
		defer zr.Close()
		body = &boundedReader{r: zr, remaining: limit + 1, limit: limit}
		gz = true
	}
	decoded := &countReader{r: body}
	for {
		if len(buf.B) == cap(buf.B) {
			buf.B = append(buf.B, 0)[:len(buf.B)]
		}
		n, rerr := decoded.Read(buf.B[len(buf.B):cap(buf.B)])
		buf.B = buf.B[:len(buf.B)+n]
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			if !gz {
				return wire.n, wire.n, fmt.Errorf("fleet: read body: %w", rerr)
			}
			return wire.n, decoded.n, fmt.Errorf("fleet: read body: %w", rerr)
		}
	}
	if gz {
		return wire.n, decoded.n, nil
	}
	return wire.n, wire.n, nil
}

// countReader counts the bytes read through it.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// boundedReader errors once more than limit bytes have been read — the
// decompressed-size analogue of http.MaxBytesReader, with O(1) memory.
type boundedReader struct {
	r         io.Reader
	remaining int64 // limit+1: consuming the extra byte is the violation
	limit     int64
}

func (b *boundedReader) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, fmt.Errorf("fleet: decompressed body exceeds %d bytes", b.limit)
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.r.Read(p)
	b.remaining -= int64(n)
	if b.remaining <= 0 && (err == nil || err == io.EOF) {
		// The stream delivered limit+1 bytes (even if it ended exactly
		// there): over the cap either way.
		err = fmt.Errorf("fleet: decompressed body exceeds %d bytes", b.limit)
	}
	return n, err
}

// WriteJSON encodes v as the response body with the JSON content type —
// the response-side twin of DecodeJSONBody, shared by every fleet tier.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Fleet snapshot container: the dedup window, the required ring version,
// the rebalance evict cache, and the evidence store in the cumulative
// persist format. Persisting the window alongside the evidence is what
// carries exactly-once ingest across restarts: a batch absorbed before
// the snapshot and retried after the restore is still recognized as a
// duplicate. Plain cumulative history files (what SaveSnapshot wrote
// before the container existed) still load, with an empty window;
// version-1 containers (pre-rebalancing) load with ring version 0 and an
// empty evict cache.
const (
	fleetSnapMagic   = 0x4E534658 // "XFSN" little-endian
	fleetSnapVersion = 2
	// maxSnapIDs bounds decoded dedup IDs against corrupt files.
	maxSnapIDs = 1 << 20
	// maxSnapEvicts/maxEvictBytes bound the decoded evict cache.
	maxSnapEvicts = 1 << 10
	maxEvictBytes = 1 << 28
)

// fleetSnapState is everything SaveSnapshot persists, captured at one
// consistent point.
type fleetSnapState struct {
	ids    []string
	ring   uint64
	evicts []evictEntry
	hist   *cumulative.History
}

// SaveSnapshot writes the combined evidence store, the dedup window, the
// required ring version and the evict cache to path (write-to-temp, then
// rename, so a crash mid-write never corrupts the previous snapshot).
// The whole state is captured under deltaMu held exclusively, so the
// dedup IDs correspond exactly to the evidence: no batch can slip
// between the two captures, which is what makes restore-and-retry
// lossless (an ID in the window without its evidence would make the
// server drop the retry as a duplicate).
func (s *Server) SaveSnapshot(path string) error {
	s.deltaMu.Lock()
	st := fleetSnapState{
		hist: s.store.Combined(),
		ring: s.ringVersion.Load(),
	}
	if s.dedup != nil {
		st.ids = s.dedup.ids()
	}
	st.evicts = s.evicts.entries()
	s.deltaMu.Unlock()

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".fleet-snap-*")
	if err != nil {
		return fmt.Errorf("fleet: snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := writeFleetSnapshot(tmp, st); err != nil {
		tmp.Close()
		return fmt.Errorf("fleet: snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("fleet: snapshot: %w", err)
	}
	return os.Rename(tmp.Name(), path)
}

// LoadSnapshot restores evidence (and the dedup window) from a snapshot
// file written by SaveSnapshot and runs a correction pass so the patch
// log is warm before the first poll. A missing file is not an error
// (fresh start); a pre-container file (bare cumulative history) restores
// with an empty dedup window.
func (s *Server) LoadSnapshot(path string) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("fleet: restore: %w", err)
	}
	defer f.Close()
	st, err := readFleetSnapshot(f)
	if err != nil {
		return fmt.Errorf("fleet: restore %s: %w", path, err)
	}
	if s.dedup != nil {
		s.dedup.restore(st.ids)
	}
	s.evicts.restore(st.evicts)
	if st.ring > 0 {
		s.RequireRingVersion(st.ring)
	}
	// Restored evidence enters the store without a journal entry, so any
	// journal cursor issued before this point (including 0) can no longer
	// reconstruct the store from deltas — invalidate them all, forcing
	// pollers onto the full-resync path.
	s.deltaMu.Lock()
	s.store.AbsorbHistory(st.hist)
	s.journal.invalidate()
	s.deltaMu.Unlock()
	s.Correct()
	return nil
}

// writeFleetSnapshot emits the container: magic, version, ring version,
// evict cache, dedup IDs, then the history in the cumulative persist
// format.
func writeFleetSnapshot(w io.Writer, st fleetSnapState) error {
	bw := bufio.NewWriter(w)
	u32 := func(v uint32) { binary.Write(bw, binary.LittleEndian, v) }
	u32(fleetSnapMagic)
	u32(fleetSnapVersion)
	binary.Write(bw, binary.LittleEndian, st.ring)
	u32(uint32(len(st.evicts)))
	for _, e := range st.evicts {
		blob, err := json.Marshal(e.Snap)
		if err != nil {
			return err
		}
		u32(uint32(len(e.Token)))
		bw.WriteString(e.Token)
		u32(uint32(len(blob)))
		bw.Write(blob)
	}
	u32(uint32(len(st.ids)))
	for _, id := range st.ids {
		u32(uint32(len(id)))
		bw.WriteString(id)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return st.hist.Encode(w)
}

// readFleetSnapshot decodes a container written by writeFleetSnapshot —
// any supported version — or a legacy bare cumulative history file
// (empty window, ring version 0).
func readFleetSnapshot(r io.Reader) (fleetSnapState, error) {
	var st fleetSnapState
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err != nil {
		return st, err
	}
	if binary.LittleEndian.Uint32(head) != fleetSnapMagic {
		st.hist, err = cumulative.DecodeHistory(br)
		return st, err
	}
	var magic, version uint32
	read := func(v *uint32) {
		if err == nil {
			err = binary.Read(br, binary.LittleEndian, v)
		}
	}
	readStr := func(limit uint32, what string) string {
		var l uint32
		read(&l)
		if err == nil && l > limit {
			err = fmt.Errorf("implausible %s length %d", what, l)
		}
		if err != nil {
			return ""
		}
		// Copy instead of a trusting make([]byte, l): a forged length
		// prefix must fail with a short read, not a huge allocation.
		var buf bytes.Buffer
		if _, rerr := io.CopyN(&buf, br, int64(l)); rerr != nil {
			err = rerr
			return ""
		}
		return buf.String()
	}
	read(&magic)
	read(&version)
	if err != nil {
		return st, err
	}
	if version < 1 || version > fleetSnapVersion {
		return st, fmt.Errorf("unsupported fleet snapshot version %d", version)
	}
	if version >= 2 {
		if err = binary.Read(br, binary.LittleEndian, &st.ring); err != nil {
			return st, err
		}
		var ne uint32
		read(&ne)
		if err == nil && ne > maxSnapEvicts {
			err = fmt.Errorf("implausible evict cache size %d", ne)
		}
		for i := uint32(0); err == nil && i < ne; i++ {
			tok := readStr(1024, "evict token")
			blob := readStr(maxEvictBytes, "evict snapshot")
			if err != nil {
				break
			}
			var snap cumulative.Snapshot
			if jerr := json.Unmarshal([]byte(blob), &snap); jerr != nil {
				err = jerr
				break
			}
			st.evicts = append(st.evicts, evictEntry{Token: tok, Snap: &snap})
		}
		if err != nil {
			return st, fmt.Errorf("fleet snapshot evict cache: %w", err)
		}
	}
	var n uint32
	read(&n)
	if err != nil {
		return st, err
	}
	if n > maxSnapIDs {
		return st, fmt.Errorf("implausible dedup id count %d", n)
	}
	for i := uint32(0); i < n; i++ {
		id := readStr(1024, "dedup id")
		if err != nil {
			return st, fmt.Errorf("fleet snapshot dedup id: %w", err)
		}
		st.ids = append(st.ids, id)
	}
	st.hist, err = cumulative.DecodeHistory(br)
	return st, err
}

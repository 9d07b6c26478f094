package fleet

import (
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
)

// PatchETag formats the strong validator every patch-serving tier
// (fleetd, coordinator, read replica) stamps on GET /v1/patches: the
// serving incarnation's epoch and its patch-log version. The pair
// changes exactly when the body could — a version bump within an epoch,
// or a failover to a new epoch — so If-None-Match revalidation is
// correct by construction.
func PatchETag(epoch, version uint64) string {
	return fmt.Sprintf("%q", fmt.Sprintf("e%d.v%d", epoch, version))
}

// MatchETag stamps etag on the response and, when the request's
// If-None-Match presents the same validator, answers 304 Not Modified
// and reports true — the caller must not write a body. CDN-style
// fan-out lives on this: an unchanged patch log costs a replica (and
// the coordinator behind it) a handful of header bytes per poller.
func MatchETag(w http.ResponseWriter, r *http.Request, etag string) bool {
	w.Header().Set("ETag", etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && inm == etag {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

// ServePatches is GET /v1/patches on every tier that serves patches
// (fleetd, coordinator, read replica): entries of log added after
// ?since=N, stamped with epoch in the body and the ETag validator, in
// the codec the request's Accept header negotiates. It reports whether
// it answered 304 Not Modified, so each tier keeps its own counters.
func ServePatches(w http.ResponseWriter, r *http.Request, log *PatchLog, epoch uint64, logger *slog.Logger) (notModified bool) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return false
	}
	reqID := EchoRequestID(w, r)
	since, ok := sinceParam(w, r)
	if !ok {
		return false
	}
	version := log.Version()
	if MatchETag(w, r, PatchETag(epoch, version)) {
		logger.Debug("patches revalidated (304)",
			"since", since, "version", version, "requestId", reqID)
		return true
	}
	wire := log.wireSince(since)
	wire.Epoch = epoch
	if wire.Version != version {
		// A fold landed after the validator was stamped.
		w.Header().Set("ETag", PatchETag(epoch, wire.Version))
	}
	logger.Debug("patches served", "since", since, "version", wire.Version,
		"entries", len(wire.Pads)+len(wire.FrontPads)+len(wire.Deferrals), "requestId", reqID)
	writePatchSet(w, r, wire)
	return false
}

// sinceParam parses a poll's ?since= cursor (absent means 0), answering
// 400 and reporting false on a malformed value.
func sinceParam(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	q := r.URL.Query().Get("since")
	if q == "" {
		return 0, true
	}
	v, err := strconv.ParseUint(q, 10, 64)
	if err != nil {
		http.Error(w, "fleet: bad since: "+err.Error(), http.StatusBadRequest)
		return 0, false
	}
	return v, true
}

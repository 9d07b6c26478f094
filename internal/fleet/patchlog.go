package fleet

import (
	"sync"

	"exterminator/internal/patch"
)

// PatchLog is the versioned patch store behind GET /v1/patches. Every
// correction pass folds its freshly derived patch.Set into the log; when
// the fold actually improves the cumulative set (patches compose by
// maxima, so improvement means a new site or a larger pad/deferral), the
// version increments and the improvement is retained as a delta. Clients
// poll with the last version they saw and receive only the entries added
// since — usually nothing. A read replica mirrors an upstream log with
// NewPatchLogAt and Advance, whose deltas may span several versions.
type PatchLog struct {
	mu      sync.RWMutex
	version uint64
	full    *patch.Set
	// deltas are the retained increments in version order: deltas[i]
	// holds exactly the entries of versions (deltas[i-1].to, deltas[i].to]
	// (the first starts at base).
	deltas []logDelta
	// base is the version the oldest retained delta builds on. Polls with
	// since < base are answered with the full set (resync).
	base uint64
}

type logDelta struct {
	to  uint64
	set *patch.Set
}

// maxDeltas bounds retained history; beyond it old deltas compact away and
// stale pollers resync from the full set.
const maxDeltas = 256

// NewPatchLog returns an empty log at version 0.
func NewPatchLog() *PatchLog { return NewPatchLogAt(patch.New(), 0) }

// NewPatchLogAt returns a log at version whose cumulative set is full,
// which the log takes ownership of. It retains no deltas, so polls below
// version get the full set. A read replica starts its mirror of an
// upstream log this way on every full resync.
func NewPatchLogAt(full *patch.Set, version uint64) *PatchLog {
	return &PatchLog{full: full, version: version, base: version}
}

// Fold merges ps into the log. It returns the (possibly new) version and
// whether the log changed.
func (l *PatchLog) Fold(ps *patch.Set) (uint64, bool) {
	if ps == nil {
		return l.Version(), false
	}
	l.mu.Lock()
	defer l.mu.Unlock()

	delta := ps.Diff(l.full)
	if delta.Len() == 0 {
		return l.version, false
	}
	l.append(delta, l.version+1)
	return l.version, true
}

// Advance records that version to introduced exactly the entries of
// delta, which the log takes ownership of. A to at or below the current
// version is ignored.
func (l *PatchLog) Advance(delta *patch.Set, to uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if to > l.version {
		l.append(delta, to)
	}
}

func (l *PatchLog) append(delta *patch.Set, to uint64) {
	l.full.Merge(delta)
	l.version = to
	l.deltas = append(l.deltas, logDelta{to: to, set: delta})
	if len(l.deltas) > maxDeltas {
		drop := len(l.deltas) - maxDeltas/2
		l.base = l.deltas[drop-1].to
		l.deltas = append([]logDelta(nil), l.deltas[drop:]...)
	}
}

// Since returns the union of entries added after version since, plus the
// current version. A since at or beyond the current version yields an
// empty set; a since older than the retained delta window (or from a
// previous server incarnation, i.e. ahead of the current version) yields
// the full set — merging it is idempotent, so over-answering is safe. So
// is a since inside a multi-version delta: the whole delta is returned.
func (l *PatchLog) Since(since uint64) (*patch.Set, uint64) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	ps := l.since(since)
	if ps == l.full {
		ps = ps.Clone()
	}
	return ps, l.version
}

// wireSince is Since rendered straight to the wire form under the read
// lock, without copying the cumulative set first.
func (l *PatchLog) wireSince(since uint64) *WirePatchSet {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return ToWire(l.since(since), l.version)
}

// since answers Since under l.mu. A full-set answer is l.full itself,
// which the caller must not mutate or let escape the lock.
func (l *PatchLog) since(since uint64) *patch.Set {
	if since > l.version || since < l.base {
		// A version this incarnation never issued (the server restarted
		// from a snapshot), or one older than the retained window: resync.
		return l.full
	}
	out := patch.New()
	for _, d := range l.deltas {
		if d.to > since {
			out.Merge(d.set)
		}
	}
	return out
}

// Full returns a copy of the cumulative set and its version.
func (l *PatchLog) Full() (*patch.Set, uint64) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.full.Clone(), l.version
}

// Version returns the current version.
func (l *PatchLog) Version() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.version
}

// Len returns the number of entries in the cumulative set.
func (l *PatchLog) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.full.Len()
}

package fleet

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"exterminator/internal/cumulative"
	"exterminator/internal/site"
)

// Store is the server-side evidence pool: cumulative-mode histories
// sharded by call site across mutex-striped partitions. Concurrent
// ingests touching different shards never contend; ingests touching the
// same shard serialize on that shard's lock only.
//
// Overflow evidence stripes by allocation site; dangling evidence, pad
// hints and deferral hints stripe by the (allocation-side) site of their
// key, so every key deterministically lives in exactly one shard and
// Combined can union the shards without deduplication.
type Store struct {
	cfg    cumulative.Config
	shards []storeShard

	runs        atomic.Int64
	failedRuns  atomic.Int64
	corruptRuns atomic.Int64
	batches     atomic.Int64

	clientMu sync.Mutex
	clients  map[string]bool
}

type storeShard struct {
	mu   sync.Mutex
	hist *cumulative.History
}

// DefaultShards is the default stripe count. Call-site hashes are well
// distributed (DJB2), so modest striping already removes almost all
// contention.
const DefaultShards = 16

// NewStore returns an empty store with n shards (n <= 0 means
// DefaultShards).
func NewStore(n int, cfg cumulative.Config) *Store {
	if n <= 0 {
		n = DefaultShards
	}
	st := &Store{
		cfg:     cfg,
		shards:  make([]storeShard, n),
		clients: make(map[string]bool),
	}
	for i := range st.shards {
		st.shards[i].hist = cumulative.NewHistory(cfg)
	}
	return st
}

// shardIndex maps a site ID to its shard. Fibonacci mixing spreads
// consecutive synthetic site IDs (tests use 0x100, 0x101, ...) as well as
// real DJB2 hashes.
func (st *Store) shardIndex(id site.ID) int {
	return int((uint32(id) * 2654435761) % uint32(len(st.shards)))
}

// NumShards returns the stripe count.
func (st *Store) NumShards() int { return len(st.shards) }

// ShardIndex exposes the shard mapping for callers that pre-split work
// along the store's own stripes (the v2 ingest path decodes uploads
// directly into per-shard parts using this function, so the decoded
// split and the store's split are the same split by construction).
func (st *Store) ShardIndex(id site.ID) int { return st.shardIndex(id) }

// AbsorbSnapshot folds one uploaded snapshot into the store: split
// along the shards (splitParts), then AbsorbParts.
func (st *Store) AbsorbSnapshot(s *cumulative.Snapshot) {
	if s == nil {
		return
	}
	st.AbsorbParts(st.splitParts(s))
}

// splitParts splits a snapshot into per-shard sub-snapshots by the same
// rule codec.DecodeBatchSharded applies to a v2 frame: overflow, pad
// hints and the site set shard by site, dangling evidence and deferral
// hints by their allocation side, and run counters ride the first
// non-nil part (part 0 is created for a batch with counters but no
// evidence). Absorbing or journaling the parts is therefore the same
// whichever codec carried the batch.
func (st *Store) splitParts(s *cumulative.Snapshot) []*cumulative.Snapshot {
	parts := make([]*cumulative.Snapshot, len(st.shards))
	part := func(i int) *cumulative.Snapshot {
		if parts[i] == nil {
			parts[i] = &cumulative.Snapshot{C: s.C, P: s.P}
		}
		return parts[i]
	}
	for _, id := range s.Sites {
		p := part(st.shardIndex(id))
		p.Sites = append(p.Sites, id)
	}
	for _, so := range s.Overflow {
		p := part(st.shardIndex(so.Site))
		p.Overflow = append(p.Overflow, so)
	}
	for _, po := range s.Dangling {
		p := part(st.shardIndex(po.Alloc))
		p.Dangling = append(p.Dangling, po)
	}
	for _, h := range s.PadHints {
		p := part(st.shardIndex(h.Site))
		p.PadHints = append(p.PadHints, h)
	}
	for _, h := range s.DeferralHints {
		p := part(st.shardIndex(h.Alloc))
		p.DeferralHints = append(p.DeferralHints, h)
	}
	if s.Runs != 0 || s.FailedRuns != 0 || s.CorruptRuns != 0 {
		carrier := 0
		for i, p := range parts {
			if p != nil {
				carrier = i
				break
			}
		}
		p := part(carrier)
		p.Runs, p.FailedRuns, p.CorruptRuns = s.Runs, s.FailedRuns, s.CorruptRuns
	}
	return parts
}

// AbsorbParts folds one upload already split into per-shard
// sub-snapshots (splitParts, or codec.DecodeBatchSharded keyed by
// ShardIndex) — the one absorb path every ingest takes. Each shard is
// locked once. Run counters may appear on any part; they are summed
// into the global atomics (they are tracked globally, not per shard)
// and stripped before the shard absorb.
func (st *Store) AbsorbParts(parts []*cumulative.Snapshot) {
	for _, p := range parts {
		if p == nil {
			continue
		}
		st.runs.Add(int64(p.Runs))
		st.failedRuns.Add(int64(p.FailedRuns))
		st.corruptRuns.Add(int64(p.CorruptRuns))
	}
	st.batches.Add(1)
	for i, p := range parts {
		if p == nil {
			continue
		}
		q := *p
		q.Runs, q.FailedRuns, q.CorruptRuns = 0, 0, 0
		sh := &st.shards[i]
		sh.mu.Lock()
		sh.hist.Absorb(&q)
		sh.mu.Unlock()
	}
}

// Extract atomically removes and returns the canonical evidence for a
// key set — the store-level half of a rebalance drain (Server.Evict
// holds the delta lock, making the extraction exclusive against ingest).
// Each key lives in exactly one shard, so the per-shard extractions
// union without overlap; run counters are not keyed and stay put.
func (st *Store) Extract(keys []site.ID) *cumulative.Snapshot {
	perShard := make(map[int][]site.ID)
	for _, k := range keys {
		i := st.shardIndex(k)
		perShard[i] = append(perShard[i], k)
	}
	tmp := cumulative.NewHistory(st.cfg)
	for i, ks := range perShard {
		sh := &st.shards[i]
		sh.mu.Lock()
		snap := sh.hist.Extract(ks)
		sh.mu.Unlock()
		tmp.Absorb(snap)
	}
	return tmp.Snapshot()
}

// maxClients bounds the distinct-installation statistic: IDs are
// client-chosen, so an unbounded set would let one misbehaving client
// grow server memory without limit.
const maxClients = 1 << 16

// NoteClient records an installation identifier for statistics. Beyond
// maxClients distinct IDs, new ones are counted as existing (the
// statistic saturates rather than the map growing unboundedly).
func (st *Store) NoteClient(id string) {
	if id == "" {
		return
	}
	st.clientMu.Lock()
	if len(st.clients) < maxClients || st.clients[id] {
		st.clients[id] = true
	}
	st.clientMu.Unlock()
}

// Clients returns the number of distinct installation identifiers seen.
func (st *Store) Clients() int {
	st.clientMu.Lock()
	defer st.clientMu.Unlock()
	return len(st.clients)
}

// Combined merges every shard into one history carrying the global run
// counters. Shard snapshots are taken under the shard lock one at a time,
// so Combined never blocks the whole store; the result is canonically
// ordered (see cumulative.Snapshot), making Identify independent of the
// order in which evidence arrived.
func (st *Store) Combined() *cumulative.History {
	hist := cumulative.NewHistory(st.cfg)
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		snap := sh.hist.Snapshot()
		sh.mu.Unlock()
		hist.Absorb(snap)
	}
	hist.Runs = int(st.runs.Load())
	hist.FailedRuns = int(st.failedRuns.Load())
	hist.CorruptRuns = int(st.corruptRuns.Load())
	return hist
}

// Identify runs the Bayesian hypothesis test shard by shard without ever
// materializing a merged history: each shard holds a disjoint slice of
// the logical evidence pool (keys stripe deterministically), so testing
// its keys against the *global* site count N decides exactly as an
// unsharded store would. Passes are incremental — each shard's History
// caches Bayes factors and rescores only keys whose evidence changed
// since the last pass — which is what keeps correction O(dirty sites),
// not O(all sites), as the fleet grows.
//
// Shards are scored by an elastic pool of min(GOMAXPROCS, shards)
// goroutines, each holding exactly one shard lock at a time (no nesting,
// so no ordering constraint between shard locks). Per-shard results land
// in indexed slots and merge in shard order, so the pool width never
// changes the findings.
func (st *Store) Identify() *cumulative.Findings {
	n := st.Sites()
	f := &cumulative.Findings{}
	if n == 0 {
		return f
	}
	workers := min(runtime.GOMAXPROCS(0), len(st.shards))
	results := make([]*cumulative.Findings, len(st.shards))
	next := atomic.Int64{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(st.shards) {
					return
				}
				sh := &st.shards[i]
				sh.mu.Lock()
				results[i] = sh.hist.IdentifyWithSites(n)
				sh.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, sf := range results {
		f.Overflows = append(f.Overflows, sf.Overflows...)
		f.Danglings = append(f.Danglings, sf.Danglings...)
	}
	return f
}

// TriageCandidates collects every shard's per-site candidates for a
// triage pass, unordered. Keys stripe deterministically across shards,
// so concatenation is exactly the unsharded candidate set; the triage
// engine sorts members in key order, so input order does not matter.
func (st *Store) TriageCandidates() (over, dang []cumulative.Candidate) {
	overs := make([][]cumulative.Candidate, len(st.shards))
	dangs := make([][]cumulative.Candidate, len(st.shards))
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		overs[i], dangs[i] = sh.hist.OverflowCandidates(), sh.hist.DanglingCandidates()
		sh.mu.Unlock()
	}
	return slices.Concat(overs...), slices.Concat(dangs...)
}

// Threshold returns the store-wide identification threshold cN−1, with
// N the global distinct-site count — the same N Identify tests against.
func (st *Store) Threshold() float64 {
	return st.cfg.C*float64(st.Sites()) - 1
}

// DirtyKeys returns the number of evidence keys (overflow sites plus
// dangling pairs) changed since the last correction pass — the work the
// next pass will do.
func (st *Store) DirtyKeys() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		n += sh.hist.DirtyKeys()
		sh.mu.Unlock()
	}
	return n
}

// ShardStats returns per-shard evidence counts for operator visibility
// (GET /v1/status): rebalance skew and recompute backlog show up here.
func (st *Store) ShardStats() []ShardStatus {
	out := make([]ShardStatus, len(st.shards))
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		out[i] = ShardStatus{
			Sites:        sh.hist.Sites(),
			OverflowKeys: sh.hist.OverflowKeys(),
			DanglingKeys: sh.hist.DanglingKeys(),
			DirtyKeys:    sh.hist.DirtyKeys(),
		}
		sh.mu.Unlock()
	}
	return out
}

// DrainCounters atomically zeroes the global run counters and returns
// their prior values — the final step of draining a partition that is
// leaving the cluster (counters are not keyed, so Extract cannot move
// them). Callers serialize against ingest (Server.Evict holds the delta
// lock exclusively).
func (st *Store) DrainCounters() (runs, failed, corrupt int64) {
	return st.runs.Swap(0), st.failedRuns.Swap(0), st.corruptRuns.Swap(0)
}

// Runs returns the fleet-wide run count.
func (st *Store) Runs() int64 { return st.runs.Load() }

// FailedRuns returns the fleet-wide failed-run count.
func (st *Store) FailedRuns() int64 { return st.failedRuns.Load() }

// CorruptRuns returns the fleet-wide corrupt-run count.
func (st *Store) CorruptRuns() int64 { return st.corruptRuns.Load() }

// Batches returns the number of observation batches absorbed.
func (st *Store) Batches() int64 { return st.batches.Load() }

// Sites returns the fleet-wide number of distinct allocation sites.
func (st *Store) Sites() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		n += sh.hist.Sites()
		sh.mu.Unlock()
	}
	return n
}

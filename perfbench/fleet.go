package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"exterminator/internal/cluster"
	"exterminator/internal/cumulative"
	"exterminator/internal/engine"
	"exterminator/internal/fleet"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/inject"
	"exterminator/internal/mutator"
	"exterminator/internal/patch"
	"exterminator/internal/site"
	"exterminator/internal/telemetry"
	"exterminator/internal/xrand"
)

// Load shape. Every background session is a real installation upload:
// the evidence of fleetSessionRuns engine cumulative-mode runs of
// espresso carrying one injected fault, as the repository's fleet
// example uploads (examples/fleet: runsPerBatch = 2). Set-up records
// fleetPool such uploads and relocates each one it sends into one of
// fleetApps application slots, renaming its sites, so that the fleet
// sees many programs with espresso's evidence shape (12 sites; 145
// dangling pairs and an overflow observation per site on the runs that
// fail or corrupt). Slots are drawn by Zipf popularity with exponent
// 0.8, inside the 0.64-0.83 range Breslau et al. (INFOCOM 1999) measured
// for request popularity.
//
// The control plane runs on fleetd's default poll interval, one second.
// The rate sits below the knee: with this shape a correction pass over
// the ~2000-site universe (and its ~20000 dangling pairs) cost 100-130 ms
// per one-second round on a 2-vCPU host at 25 sessions/s, and 50-90 ms
// per 200 ms round, most of it a fixed cost per pass; as the rate grows
// the pass grows toward the cadence and rounds overrun
// (coordinator.overrun_share). Evidence-to-patch is the wait for the next
// round plus that pass, whose wall time follows the host's speed. With a
// 200 ms cadence the pass was a third of it, and a host whose speed
// swings over minutes moved it by a tenth between identical runs.
const (
	fleetPartitions  = 3
	fleetApps        = 166 // application slots: 166 x 12 sites = 1992
	fleetZipf        = 0.8 // popularity skew over the slots
	fleetPool        = 64  // recorded installation uploads
	fleetSessionRuns = 2   // engine runs per upload
	fleetRate        = 25  // sessions per second, open loop
	fleetCadence     = time.Second
	// Every fleetBugEvery-th session carries fresh indicting evidence for
	// a new bug site, enough to cross the threshold on its own, so that
	// evidence-to-patch times the pipeline and not the accumulation; a
	// 20-second run then has 125 bugs, so that p90 has more than ten
	// samples beyond it. Sessions are 40 ms apart, so 4 sessions are
	// 160 ms: successive bugs land on 25 phases of the one-second cadence,
	// 40 ms apart, and every seed sees the same phase mix.
	fleetBugEvery = 4
	// fleetPhase offsets the schedule so that no bug upload is due less
	// than 30 ms before a tick, where it would race the poll.
	fleetPhase = 10 * time.Millisecond
	// fleetReadEvery is incommensurate with the session slots and the
	// cadence, so the reader's phase against each bug's patch varies from
	// bug to bug instead of repeating.
	fleetReadEvery = 4300 * time.Microsecond
	// fleetPreseed background sessions (twelve seconds of traffic) are
	// absorbed in set-up, so that correction starts on a warm store.
	fleetPreseed = 300
	fleetDrain   = 3 // cadence rounds after the last upload
)

// fleetBug is a site (overflow) or pair (dangling) whose evidence alone
// crosses the Bayesian threshold.
type fleetBug struct {
	index    int
	dangling bool
	site     site.ID // overflow site, or the pair's allocation site
	pair     site.Pair
}

func (b *fleetBug) servedIn(ps *patch.Set) bool {
	if b.dangling {
		return ps.Deferral(b.pair) > 0
	}
	return ps.Pad(b.site) > 0
}

type fleetSession struct {
	due  time.Duration // offset from the schedule start
	snap *cumulative.Snapshot
}

// fleetInputs is the generated upload schedule and pre-seeded evidence.
type fleetInputs struct {
	preseed  *cumulative.Snapshot
	sessions []fleetSession
	bugs     []*fleetBug
}

// genFleet generates n scheduled sessions and the pre-seed evidence.
func genFleet(seed uint64, n int) (*fleetInputs, error) {
	rng := xrand.New(seed ^ 0xF1EE7)
	pool, err := recordUploads(rng.Uint64())
	if err != nil {
		return nil, err
	}
	salts := make([]uint32, fleetApps)
	for i := range salts {
		salts[i] = rng.Uint32()
	}
	cdf := make([]float64, fleetApps)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), fleetZipf)
		cdf[i] = total
	}
	// Sessions take the uploads in turn, in a seeded order, and the slots
	// by a golden-ratio sequence from a seeded start, which meets the
	// popularity of every slot within a session or two. Then the seed
	// moves which upload lands in which slot, but not how many slots,
	// keys and uploads each run sees: the correction pass's cost follows
	// the number of keys.
	order := rng.Perm(len(pool))
	u := rng.Float64()
	next := 0
	background := func() *cumulative.Snapshot {
		app := sort.SearchFloat64s(cdf, u*total)
		u = math.Mod(u+0.6180339887498949, 1)
		up := pool[order[next%len(order)]]
		next++
		return relocate(up, salts[app])
	}
	in := &fleetInputs{}
	pre := cumulative.NewHistory(cumulative.DefaultConfig())
	for i := 0; i < fleetPreseed; i++ {
		pre.Absorb(background())
	}
	in.preseed = pre.Snapshot()
	for i := 0; i < n; i++ {
		s := fleetSession{due: fleetPhase + time.Duration(i)*time.Second/fleetRate, snap: background()}
		if i%fleetBugEvery == fleetBugEvery-1 {
			b := &fleetBug{index: len(in.bugs), dangling: len(in.bugs)%2 == 1}
			k := uint32(len(in.bugs))
			if b.dangling {
				b.site = site.ID(0x71000000 + k)
				b.pair = site.Pair{Alloc: b.site, Free: site.ID(0x72000000 + k)}
				s.snap.Dangling = append(s.snap.Dangling, cumulative.PairObservations{
					Alloc: b.pair.Alloc, Free: b.pair.Free,
					Obs: []cumulative.Observation{{X: 0.02, Y: true}, {X: 0.02, Y: true}, {X: 0.02, Y: true}},
				})
				s.snap.DeferralHints = append(s.snap.DeferralHints, cumulative.DeferralHint{
					Alloc: b.pair.Alloc, Free: b.pair.Free, Deferral: 64 + uint64(k%64)})
			} else {
				b.site = site.ID(0x70000000 + k)
				s.snap.Overflow = append(s.snap.Overflow, cumulative.SiteObservations{
					Site: b.site,
					Obs:  []cumulative.Observation{{X: 0.01, Y: true}, {X: 0.01, Y: true}, {X: 0.01, Y: true}},
				})
				s.snap.PadHints = append(s.snap.PadHints, cumulative.PadHint{Site: b.site, Pad: 8 + k%32})
			}
			s.snap.Sites = append(s.snap.Sites, b.site)
			canonical(s.snap)
			in.bugs = append(in.bugs, b)
		}
		in.sessions = append(in.sessions, s)
	}
	return in, nil
}

// recordUploads records the pool of installation uploads: each is the
// history snapshot of one engine cumulative-mode session of
// fleetSessionRuns runs on espresso, with one injected fault drawn as the
// cumulative workload draws its candidates. Half the pool carries a
// dangling fault and half an overflow, as in the fleet example. As in
// the cumulative workload, only faults that show are kept: a dangling
// upload enters the pool when one of its runs failed, an overflow upload
// when one of its runs left corruption. Candidates are recorded in
// batches, in candidate order.
func recordUploads(seed uint64) ([]*cumulative.Snapshot, error) {
	rng := xrand.New(seed)
	prog := espresso()
	progSeed := rng.Uint64()
	var pool []*cumulative.Snapshot
	need := map[inject.Kind]int{inject.Dangling: fleetPool / 2, inject.Overflow: fleetPool / 2}
	batch := 4 * cumWorkers()
	for tried := 0; len(pool) < fleetPool; tried += batch {
		if tried > 20*fleetPool {
			return nil, fmt.Errorf("upload recording: only %d of %d uploads carry evidence among %d candidates", len(pool), fleetPool, tried)
		}
		plans := make([]inject.Plan, batch)
		heaps := make([]uint64, batch)
		for i := range plans {
			k := tried + i
			plans[i] = inject.Plan{Kind: inject.Dangling, TriggerAlloc: 2100 + uint64(k%5)*80, Seed: rng.Uint64()}
			if k%2 == 1 {
				plans[i] = inject.Plan{Kind: inject.Overflow, TriggerAlloc: 400 + uint64(k%12)*150,
					Size: []int{4, 20, 36}[k%3], Seed: rng.Uint64()}
			}
			heaps[i] = rng.Uint64()
		}
		snaps := make([]*cumulative.Snapshot, batch)
		errs := make([]error, batch)
		parallel(batch, cumWorkers(), func(i int) {
			sess, err := engine.New(engine.Batch(prog),
				engine.WithMode(engine.ModeCumulative),
				engine.WithSeeds(heaps[i], progSeed),
				engine.WithMaxRuns(fleetSessionRuns),
				engine.WithHook(func() mutator.Hook { return inject.New(plans[i]) }))
			if err != nil {
				errs[i] = err
				return
			}
			res, err := sess.Run(context.Background())
			if err != nil {
				errs[i] = err
				return
			}
			snaps[i] = res.Cumulative.History.Snapshot()
		})
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
		for i, sn := range snaps {
			kind := plans[i].Kind
			if need[kind] > 0 && (kind == inject.Dangling && sn.FailedRuns > 0 || kind == inject.Overflow && sn.CorruptRuns > 0) {
				need[kind]--
				pool = append(pool, sn)
			}
		}
	}
	return pool, nil
}

// relocate copies an upload into the application slot whose sites are
// the upload's renamed by salt.
func relocate(s *cumulative.Snapshot, salt uint32) *cumulative.Snapshot {
	id := func(x site.ID) site.ID { return site.ID(uint32(x)*0x9E3779B1 ^ salt) }
	out := &cumulative.Snapshot{C: s.C, P: s.P, Runs: s.Runs, FailedRuns: s.FailedRuns, CorruptRuns: s.CorruptRuns}
	for _, x := range s.Sites {
		out.Sites = append(out.Sites, id(x))
	}
	for _, ov := range s.Overflow {
		out.Overflow = append(out.Overflow, cumulative.SiteObservations{Site: id(ov.Site), Obs: slices.Clone(ov.Obs)})
	}
	for _, d := range s.Dangling {
		out.Dangling = append(out.Dangling, cumulative.PairObservations{Alloc: id(d.Alloc), Free: id(d.Free), Obs: slices.Clone(d.Obs)})
	}
	for _, h := range s.PadHints {
		out.PadHints = append(out.PadHints, cumulative.PadHint{Site: id(h.Site), Pad: h.Pad})
	}
	for _, h := range s.DeferralHints {
		out.DeferralHints = append(out.DeferralHints, cumulative.DeferralHint{Alloc: id(h.Alloc), Free: id(h.Free), Deferral: h.Deferral})
	}
	canonical(out)
	return out
}

// canonical sorts a snapshot's lists into the order History.Snapshot
// produces.
func canonical(s *cumulative.Snapshot) {
	sort.Slice(s.Sites, func(i, j int) bool { return s.Sites[i] < s.Sites[j] })
	sort.Slice(s.Overflow, func(i, j int) bool { return s.Overflow[i].Site < s.Overflow[j].Site })
	sort.Slice(s.Dangling, func(i, j int) bool {
		a, b := s.Dangling[i], s.Dangling[j]
		if a.Alloc != b.Alloc {
			return a.Alloc < b.Alloc
		}
		return a.Free < b.Free
	})
	sort.Slice(s.PadHints, func(i, j int) bool { return s.PadHints[i].Site < s.PadHints[j].Site })
	sort.Slice(s.DeferralHints, func(i, j int) bool {
		a, b := s.DeferralHints[i], s.DeferralHints[j]
		if a.Alloc != b.Alloc {
			return a.Alloc < b.Alloc
		}
		return a.Free < b.Free
	})
}

// fleetCluster is the in-process loopback cluster.
type fleetCluster struct {
	partURLs []string
	regs     []*telemetry.Registry
	coord    *cluster.Coordinator
	rep      *cluster.Replica
	repURL   string
	router   *cluster.Router
	servers  []*http.Server
	wg       sync.WaitGroup
	// acked is what the generator got acknowledged, pre-seed included.
	ackMu      sync.Mutex
	ackedRuns  int64
	ackedSites map[site.ID]bool
}

// loopbackAddrs maps each node's fixed host name ("partition-0:80") to
// its listener. Ring placement hashes node URLs; fixed names keep it the
// same in every run instead of following ephemeral ports.
var loopbackAddrs sync.Map

func init() {
	t := http.DefaultTransport.(*http.Transport)
	dial := t.DialContext
	t.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if real, ok := loopbackAddrs.Load(addr); ok {
			addr = real.(string)
		}
		return dial(ctx, network, addr)
	}
}

// serve starts h on a loopback listener and returns its URL under name.
func (c *fleetCluster) serve(name string, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	loopbackAddrs.Store(name+":80", ln.Addr().String())
	srv := &http.Server{Handler: h}
	c.servers = append(c.servers, srv)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + name, nil
}

// close stops every listener and waits for the serve loops to exit.
func (c *fleetCluster) close() {
	for _, s := range c.servers {
		s.Close()
	}
	c.wg.Wait()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// startCluster brings up partitions, coordinator and replica, absorbs
// the pre-seed evidence and syncs it through to the replica.
func startCluster(in *fleetInputs) (*fleetCluster, error) {
	c := &fleetCluster{ackedSites: make(map[site.ID]bool)}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	cfg := cumulative.DefaultConfig()
	for i := 0; i < fleetPartitions; i++ {
		reg := telemetry.NewRegistry()
		srv := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1, DisableCorrection: true, Metrics: reg})
		u, err := c.serve(fmt.Sprintf("partition-%d", i), srv.Handler())
		if err != nil {
			return nil, err
		}
		c.partURLs = append(c.partURLs, u)
		c.regs = append(c.regs, reg)
	}
	var err error
	if c.coord, err = cluster.NewCoordinator(cluster.CoordinatorOptions{Partitions: c.partURLs, Config: cfg, WireV2: true}); err != nil {
		return nil, err
	}
	coordURL, err := c.serve("coordinator", c.coord.Handler())
	if err != nil {
		return nil, err
	}
	if c.rep, err = cluster.NewReplica(cluster.ReplicaOptions{Upstreams: []string{coordURL}, WireV2: true}); err != nil {
		return nil, err
	}
	if c.repURL, err = c.serve("replica", c.rep.Handler()); err != nil {
		return nil, err
	}
	if c.router, err = cluster.NewRouter("perfbench", c.partURLs...); err != nil {
		return nil, err
	}
	c.router.SetWireV2(true)
	ctx := context.Background()
	if _, err := c.upload(ctx, -1, in.preseed, nil, 0); err != nil {
		return nil, fmt.Errorf("pre-seed upload: %w", err)
	}
	if _, err := c.coord.Sync(ctx); err != nil {
		return nil, fmt.Errorf("pre-seed sync: %w", err)
	}
	if err := c.rep.PollOnce(ctx); err != nil {
		return nil, fmt.Errorf("pre-seed replica poll: %w", err)
	}
	ok = true
	return c, nil
}

// upload splits one session along the ring and pushes its pieces in
// turn, recording what was acknowledged. It returns the pieces (for the
// traced run's side measurements).
func (c *fleetCluster) upload(ctx context.Context, i int, snap *cumulative.Snapshot, tr *tracer, parent int) ([]cluster.Piece, error) {
	pieces, err := c.router.SplitBatch(i+1, 0, snap)
	if err != nil {
		return nil, err
	}
	var errs []error
	for _, p := range pieces {
		sp := tr.start("partition.push", parent)
		_, err := c.router.PushPiece(ctx, p)
		tr.end(sp)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		c.ackMu.Lock()
		c.ackedRuns += int64(p.Batch.Snapshot.Runs)
		for _, id := range p.Batch.Snapshot.Sites {
			c.ackedSites[id] = true
		}
		c.ackMu.Unlock()
	}
	return pieces, errors.Join(errs...)
}

// fleetStats collects the measured window.
type fleetStats struct {
	mu                       sync.Mutex
	uploadMs, readMs, lateMs []float64
	uploads, uploadFails     int
	reads, readFails         int
	e2pMs                    []float64
	pollMs, correctMs        []float64
	replicaPollMs            []float64
	ticks, overruns, changed int
	// roundCPU is the process CPU per scheduled session over each
	// cadence round, split by untraced and traced rounds.
	roundCPU     [2][]float64
	tracedPieces [][]cluster.Piece
}

func runFleet(cfg *runConfig) (*outcome, error) {
	o := newOutcome()
	// At least four cadence rounds, so that a traced run has traced and
	// untraced rounds to compare.
	n := int(max(cfg.seconds, 4*fleetCadence).Seconds() * fleetRate)
	var in *fleetInputs
	c, setupS, err := setupMedian(setupReps, func() (*fleetCluster, error) {
		var err error
		if in, err = genFleet(cfg.seed, n); err != nil {
			return nil, err
		}
		return startCluster(in)
	}, (*fleetCluster).close)
	if err != nil {
		return nil, err
	}
	defer c.close()
	o.e2e["setup_s"] = setupS
	o.hashInputs("fleet-evidence", int64(n))
	for _, s := range append([]fleetSession{{snap: in.preseed}}, in.sessions...) {
		o.hashInputs(int64(s.due), int64(s.snap.Runs), int64(len(s.snap.Sites)))
		for _, ov := range s.snap.Overflow {
			o.hashInputs(uint32(ov.Site))
			for _, ob := range ov.Obs {
				o.hashInputs(ob.X, ob.Y)
			}
		}
		for _, d := range s.snap.Dangling {
			o.hashInputs(uint32(d.Alloc), uint32(d.Free))
			for _, ob := range d.Obs {
				o.hashInputs(ob.X, ob.Y)
			}
		}
	}

	ctx := context.Background()
	var st fleetStats
	served := make([]bool, len(in.bugs))
	// A traced run traces every other cadence round; the untraced rounds
	// are the overhead baseline.
	var traceOn atomic.Bool
	tracerNow := func() *tracer {
		if traceOn.Load() {
			return cfg.tr
		}
		return nil
	}
	t0 := time.Now().Add(50 * time.Millisecond)
	last := in.sessions[len(in.sessions)-1].due
	end := last + fleetDrain*fleetCadence
	sleepUntil := func(d time.Duration) { time.Sleep(time.Until(t0.Add(d))) }

	b0, _ := heapCounters()
	var done sync.WaitGroup

	// Upload workers: with the reader, at most GOMAXPROCS requests are
	// in flight.
	queue := make(chan int, len(in.sessions)) // sized to the schedule: dispatch never blocks
	workers := max(1, min(2, runtime.GOMAXPROCS(0)-1))
	var upWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		upWG.Add(1)
		go func() {
			defer upWG.Done()
			for i := range queue {
				s := in.sessions[i]
				tr := tracerNow()
				sp := tr.start("fleet.upload", 0)
				pieces, err := c.upload(ctx, i, s.snap, tr, sp)
				tr.end(sp)
				lat := ms(time.Since(t0.Add(s.due)))
				st.mu.Lock()
				st.uploads++
				if err != nil {
					st.uploadFails++
				} else {
					st.uploadMs = append(st.uploadMs, lat)
				}
				if tr != nil {
					st.tracedPieces = append(st.tracedPieces, pieces)
				}
				st.mu.Unlock()
			}
		}()
	}

	// Control plane: coordinator poll+correct, then replica poll, on a
	// fixed un-jittered cadence; a round that overruns delays the next.
	done.Add(1)
	go func() {
		defer done.Done()
		lastCPU := processCPU()
		for k := 1; time.Duration(k)*fleetCadence <= end; k++ {
			due := time.Duration(k) * fleetCadence
			sleepUntil(due)
			now := processCPU()
			if due <= last {
				traced := boolInt(traceOn.Load())
				st.mu.Lock()
				st.roundCPU[traced] = append(st.roundCPU[traced], float64(now-lastCPU)/(fleetRate*fleetCadence.Seconds()))
				st.mu.Unlock()
			}
			lastCPU = now
			traceOn.Store(cfg.traced && k%2 == 1)
			tr := tracerNow()
			rsp := tr.start("coordinator.round", 0)
			start := time.Now()
			changed, err := c.coord.PollOnce(ctx)
			pollD := time.Since(start)
			var correctD time.Duration
			if changed {
				cs := time.Now()
				sp := tr.start("coordinator.correct", rsp)
				c.coord.Correct()
				tr.end(sp)
				correctD = time.Since(cs)
			}
			rs := time.Now()
			sp := tr.start("replica.poll", rsp)
			rerr := c.rep.PollOnce(ctx)
			tr.end(sp)
			repD := time.Since(rs)
			tr.end(rsp)
			st.mu.Lock()
			st.ticks++
			if time.Now().After(t0.Add(due + fleetCadence)) {
				st.overruns++
			}
			if changed {
				st.changed++
				st.correctMs = append(st.correctMs, ms(correctD))
			}
			st.pollMs = append(st.pollMs, ms(pollD))
			st.replicaPollMs = append(st.replicaPollMs, ms(repD))
			if err != nil || rerr != nil {
				o.check(false, "fleet: control round %d: poll %v, replica %v", k, err, rerr)
			}
			st.mu.Unlock()
		}
	}()

	// Reader: polls the replica's /v1/patches with ETags beside the
	// writes and notes when each bug's patch is first served.
	done.Add(1)
	go func() {
		defer done.Done()
		cl := fleet.NewClient(c.repURL, "perfbench-reader")
		cl.SetWireV2(true)
		var since uint64
		for k := 0; time.Duration(k)*fleetReadEvery <= end; k++ {
			sleepUntil(time.Duration(k) * fleetReadEvery)
			tr := tracerNow()
			sp := tr.start("replica.read", 0)
			start := time.Now()
			ps, v, err := cl.PatchesContext(ctx, since)
			now := time.Now()
			tr.end(sp)
			st.mu.Lock()
			st.reads++
			if err != nil {
				st.readFails++
				st.mu.Unlock()
				continue
			}
			st.readMs = append(st.readMs, ms(now.Sub(start)))
			since = v
			if ps.Len() > 0 {
				for _, b := range in.bugs {
					if !served[b.index] && b.servedIn(ps) {
						served[b.index] = true
						due := in.sessions[(b.index+1)*fleetBugEvery-1].due
						st.e2pMs = append(st.e2pMs, ms(now.Sub(t0.Add(due))))
					}
				}
			}
			st.mu.Unlock()
		}
	}()

	// Generator: open loop, each session dispatched at its due time
	// whatever the state of earlier ones.
	for i, s := range in.sessions {
		sleepUntil(s.due)
		st.mu.Lock()
		st.lateMs = append(st.lateMs, ms(time.Since(t0.Add(s.due))))
		st.mu.Unlock()
		queue <- i
	}
	close(queue)
	upWG.Wait()
	done.Wait()
	b1, _ := heapCounters()

	status := c.verify(ctx, o, in)

	sessions := len(st.uploadMs)
	o.attempted = st.uploads + st.reads
	o.failed = st.uploadFails + st.readFails
	o.check(len(st.e2pMs) == len(in.bugs), "fleet: %d of %d bugs were served within the window", len(st.e2pMs), len(in.bugs))
	o.e2e["ok_share"] = 1 - float64(o.failed)/float64(o.attempted)
	// The median over cadence rounds, so a round slowed by a noisy
	// neighbour does not move it.
	untracedCPU := median(st.roundCPU[0])
	o.e2e["alloc_bytes_per_op"] = float64(b1-b0) / float64(sessions)
	o.e2e["primary"] = median(st.e2pMs)
	o.e2e["secondary"] = quantile(st.e2pMs, 0.9)

	o.note("evidence_to_patch_p50_ms", median(st.e2pMs), "ms", len(st.e2pMs))
	o.note("evidence_to_patch_p90_ms", quantile(st.e2pMs, 0.9), "ms", len(st.e2pMs))
	o.note("upload_p50_ms", median(st.uploadMs), "ms", len(st.uploadMs))
	o.note("upload_p99_ms", quantile(st.uploadMs, 0.99), "ms", len(st.uploadMs))
	o.note("patch_read_p50_ms", median(st.readMs), "ms", len(st.readMs))
	o.note("patch_read_p99_ms", quantile(st.readMs, 0.99), "ms", len(st.readMs))
	o.note("cpu_ms_per_session", untracedCPU/1e6, "ms", len(st.roundCPU[0]))
	o.note("alloc_bytes_per_session", o.e2e["alloc_bytes_per_op"], "B", sessions)
	obs := 0
	for _, s := range in.sessions {
		for _, ov := range s.snap.Overflow {
			obs += len(ov.Obs)
		}
		for _, d := range s.snap.Dangling {
			obs += len(d.Obs)
		}
	}
	o.note("observations_per_session", float64(obs)/float64(len(in.sessions)), "count", len(in.sessions))
	o.note("failed_share", float64(o.failed)/float64(o.attempted), "ratio", o.attempted)
	o.note("generator_late_p99_ms", quantile(st.lateMs, 0.99), "ms", len(st.lateMs))
	o.note("coordinator_correct_p50_ms", median(st.correctMs), "ms", len(st.correctMs))

	if cfg.traced {
		fleetLayers(o, cfg.tr, c, &st, status)
		o.layers["trace.overhead_share"] = (median(st.roundCPU[1]) - untracedCPU) / untracedCPU
	}
	return o, nil
}

// verify syncs the cluster once more and checks its end state: the
// coordinator holds exactly the runs and sites the generator got
// acknowledged, every bug is patched, and the replica serves exactly the
// coordinator's patch log.
func (c *fleetCluster) verify(ctx context.Context, o *outcome, in *fleetInputs) *cluster.ClusterStatus {
	if _, err := c.coord.Sync(ctx); err != nil {
		o.check(false, "fleet: final sync: %v", err)
	}
	if err := c.rep.PollOnce(ctx); err != nil {
		o.check(false, "fleet: final replica poll: %v", err)
	}
	status := c.coord.Status()
	c.ackMu.Lock()
	runs, sites := c.ackedRuns, len(c.ackedSites)
	c.ackMu.Unlock()
	o.check(status.Runs == runs, "fleet: coordinator has %d runs, generator got %d acked", status.Runs, runs)
	o.check(status.Sites == sites, "fleet: coordinator has %d sites, generator got %d acked", status.Sites, sites)
	full, _ := c.coord.PatchLog().Full()
	for _, b := range in.bugs {
		o.check(b.servedIn(full), "fleet: bug %d (%v) is not patched at the end", b.index, b.site)
	}
	repSet, _, err := fleet.NewClient(c.repURL, "perfbench-final").PatchesContext(ctx, 0)
	o.check(err == nil && repSet.Equal(full), "fleet: replica patch set differs from the coordinator's log (err %v)", err)
	return status
}

// fleetLayers fills the fleet per-layer metrics: the control-plane and
// read timings from the window, plus side measurements of split,
// encode, decode and absorb on the traced half's own pieces.
func fleetLayers(o *outcome, tr *tracer, c *fleetCluster, st *fleetStats, status *cluster.ClusterStatus) {
	sp := tr.start("fleet.layers", 0)
	defer tr.end(sp)
	var splitUs, encUs, decUs, absUs, pieceBytes []float64
	var sessionBytes []float64
	side := fleet.NewStore(fleet.DefaultShards, cumulative.DefaultConfig())
	buf := codec.GetBuffer()
	defer codec.PutBuffer(buf)
	for _, pieces := range st.tracedPieces {
		whole := cumulative.NewHistory(cumulative.DefaultConfig())
		total := 0.0
		for _, p := range pieces {
			whole.Absorb(p.Batch.Snapshot)
			buf.B = buf.B[:0]
			start := time.Now()
			frame, err := fleet.V2Codec.EncodeBatch(buf, p.Batch)
			encUs = append(encUs, float64(time.Since(start))/1e3)
			if err != nil {
				o.check(false, "fleet: encode: %v", err)
				continue
			}
			total += float64(len(frame))
			pieceBytes = append(pieceBytes, float64(len(frame)))
			start = time.Now()
			_, parts, err := codec.DecodeBatchSharded(frame, side.NumShards(), side.ShardIndex)
			decUs = append(decUs, float64(time.Since(start))/1e3)
			if err != nil {
				o.check(false, "fleet: decode: %v", err)
				continue
			}
			start = time.Now()
			side.AbsorbParts(parts)
			absUs = append(absUs, float64(time.Since(start))/1e3)
		}
		sessionBytes = append(sessionBytes, total)
		snap := whole.Snapshot()
		start := time.Now()
		cluster.SplitSnapshot(c.router.Ring(), snap)
		splitUs = append(splitUs, float64(time.Since(start))/1e3)
	}
	o.layers["router.split_us"] = median(splitUs)
	o.layers["codec.encode_us"] = median(encUs)
	o.layers["codec.decode_us"] = median(decUs)
	o.layers["store.absorb_us"] = median(absUs)
	o.layers["wire.bytes_per_session"] = median(sessionBytes)

	var pushMs []float64
	tr.mu.Lock()
	for _, s := range tr.spans {
		if s.Name == "partition.push" && s.End > 0 {
			pushMs = append(pushMs, float64(s.End-s.Start)/1e6)
		}
	}
	tr.mu.Unlock()
	o.layers["partition.push_ms"] = median(pushMs)
	var dedup, rejected float64
	for _, reg := range c.regs {
		dedup += reg.Counter("fleet_dedup_hits_total", "").Value()
		for _, name := range []string{"fleet_stale_ring_rejects_total", "fleet_rate_limited_total", "fleet_unauthorized_total"} {
			rejected += reg.Counter(name, "").Value()
		}
	}
	o.layers["partition.dedup_hits"] = dedup
	o.layers["partition.rejected"] = rejected

	o.layers["coordinator.poll_ms"] = median(st.pollMs)
	o.layers["coordinator.correct_ms"] = median(st.correctMs)
	o.layers["coordinator.overrun_share"] = float64(st.overruns) / float64(st.ticks)
	o.layers["coordinator.changed_share"] = float64(st.changed) / float64(st.ticks)
	o.layers["coordinator.merged_sites"] = float64(status.Sites)
	o.layers["replica.poll_ms"] = median(st.replicaPollMs)
	o.layers["replica.read_ms"] = median(st.readMs)
	rs := c.rep.Status()
	if rs.PatchRequests > 0 {
		o.layers["replica.not_modified_share"] = float64(rs.PatchNotModified) / float64(rs.PatchRequests)
	}
	o.layers["generator.late_ms"] = quantile(st.lateMs, 0.99)
}

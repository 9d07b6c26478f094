package main

import (
	"runtime"
	"time"

	"exterminator/internal/alloc"
	"exterminator/internal/canary"
	"exterminator/internal/correct"
	"exterminator/internal/diefast"
	"exterminator/internal/diehard"
	"exterminator/internal/mem"
	"exterminator/internal/mutator"
	"exterminator/internal/patch"
	"exterminator/internal/trace"
	"exterminator/internal/xrand"
)

// The per-layer runtime metrics replay a workload's recorded allocation
// trace through each stack's public Malloc/Free, timing every call. A
// layer's self time is its stack's time minus the time of the stack
// beneath it: diehard, then diefast over diehard, then correct over
// diefast.

// record runs prog once under a correcting allocator over cfg and
// returns its allocation trace and outcome. hook may inject a fault.
func record(prog mutator.Program, cfg diefast.Config, heapSeed, progSeed uint64, hook mutator.Hook) (*trace.Trace, *mutator.Outcome) {
	h := diefast.New(cfg, xrand.New(heapSeed))
	h.OnError = func(diefast.Event) {}
	rec := trace.NewRecorder(correct.New(h))
	e := mutator.NewEnv(rec, h.Space(), xrand.New(progSeed), nil)
	e.Hook = hook
	out := mutator.Run(prog, e)
	return rec.Trace(), out
}

// replayCost is the time spent in Malloc and in Free over a replay.
type replayCost struct {
	mallocT, freeT time.Duration
	mallocs, frees int
}

// replay drives every op of t through a, timing each call. afterFree, if
// not nil, runs untimed after every Free.
func replay(t *trace.Trace, a alloc.Allocator, afterFree func()) replayCost {
	ptrs := make([]mem.Addr, len(t.Ops))
	var c replayCost
	for i, op := range t.Ops {
		switch op.Kind {
		case trace.OpMalloc:
			start := time.Now()
			p, err := a.Malloc(int(op.Arg), op.Site)
			c.mallocT += time.Since(start)
			if err == nil {
				ptrs[i] = p
				c.mallocs++
			}
		case trace.OpFree:
			start := time.Now()
			a.Free(ptrs[op.Arg], op.Site)
			c.freeT += time.Since(start)
			c.frees++
			if afterFree != nil {
				afterFree()
			}
		}
	}
	return c
}

// replayMedians replays every trace through each allocator constructor
// `passes` times, rotating which constructor goes first and collecting
// garbage before each replay, and returns each constructor's median per-call
// Malloc and Free cost, net of the clock's own cost.
func replayMedians(tr *tracer, parent int, traces []*trace.Trace, names []string,
	builds []func(seed uint64) alloc.Allocator, passes int, seed uint64) (mallocNs, freeNs []float64) {
	clock := clockCost()
	perMalloc := make([][]float64, len(builds))
	perFree := make([][]float64, len(builds))
	for p := 0; p < passes; p++ {
		for k := range builds {
			i := (p + k) % len(builds)
			var tot replayCost
			for ti, t := range traces {
				a := builds[i](seed + uint64(p*len(traces)+ti)*7919)
				runtime.GC()
				sp := tr.start(names[i], parent)
				c := replay(t, a, nil)
				tr.end(sp)
				tot.mallocT += c.mallocT
				tot.freeT += c.freeT
				tot.mallocs += c.mallocs
				tot.frees += c.frees
			}
			perMalloc[i] = append(perMalloc[i], float64(tot.mallocT)/float64(tot.mallocs)-clock)
			perFree[i] = append(perFree[i], float64(tot.freeT)/float64(tot.frees)-clock)
		}
	}
	for i := range builds {
		mallocNs = append(mallocNs, median(perMalloc[i]))
		freeNs = append(freeNs, median(perFree[i]))
	}
	return mallocNs, freeNs
}

// clockCost is the median cost of one time.Now/time.Since pair, the
// overhead replay subtracts from every timed call.
func clockCost() float64 {
	var per []float64
	for b := 0; b < 15; b++ {
		const n = 20000
		var sum time.Duration
		for i := 0; i < n; i++ {
			start := time.Now()
			sum += time.Since(start)
		}
		per = append(per, float64(sum)/n)
	}
	return median(per)
}

// stackSet builds the three layered stacks over one diefast config.
type stackSet struct {
	cfg diefast.Config
}

func (s stackSet) diehard(seed uint64) alloc.Allocator {
	rng := xrand.New(seed)
	return diehard.New(s.cfg.Diehard, mem.NewSpace(rng.Split()), rng.Split())
}

func (s stackSet) diefast(seed uint64) *diefast.Heap {
	h := diefast.New(s.cfg, xrand.New(seed))
	h.OnError = func(diefast.Event) {}
	return h
}

func (s stackSet) correct(seed uint64, patches *patch.Set) *correct.Allocator {
	a := correct.New(s.diefast(seed))
	if patches != nil {
		a.Reload(patches.Clone())
	}
	return a
}

// layerCosts fills the diehard/diefast/correct self-time metrics from
// replays of traces, plus diefast's canary checks per op.
func layerCosts(o *outcome, tr *tracer, parent int, traces []*trace.Trace, stacks stackSet, passes int, seed uint64) {
	m, f := replayMedians(tr, parent, traces,
		[]string{"replay.diehard", "replay.diefast", "replay.correct"},
		[]func(uint64) alloc.Allocator{
			stacks.diehard,
			func(s uint64) alloc.Allocator { return stacks.diefast(s) },
			func(s uint64) alloc.Allocator { return stacks.correct(s, nil) },
		}, passes, seed)
	o.layers["diehard.malloc_ns"] = m[0]
	o.layers["diehard.free_ns"] = f[0]
	o.layers["diefast.malloc_ns"] = m[1] - m[0]
	o.layers["diefast.free_ns"] = f[1] - f[0]
	o.layers["correct.malloc_ns"] = m[2] - m[1]
	o.layers["correct.free_ns"] = f[2] - f[1]
	var checks, ops float64
	for _, t := range traces {
		h := stacks.diefast(seed)
		c := replay(t, h, nil)
		checks += float64(h.Checks())
		ops += float64(c.mallocs + c.frees)
	}
	o.layers["diefast.canary_checks_per_op"] = checks / ops
}

// canaryCosts times canary Fill and Verify over a 256-byte buffer.
func canaryCosts(o *outcome, seed uint64) {
	c := canary.New(xrand.New(seed))
	buf := make([]byte, 256)
	var fill, verify []float64
	ok := true
	for b := 0; b < 15; b++ {
		const n = 5000
		start := time.Now()
		for i := 0; i < n; i++ {
			c.Fill(buf)
		}
		fill = append(fill, float64(time.Since(start))/n)
		start = time.Now()
		for i := 0; i < n; i++ {
			ok = c.Verify(buf) && ok
		}
		verify = append(verify, float64(time.Since(start))/n)
	}
	o.check(ok, "canary: Verify rejected a freshly filled buffer")
	o.layers["canary.fill_ns_256b"] = median(fill)
	o.layers["canary.verify_ns_256b"] = median(verify)
}

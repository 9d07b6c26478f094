package fleet

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"exterminator/internal/telemetry"
	"exterminator/internal/triage"
)

// Corrector is the one correction pass both serving tiers run: fleetd
// over its own Store, the cluster coordinator over the Store it folds
// partition deltas into.
type Corrector struct {
	mu     sync.Mutex // serializes passes
	store  func() *Store
	log    *PatchLog
	triage *triage.Engine
	m      CorrectorMetrics
	logger *slog.Logger
	passes atomic.Int64 // this corrector's own count; m.Passes may be shared through a registry
}

// CorrectorMetrics is the instrument set a pass observes. Each tier
// registers it under its own names and hands it over.
type CorrectorMetrics struct {
	Passes   *telemetry.Counter
	Identify *telemetry.Histogram
	Pass     *telemetry.Histogram
}

// NewCorrector returns the pass over the Store that store returns.
// store is called under the pass lock at the start of every pass, so a
// tier that replaces its Store (the coordinator, after a resync) never
// has a pass score a Store it already replaced.
func NewCorrector(store func() *Store, log *PatchLog, eng *triage.Engine, m CorrectorMetrics, logger *slog.Logger) *Corrector {
	return &Corrector{store: store, log: log, triage: eng, m: m, logger: logger}
}

// Pass reruns the Bayesian test over the pooled evidence (incremental:
// only keys whose evidence changed since the last pass are rescored),
// folds the derived patches into the log, and feeds the rescored
// candidates to the triage engine. It returns the log version and
// whether the pass changed it. Ingest is never blocked by a pass.
func (k *Corrector) Pass() (uint64, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	start := time.Now()
	defer k.m.Pass.ObserveSince(start)
	k.passes.Add(1)
	k.m.Passes.Inc()
	st := k.store()
	identifyStart := time.Now()
	//extlint:ignore lockio mu exists to serialize whole correction passes; the elastic identify pool's WaitGroup joins CPU-bound stripe scorers, not IO
	findings := st.Identify()
	k.m.Identify.ObserveSince(identifyStart)
	v, changed := k.log.Fold(findings.Patches())
	if changed {
		k.logger.Info("correction pass derived patches",
			"version", v, "patchEntries", k.log.Len(), "durationSec", time.Since(start).Seconds())
	}
	over, dang := st.TriageCandidates()
	ps, _ := k.log.Since(0)
	k.triage.Pass(triage.PassInput{Overflows: over, Danglings: dang, Patches: ps, Threshold: st.Threshold()})
	return v, changed
}

// Passes returns the number of passes run.
func (k *Corrector) Passes() int64 { return k.passes.Load() }

// Run is the correction loop. Every interval (jittered, see
// JitterInterval) it calls tick, which reports whether new evidence
// arrived and whether this node serves; a serving node then runs a pass
// if evidence arrived and delivers due alerts either way. A node that
// does not serve (a standby coordinator, a partition) does neither. Run
// returns when ctx is done.
func (k *Corrector) Run(ctx context.Context, interval time.Duration, tick func(context.Context) (fresh, serving bool)) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTimer(JitterInterval(interval))
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if fresh, serving := tick(ctx); serving {
				if fresh {
					k.Pass()
				}
				k.triage.DeliverAlerts(ctx)
			}
			t.Reset(JitterInterval(interval))
		}
	}
}

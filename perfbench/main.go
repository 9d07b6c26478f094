// Command perfbench is the repository benchmark: one seeded command that
// runs one workload, checks the program's outputs, and prints its
// metrics as one JSON object on the last line of standard output.
//
//	python3 perfbench/run.py --workload fig7-clean --seed 1 --seconds 20 --trace 0
//
// Workloads (each bypasses the layers the others stress, so a change to
// one layer has a "should not move" control):
//
//   - fig7-clean: every Figure 7 row under the libc-style freelist and
//     under the Exterminator stack (DieFast + correcting allocator, no
//     patches), in interleaved pairs. Allocator fast path only.
//   - cumulative-fault: engine cumulative-mode sessions on espresso, each
//     carrying one injected fault, run until a patch is derived (or a run
//     cap), then one verification run with the patches loaded. Exercises
//     the alloc/free logs, RecordRun/Identify and the patched path.
//   - fleet-evidence: an in-process loopback cluster (3 partitions, a
//     coordinator and a read replica on the v2 codec) fed by an open-loop
//     upload generator while a reader polls the replica. Bypasses the
//     allocator entirely.
//
// Every workload prints the same end-to-end metrics (BENCHMARK.json
// declares one list for all workloads); each is defined per workload:
//
//	metric              fig7-clean             cumulative-fault        fleet-evidence
//	setup_s             warm-up round          fault-plan search       upload recording, cluster
//	                                                                   start and pre-seed
//	ok_share            rows whose output      sessions that did not   uploads and reads
//	                    matches the baseline   derive a wrong patch    that succeeded
//	alloc_bytes_per_op  per malloc+free        per program run         per uploaded session
//	primary             overhead_alloc (x)     runs_to_patch (runs)    evidence_to_patch_p50 (ms)
//	secondary           overhead_spec (x)      failures_to_patch       evidence_to_patch_p90 (ms)
//
// (The Fig 7 overheads are ratios of CPU time, paired run by run; the
// wall-time ratios are in the report lines. runs_to_patch is a mean over
// all sessions, a session without a patch that verifies counting the
// cap; failures_to_patch is the mean number of failed runs per session,
// up to its patch or the cap: see cumulative.go.)
//
// ok_share is 1 - failed_share, so that no end-to-end metric reads 0:
// bounds are shares of a median. setup_s is the median process CPU of
// several set-ups. Only quantities that repeat on a shared 2-vCPU host
// are end to end: paired ratios, counts, means over many sessions, and
// latencies whose cadence dominates them. CPU per op
// (alloc_cpu_ns_per_op, cpu_s_to_patch, cpu_ms_per_session) moved by
// 17-42% between identical runs there, as the host's load shifted, so it
// is reported, not bounded; so is patched_share, which moves by about a
// tenth between seeds at the sessions a run affords.
//
// The remaining workload-specific quantities (CPU per op, patched_share,
// upload and patch-read latencies, ...) are printed by name, with unit
// and sample count, in the report lines above the JSON. With --trace 1 the JSON
// carries the per-layer metrics instead, every span is written to
// --spans, and trace.overhead_share compares the CPU per op of the
// traced rounds (or sessions) with that of the untraced ones.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"exterminator/internal/workloads"
)

// metricSpec names one metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd lists the metrics every untraced run prints, in order.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ok_share", "ratio"},
	{"alloc_bytes_per_op", "B"},
	{"primary", "1"},
	{"secondary", "1"},
}

// perLayer lists the metrics every traced run prints. A layer the
// workload bypasses reports 0.
func perLayer() []metricSpec {
	specs := []metricSpec{
		{"diehard.malloc_ns", "ns"},
		{"diehard.free_ns", "ns"},
		{"diefast.malloc_ns", "ns"},
		{"diefast.free_ns", "ns"},
		{"correct.malloc_ns", "ns"},
		{"correct.free_ns", "ns"},
		{"diefast.canary_checks_per_op", "count"},
		{"canary.verify_ns_256b", "ns"},
		{"canary.fill_ns_256b", "ns"},
	}
	for _, p := range append(workloads.AllocIntensive(1), workloads.SPECLike(1)...) {
		specs = append(specs, metricSpec{"fig7." + p.Name() + ".ratio", "x"})
	}
	return append(specs,
		metricSpec{"correct.patched_malloc_ns", "ns"},
		metricSpec{"correct.patched_free_ns", "ns"},
		metricSpec{"correct.patched_allocs_per_op", "count"},
		metricSpec{"correct.peak_deferrals", "count"},
		metricSpec{"cumulative.record_run_ms", "ms"},
		metricSpec{"cumulative.identify_ms", "ms"},
		metricSpec{"cumulative.log_records_per_run", "count"},
		metricSpec{"cumulative.patched_share", "ratio"},
		metricSpec{"engine.run_ms", "ms"},
		metricSpec{"router.split_us", "us"},
		metricSpec{"codec.encode_us", "us"},
		metricSpec{"wire.bytes_per_session", "B"},
		metricSpec{"partition.push_ms", "ms"},
		metricSpec{"codec.decode_us", "us"},
		metricSpec{"store.absorb_us", "us"},
		metricSpec{"partition.dedup_hits", "count"},
		metricSpec{"partition.rejected", "count"},
		metricSpec{"coordinator.poll_ms", "ms"},
		metricSpec{"coordinator.correct_ms", "ms"},
		metricSpec{"coordinator.overrun_share", "ratio"},
		metricSpec{"coordinator.changed_share", "ratio"},
		metricSpec{"coordinator.merged_sites", "count"},
		metricSpec{"replica.poll_ms", "ms"},
		metricSpec{"replica.read_ms", "ms"},
		metricSpec{"replica.not_modified_share", "ratio"},
		metricSpec{"generator.late_ms", "ms"},
		metricSpec{"trace.overhead_share", "ratio"},
	)
}

// runners maps each workload name to the function that runs it.
var runners = map[string]func(*runConfig) (*outcome, error){
	"fig7-clean":       runFig7,
	"cumulative-fault": runCumulative,
	"fleet-evidence":   runFleet,
}

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	spansDir string
	// tr records spans in a traced run; nil otherwise (its methods are
	// no-ops on nil).
	tr *tracer
}

// outcome is what a workload runner hands back for printing.
type outcome struct {
	attempted, failed int
	// checks holds every correctness check that did not hold; a run with
	// any is not correct.
	checks []string
	// failures holds the reason for each failed operation.
	failures []string
	e2e      map[string]float64
	layers   map[string]float64
	report   []reportLine
	// inputs hashes every generated input the program received.
	inputs hash.Hash
}

// reportLine is one named quantity printed above the JSON result.
type reportLine struct {
	name    string
	value   float64
	unit    string
	samples int
}

func newOutcome() *outcome {
	return &outcome{
		e2e:    make(map[string]float64),
		layers: make(map[string]float64),
		inputs: sha256.New(),
	}
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.checks = append(o.checks, fmt.Sprintf(format, args...))
	}
}

// fail counts one failed operation and keeps its reason for the report.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

func (o *outcome) note(name string, value float64, unit string, samples int) {
	o.report = append(o.report, reportLine{name, value, unit, samples})
}

// hashInputs folds values into the generated-input digest. Writes to a
// hash never fail, so their errors are dropped.
func (o *outcome) hashInputs(vals ...any) {
	for _, v := range vals {
		switch v := v.(type) {
		case string:
			_, _ = io.WriteString(o.inputs, v)
			_, _ = o.inputs.Write([]byte{0})
		default:
			_ = binary.Write(o.inputs, binary.LittleEndian, v)
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (*runConfig, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: fig7-clean, cumulative-fault or fleet-evidence")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := fs.Int("seconds", 20, "measurement time in seconds")
	traced := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, ok := runners[*workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	return &runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *traced == 1,
		spansDir: *spans,
	}, nil
}

// run executes one workload, prints its report lines to w and returns
// the result whose JSON form is the last line of output.
func run(cfg *runConfig, w io.Writer) (*result, error) {
	if cfg.traced {
		tr := newTracer()
		cfg.tr = tr
		defer func() {
			// Spans are kept in memory and written once the run ends.
			path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
			if err := tr.write(path); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			} else {
				fmt.Fprintf(w, "spans %d written to %s\n", tr.len(), path)
			}
		}()
	}
	out, err := runners[cfg.workload](cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "workload %s seed %d gomaxprocs %d inputs sha256:%x\n",
		cfg.workload, cfg.seed, runtime.GOMAXPROCS(0), out.inputs.Sum(nil))
	for _, r := range out.report {
		fmt.Fprintf(w, "report %-34s %14.6g %-6s n=%d\n", r.name, r.value, r.unit, r.samples)
	}
	for _, f := range out.failures {
		fmt.Fprintln(w, "operation failed:", f)
	}
	for _, c := range out.checks {
		fmt.Fprintln(w, "check failed:", c)
	}
	if out.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	specs, values := endToEnd, out.e2e
	if cfg.traced {
		specs, values = perLayer(), out.layers
	}
	res := &result{
		Correct:   len(out.checks) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok && !cfg.traced {
			return nil, fmt.Errorf("workload %s did not measure %s", cfg.workload, s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("workload %s measured %s as %v", cfg.workload, s.name, v)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return res, nil
}

// ---------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------

// processCPU is the CPU time the whole process has used.
func processCPU() time.Duration { return cpuClock(2) } // CLOCK_PROCESS_CPUTIME_ID

// threadCPU is the CPU time the calling OS thread has used; callers lock
// their goroutine to its thread first.
func threadCPU() time.Duration { return cpuClock(3) } // CLOCK_THREAD_CPUTIME_ID

// cpuClock reads a CPU-time clock. These clocks count the scheduler's
// exact run time; getrusage's tick-sampled user/system split is too
// coarse for runs of a few milliseconds.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, errno)) // id is a constant: only a bug gets here
	}
	return time.Duration(ts.Nano())
}

// heapCounters reads the Go heap's cumulative allocation counters.
func heapCounters() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setupMedian runs set-up `reps` times and returns the median of the
// process CPU each set-up took, in seconds, with the last set-up's
// result; earlier results are torn down through release. CPU time, not
// wall time: a shared host that withholds the CPU moves wall-clock set-up
// by half between identical runs, while work moved into set-up shows in
// its CPU all the same.
func setupMedian[T any](reps int, setup func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < reps; i++ {
		if i > 0 && release != nil {
			release(last)
		}
		start := processCPU()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, (processCPU() - start).Seconds())
		last = v
	}
	return last, median(times), nil
}

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 3

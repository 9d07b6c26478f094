// Package experiments regenerates every table and figure of the paper's
// evaluation (§7), plus Monte-Carlo validations of Theorems 1–3. Each
// experiment returns a structured result whose Rows method prints the
// same rows/series the paper reports; cmd/paperrepro and the root
// bench_test.go are thin wrappers around this package.
//
// Absolute numbers differ from the paper's (this substrate is a
// simulator, not a 2007 Xeon running C binaries); the *shape* — who wins,
// by what rough factor, where the crossovers are — is the reproduction
// target, and EXPERIMENTS.md records paper-vs-measured for each artifact.
package experiments

import (
	"context"
	"fmt"

	"exterminator/internal/engine"
	"exterminator/internal/mutator"
)

// Result is the common experiment interface.
type Result interface {
	// Name returns the experiment id (table/figure reference).
	Name() string
	// Rows renders the result as printable table rows.
	Rows() []string
}

// Registry lists all experiment ids and their runners with default
// (fast) parameters.
func Registry() map[string]func(seed uint64) Result {
	return map[string]func(seed uint64) Result{
		"table1":        func(s uint64) Result { return Table1(s) },
		"fig7":          func(s uint64) Result { return Fig7(1, s) },
		"overflow":      func(s uint64) Result { return InjectedOverflows(10, s) },
		"underflow":     func(s uint64) Result { return InjectedUnderflows(6, s) },
		"dangling-iter": func(s uint64) Result { return InjectedDanglingIterative(10, s) },
		"dangling-cum":  func(s uint64) Result { return InjectedDanglingCumulative(10, s) },
		"squid":         func(s uint64) Result { return Squid(3, s) },
		"mozilla":       func(s uint64) Result { return Mozilla(s) },
		"patchcost":     func(s uint64) Result { return PatchCost(s) },
		"patchsize":     func(s uint64) Result { return PatchSize(s) },
		"thm1":          func(s uint64) Result { return Theorem1(200000, s) },
		"thm2":          func(s uint64) Result { return Theorem2(4000, s) },
		"thm3":          func(s uint64) Result { return Theorem3(3000, s) },
		"ablation-m":    func(s uint64) Result { return AblationM(8, s) },
	}
}

// Names returns the experiment ids in a stable order.
func Names() []string {
	return []string{
		"table1", "fig7", "overflow", "underflow", "dangling-iter", "dangling-cum",
		"squid", "mozilla", "patchcost", "patchsize", "thm1", "thm2", "thm3",
		"ablation-m",
	}
}

func row(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// runSession drives one engine session over prog to completion. Every
// experiment keeps the program seed at 0x9106 and varies only the heap
// seed, so trials differ in layout, not in program behaviour.
func runSession(prog mutator.Program, mode engine.Mode, heapSeed uint64, opts ...engine.Option) *engine.Result {
	opts = append([]engine.Option{engine.WithMode(mode), engine.WithSeeds(heapSeed, 0x9106)}, opts...)
	sess, err := engine.New(engine.Batch(prog), opts...)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	res, _ := sess.Run(context.Background())
	return res
}

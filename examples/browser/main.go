// The Mozilla case study (paper §7.2): a nondeterministic browser-like
// workload with the IDN heap overflow of bug 307259. Allocation sequences
// diverge across runs (mouse movement, timers), so object ids cannot be
// aligned and iterative/replicated isolation is impossible — cumulative
// mode isolates the error from per-run summaries alone.
//
//	go run ./examples/browser
package main

import (
	"context"
	"fmt"
	"log"

	"exterminator/internal/engine"
	"exterminator/internal/mutator"
	"exterminator/internal/workloads"
)

func main() {
	moz := workloads.NewMozilla(8)

	fmt.Println("=== Nondeterminism check ===")
	// One heap seed, two program seeds (mouse movement, timers).
	out1, _ := engine.Verify(moz, workloads.MozillaSession(10, false), nil, nil, 11^0xFEEDFACE, 100)
	out2, _ := engine.Verify(moz, workloads.MozillaSession(10, false), nil, nil, 11^0xFEEDFACE, 200)
	fmt.Printf("  run A: %d allocations\n  run B: %d allocations\n", out1.Clock, out2.Clock)
	fmt.Println("  -> different counts: object ids cannot be aligned across runs")

	fmt.Println("\n=== Study 1: load the malicious IDN page immediately ===")
	report(moz, "immediate", 21, 100, func(run int) []byte { return workloads.MozillaSession(2, true) })

	fmt.Println("\n=== Study 2: browse first (different pages each run) ===")
	report(moz, "browse-first", 22, 120, func(run int) []byte { return workloads.MozillaSession(8+run%7, true) })

	fmt.Println("\n(The paper needed 23 and 34 runs for the two studies, with")
	fmt.Println("no false positives; the browse-first study takes longer because")
	fmt.Println("the culprit site also allocates more correct objects.)")
}

// report runs one cumulative-mode study and prints what it isolated.
func report(moz mutator.Program, name string, heapSeed uint64, maxRuns int, inputFor func(run int) []byte) {
	sess, err := engine.New(engine.Batch(moz),
		engine.WithMode(engine.ModeCumulative),
		engine.WithSeeds(heapSeed, 0x9106),
		engine.WithMaxRuns(maxRuns),
		engine.WithInputFunc(inputFor),
		engine.WithVaryProgSeed(true)) // vary program seed per run: full nondeterminism
	if err != nil {
		log.Fatal(err)
	}
	r, err := sess.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	res := r.Cumulative
	if !res.Identified {
		log.Fatalf("browser: %s scenario never identified the overflow", name)
	}
	fmt.Printf("  identified after %d runs (%d failures observed)\n", res.Runs, res.Failures)
	for _, o := range res.Findings.Overflows {
		fmt.Printf("  overflow site %v: pad %d bytes (bayes factor %.3g over %d corrupt runs)\n",
			o.Site, o.Pad, o.Bayes, o.Runs)
	}
	fmt.Printf("  history: %s\n", res.History)
}

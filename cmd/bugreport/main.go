// Command bugreport renders runtime patch files as human-readable bug
// reports with suggested fixes — the tool the paper's future-work section
// (§9) proposes: runtime patches "contain information that describe the
// error location and its extent", and this turns them into something a
// developer can act on.
//
//	bugreport app.xtp
//	exterminate -workload squid -hostile -patches squid.xtp && bugreport squid.xtp
package main

import (
	"flag"
	"fmt"
	"os"

	"exterminator/internal/patch"
	"exterminator/internal/report"
)

func main() {
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: bugreport <patch-file>...")
		os.Exit(2)
	}
	merged := patch.New()
	for _, path := range flag.Args() {
		p, err := loadPatches(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bugreport: %s: %v\n", path, err)
			os.Exit(1)
		}
		merged.Merge(p)
	}
	r := report.FromPatches(merged, nil)
	if err := r.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bugreport:", err)
		os.Exit(1)
	}
}

func loadPatches(path string) (*patch.Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return patch.Decode(f)
}

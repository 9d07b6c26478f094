package main

import (
	"flag"
	"io"
	"log"
	"os"
	"slices"
	"testing"
)

// TestIgnoredFlagsTable: every flag the per-mode table names is a real
// fleetd flag, listed once, in lexical order (the order flag.Visit
// reports them in).
func TestIgnoredFlagsTable(t *testing.T) {
	for _, mode := range []string{"single-node", "partition", "coordinator", "replica"} {
		names := ignoredFlags[mode]
		if len(names) == 0 {
			t.Errorf("mode %s: no ignored flags listed", mode)
		}
		if !slices.IsSorted(names) || len(slices.Compact(slices.Clone(names))) != len(names) {
			t.Errorf("mode %s: names not sorted and unique: %v", mode, names)
		}
		for _, n := range names {
			if flag.Lookup(n) == nil {
				t.Errorf("mode %s: %q is not a fleetd flag", mode, n)
			}
		}
	}
	if len(ignoredFlags) != 4 {
		t.Errorf("ignoredFlags has %d modes, want 4", len(ignoredFlags))
	}
}

// TestWarnIgnoredFlags: a flag set explicitly is reported even at its
// default value, flags the mode reads are not, and nothing is reported
// when no flag is set.
func TestWarnIgnoredFlags(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	cases := []struct {
		mode string
		args []string
		want []string
	}{
		{"coordinator", []string{"-correct-every=8", "-correct-interval=2s", "-poll-interval=1s"}, []string{"-correct-every", "-correct-interval"}},
		{"coordinator", []string{"-shards=16", "-rate=5", "-standby"}, []string{"-rate", "-shards"}},
		{"partition", []string{"-alert-url=http://x", "-shards=4", "-correct-interval=1s"}, []string{"-alert-url", "-correct-interval"}},
		{"single-node", []string{"-standby=false", "-correct-every=8"}, []string{"-standby"}},
		{"replica", []string{"-poll-interval=1s", "-snapshot=x", "-token=t"}, []string{"-snapshot"}},
		{"coordinator", nil, nil},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("fleetd", flag.ContinueOnError)
		flag.VisitAll(func(f *flag.Flag) { fs.Var(f.Value, f.Name, f.Usage) })
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if got := warnIgnoredFlags(fs, tc.mode); !slices.Equal(got, tc.want) {
			t.Errorf("%s %v: got %v, want %v", tc.mode, tc.args, got, tc.want)
		}
	}
}

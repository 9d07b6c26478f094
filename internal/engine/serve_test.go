package engine

import (
	"bytes"
	"testing"

	"exterminator/internal/mutator"
	"exterminator/internal/workloads"
)

func serve(t testing.TB, prog mutator.StreamProgram, chunks [][]byte, heapSeed uint64, opts ...Option) *ServeResult {
	t.Helper()
	return runMode(t, Stream(prog), ModeServe, heapSeed, append(opts, WithChunks(chunks))...).Serve
}

func TestServeHealthyStream(t *testing.T) {
	chunks := workloads.SquidRequestStream(workloads.SquidBenignInput(120))
	res := serve(t, workloads.NewSquidStream(), chunks, 3)
	if len(res.Incidents) != 0 {
		t.Fatalf("healthy stream had incidents: %+v", res.Incidents)
	}
	if res.Crashes != 0 {
		t.Fatalf("crashes: %d", res.Crashes)
	}
	if res.Chunks != len(chunks) {
		t.Fatalf("served %d of %d chunks", res.Chunks, len(chunks))
	}
	for i, out := range res.Outputs {
		if len(out) == 0 {
			t.Fatalf("chunk %d produced no voted output", i)
		}
	}
}

func TestServeBenignStreamThreeReplicas(t *testing.T) {
	chunks := workloads.SquidRequestStream(workloads.SquidBenignInput(40))
	res := serve(t, workloads.NewSquidStream(), chunks, 44, WithReplicas(3))
	if res.Chunks != len(chunks) {
		t.Fatalf("served %d of %d", res.Chunks, len(chunks))
	}
	if len(res.Incidents) != 0 {
		t.Fatalf("benign stream had incidents: %+v", res.Incidents)
	}
}

func TestServeSurvivesHostileStreamAndPatchesOnline(t *testing.T) {
	// The Figure 5 story end to end: hostile requests recur throughout
	// the stream; the service must never stop, must isolate the overflow
	// from synchronized live-replica images, reload patches into the
	// running replicas, and keep answering.
	var raw bytes.Buffer
	raw.Write(workloads.SquidHostileInput(60, 30))
	raw.Write(workloads.SquidHostileInput(60, 20)) // second wave, same bug
	raw.Write(workloads.SquidHostileInput(60, 45)) // third wave
	chunks := workloads.SquidRequestStream(raw.Bytes())

	var res *ServeResult
	detected := false
	for seed := uint64(1); seed <= 5 && !detected; seed++ {
		res = serve(t, workloads.NewSquidStream(), chunks, seed*99991, WithReplicas(4))
		detected = len(res.Incidents) > 0
	}
	if !detected {
		t.Skip("overflow invisible across 5 service layouts")
	}
	// The service processed the whole stream regardless.
	if res.Chunks != len(chunks) {
		t.Fatalf("service stopped early: %d of %d chunks", res.Chunks, len(chunks))
	}
	t.Logf("%s", res)

	// If a patch was derived, later incidents should not recur for the
	// same site (pads grow monotonically, so at most a couple of rounds).
	if res.Patches.Len() > 0 {
		pad := uint32(0)
		for _, p := range res.Patches.Pads {
			if p > pad {
				pad = p
			}
		}
		if pad < 6 {
			t.Errorf("pad %d does not contain squid's 6-byte overflow", pad)
		}
	}
}

func TestServeRestartsCrashedReplica(t *testing.T) {
	// Force a crash: an underflow at a miniheap's first slot can walk off
	// the mapped region. Use a hostile stream long enough that some
	// layout crashes one replica; the service must restart it and finish.
	var raw bytes.Buffer
	for i := 0; i < 4; i++ {
		raw.Write(workloads.SquidHostileInput(50, 10+i*9))
	}
	chunks := workloads.SquidRequestStream(raw.Bytes())
	sawCrash := false
	for seed := uint64(1); seed <= 10 && !sawCrash; seed++ {
		res := serve(t, workloads.NewSquidStream(), chunks, seed*31337, WithReplicas(3))
		if res.Chunks != len(chunks) {
			t.Fatal("service stopped early")
		}
		if res.Crashes > 0 {
			sawCrash = true
			for _, inc := range res.Incidents {
				if len(inc.Restarted) > 0 {
					return // restart recorded in an incident ✓
				}
			}
			t.Fatal("crash absorbed but no restart recorded")
		}
	}
	if !sawCrash {
		t.Skip("no replica crash across 10 layouts (overflow never walked off a miniheap)")
	}
}

func TestServeResultString(t *testing.T) {
	res := serve(t, workloads.NewSquidStream(), nil, 1)
	if res.String() == "" {
		t.Fatal("empty string")
	}
}

// divergentService exposes heap addresses in its output — the class of
// bug (address-dependent behaviour) that only the voter catches.
type divergentService struct{}

func (divergentService) Name() string { return "divergent" }
func (divergentService) NewSession(e *mutator.Env) mutator.Session {
	return &divergentSession{e: e}
}

type divergentSession struct {
	e *mutator.Env
	n int
}

func (s *divergentSession) Step(chunk []byte) {
	p := s.e.Malloc(32)
	s.n++
	if s.n == 5 {
		// The bug: output depends on the heap address.
		s.e.Printf("result %d\n", p%97)
	} else {
		s.e.Printf("result %d\n", s.n)
	}
	s.e.Free(p)
}

func TestServeDetectsOutputDivergence(t *testing.T) {
	chunks := make([][]byte, 10)
	for i := range chunks {
		chunks[i] = []byte("x")
	}
	res := serve(t, divergentService{}, chunks, 5, WithReplicas(3))
	if len(res.Incidents) == 0 {
		t.Fatal("address-dependent output not flagged")
	}
	if res.Incidents[0].Detection != "output divergence" {
		t.Fatalf("detection = %q", res.Incidents[0].Detection)
	}
	if res.Incidents[0].Chunk != 4 {
		t.Fatalf("flagged chunk %d, want 4", res.Incidents[0].Chunk)
	}
	// The voter still emitted SOME plurality output for every chunk.
	if res.Chunks != 10 {
		t.Fatal("service stopped")
	}
}

package cumulative

import (
	"bytes"
	"encoding/binary"
	"testing"

	"exterminator/internal/site"
)

// fuzzHistorySeed encodes a small history carrying every section:
// sites, overflow and dangling evidence, pad and deferral hints, and a
// non-empty upload watermark.
func fuzzHistorySeed(t testing.TB) []byte {
	hist := NewHistory(DefaultConfig())
	hist.Absorb(&Snapshot{
		Runs: 3, FailedRuns: 1, CorruptRuns: 1,
		Sites: []site.ID{1, 2},
		Overflow: []SiteObservations{
			{Site: 1, Obs: []Observation{{X: 0.5, Y: true}}},
		},
		Dangling: []PairObservations{
			{Alloc: 1, Free: 2, Obs: []Observation{{X: 0.25, Y: false}}},
		},
		PadHints:      []PadHint{{Site: 1, Pad: 16}},
		DeferralHints: []DeferralHint{{Alloc: 1, Free: 2, Deferral: 40}},
	})
	hist.MarkUploaded(hist.UploadDelta())
	hist.Absorb(&Snapshot{Runs: 1, Sites: []site.ID{3}})
	var buf bytes.Buffer
	if err := hist.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzHistoryDecode fuzzes the standalone XTCH history decoder — the
// format -resume-history and engine.HistoryFile read from user-supplied
// files. Corrupt, truncated or forged input must come back as an error,
// never a panic; an accepted history must re-encode, and that encoding
// must decode and re-encode to the same bytes.
func FuzzHistoryDecode(f *testing.F) {
	seed := fuzzHistorySeed(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // truncated mid-evidence
	f.Add(seed[:6])           // truncated inside the header
	f.Add([]byte{})
	// Older version: refused.
	older := append([]byte{}, seed...)
	binary.LittleEndian.PutUint32(older[4:], persistVersion-1)
	f.Add(older)
	// Forged site count far beyond the bytes present.
	forged := append([]byte{}, seed...)
	binary.LittleEndian.PutUint32(forged[36:], 0x3FFFFF)
	f.Add(forged)
	f.Fuzz(func(t *testing.T, data []byte) {
		hist, err := DecodeHistory(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := hist.Encode(&first); err != nil {
			t.Fatalf("re-encode of accepted history: %v", err)
		}
		again, err := DecodeHistory(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded history rejected: %v", err)
		}
		var second bytes.Buffer
		if err := again.Encode(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("re-encode round trip is not stable")
		}
	})
}

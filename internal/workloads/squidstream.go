// SquidStream is the streaming (long-running service) form of the Squid
// workload: one request per Step, live cache state across steps — the
// shape engine.ModeServe (Figure 5) needs.
package workloads

import (
	"strings"

	"exterminator/internal/mutator"
)

// SquidStream is the service program.
type SquidStream struct{}

// NewSquidStream returns the streaming squid.
func NewSquidStream() SquidStream { return SquidStream{} }

// Name implements mutator.StreamProgram.
func (SquidStream) Name() string { return "squid-stream" }

// SquidSession is one replica's live cache.
type SquidSession struct {
	e      *mutator.Env
	cache  []cacheEntry
	served int
	hits   int
}

// NewSession implements mutator.StreamProgram.
func (SquidStream) NewSession(e *mutator.Env) mutator.Session {
	return &SquidSession{e: e}
}

var _ mutator.StreamProgram = SquidStream{}

// Step processes one request line ("GET <url>").
func (s *SquidSession) Step(chunk []byte) {
	e := s.e
	line := strings.TrimSpace(string(chunk))
	if line == "" || !strings.HasPrefix(line, "GET ") {
		return
	}
	url := strings.TrimPrefix(line, "GET ")
	host := hostOf(url)

	var reqBuf, respBuf mutator.Ptr
	e.Call(0x5151A, func() { reqBuf = e.Malloc(len(url) + 1) })
	e.Write(reqBuf, 0, []byte(url))
	e.Call(0x5151B, func() { respBuf = e.Malloc(24 + len(host)%8) })
	e.Write(respBuf, 0, []byte("HTTP/1.0 200 OK\r\n"))

	found := false
	for _, ent := range s.cache {
		if ent.key == host {
			s.hits++
			found = true
			break
		}
	}
	if !found {
		var ptr mutator.Ptr
		var stored int
		e.Call(0x5151D, func() { ptr, stored = Squid{}.storeHost(e, host) })
		s.cache = append(s.cache, cacheEntry{ptr: ptr, size: stored, key: host})
		if len(s.cache) > 24 {
			old := s.cache[0]
			s.cache = s.cache[1:]
			e.Call(0x5151E, func() { e.Free(old.ptr) })
		}
	}
	s.served++
	e.Call(0x5151F, func() {
		e.Free(respBuf)
		e.Free(reqBuf)
	})
	e.Printf("squid-stream served=%d hits=%d\n", s.served, s.hits)
}

// SquidRequestStream splits the batch input format into per-request
// chunks for engine.WithChunks.
func SquidRequestStream(input []byte) [][]byte {
	var chunks [][]byte
	for _, line := range strings.Split(string(input), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		chunks = append(chunks, []byte(line))
	}
	return chunks
}

// Package shard executes a campaign's units on worker processes. The
// coordinator is a per-unit executor: campaign.Service, the repository's
// only unit scheduler, plugs Coordinator.Exec in as a job's Exec, and each
// call runs one unit (a sensitivity benchmark pass, a mix run — any key the
// worker can execute) on an idle worker. Each worker journals completed
// units to its own crash-safe checkpoint file and streams the results
// back; the campaign assembles its outputs from its main journal in
// canonical unit order, so a sharded campaign's outputs are byte-identical
// to the in-process run's.
//
// The same coordinator logic works over any pair of byte streams, so the
// unit tests drive it over in-memory pipes while the commands drive it over
// the stdin/stdout of re-executed worker processes (process.go,
// `cmd/experiments -shard-worker`). See EXPERIMENTS.md "Sharded campaigns"
// for the operational contract and docs/PERFORMANCE.md for measurements.
//
// # Protocol
//
// One JSON object per line in each direction.
//
// Coordinator → worker:
//
//	{"kind":"assign","key":"mix/3"}                  // execute one unit
//	{"kind":"shutdown"}                              // finish and exit
//
// Worker → coordinator:
//
//	{"kind":"result","key":"mix/3","value":...}      // unit completed
//	{"kind":"result","key":"mix/3","value":...,"outcome":"replayed"}
//	                                                 // completed with the
//	                                                 // outcome its executor
//	                                                 // reported; "resumed"
//	                                                 // when replayed from
//	                                                 // the worker's journal
//	{"kind":"error","key":"mix/3","error":"..."}     // unit failed (after
//	                                                 // the worker's retries)
//	{"kind":"heartbeat"}                             // liveness pulse
//
// # Failure model
//
// A worker that stops heartbeating (death, wedge, kill -9) is declared dead
// after a lease timeout, and one whose stream ends is dead at once, even if
// it died idle between units. The coordinator then recovers whatever the
// dead worker journaled but never streamed (checkpoint.ReadUnits on its
// shard journal), runs its unit in flight again if the journal lacks it,
// and respawns a replacement if the respawn budget allows. Because units
// are deterministic functions of the fingerprinted configuration, a unit
// that runs twice — journaled by a worker presumed dead, then re-executed
// by its replacement — produces byte-identical values, and the coordinator
// verifies exactly that instead of trusting it.
package shard

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Message kinds, coordinator → worker.
const (
	kindAssign   = "assign"
	kindShutdown = "shutdown"
)

// Message kinds, worker → coordinator.
const (
	kindResult    = "result"
	kindError     = "error"
	kindHeartbeat = "heartbeat"
)

// message is one protocol line in either direction.
type message struct {
	Kind string `json:"kind"`
	// Key names the unit (assign, result, error).
	Key string `json:"key,omitempty"`
	// Value carries the unit result, verbatim.
	Value json.RawMessage `json:"value,omitempty"`
	// Error is the unit's failure, rendered (error values don't cross
	// process boundaries).
	Error string `json:"error,omitempty"`
	// Outcome is the unit's settled outcome when it is not a plain run:
	// whatever the worker's Exec reported through campaign.ReportOutcome
	// (experiments.UnitReplayed for a unit served from the front-end trace
	// cache), or "resumed" for a result replayed from the worker's own
	// checkpoint journal. The coordinator forwards it to the campaign
	// service, so observers keep such units out of their rate estimates.
	Outcome string `json:"outcome,omitempty"`
}

// stream wraps one direction of a protocol connection: a line-buffered
// encoder safe for concurrent senders (the worker's heartbeat goroutine
// writes alongside its unit loop).
type stream struct {
	mu sync.Mutex
	w  *bufio.Writer
}

func newStream(w io.Writer) *stream {
	return &stream{w: bufio.NewWriter(w)}
}

// send marshals m as one line and flushes it — every protocol message is
// latency-sensitive (assignments gate worker progress, heartbeats gate
// liveness), so nothing is left buffered.
func (s *stream) send(m message) error {
	line, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("shard: marshal %s: %w", m.Kind, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.w.Write(append(line, '\n')); err != nil {
		return err
	}
	return s.w.Flush()
}

// reader decodes protocol lines from r. Lines are capped generously — a mix
// unit's value carries its full telemetry event list.
func reader(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), maxLineBytes)
	return sc
}

// maxLineBytes bounds one protocol line. A full-fidelity mix unit's
// journaled form (rendered report group + telemetry events + rows) is a few
// MB at most; 256 MiB leaves two orders of magnitude of headroom while
// still catching a corrupted stream before it OOMs the coordinator.
const maxLineBytes = 256 << 20

// decode parses one line into a message.
func decode(line []byte) (message, error) {
	var m message
	if err := json.Unmarshal(line, &m); err != nil {
		return message{}, fmt.Errorf("shard: bad protocol line %.80q: %w", line, err)
	}
	if m.Kind == "" {
		return message{}, fmt.Errorf("shard: protocol line %.80q has no kind", line)
	}
	return m, nil
}

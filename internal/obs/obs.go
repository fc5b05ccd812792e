// Package obs is the operational observability layer: wall-clock span
// tracing, campaign progress and ETA, worker-pool gauges, a heartbeat
// journal, and an embedded HTTP server exposing Prometheus metrics,
// health, progress, and pprof.
//
// It is the deliberate complement of internal/telemetry, and the two must
// never be confused:
//
//   - telemetry records what the SIMULATED machine did, stamped in simulated
//     time, on a channel whose bytes are part of the experiment's output —
//     byte-identical across repetitions, compared by equivalence tests.
//   - obs records what THIS PROCESS is doing, stamped in wall-clock time, on
//     channels (a span JSONL file, stderr, HTTP responses) that are never
//     part of an experiment's output. Two runs of the same campaign produce
//     different obs streams and identical telemetry streams.
//
// Keeping the channels separate is what lets a fully observed campaign
// still satisfy the repository's bitwise-equivalence discipline: enabling
// -http, span tracing, and the progress display changes no byte of -out or
// -telemetry (tested in cmd/experiments).
//
// Like telemetry, obs observes without participating, and disabled obs is
// free: every entry point is nil-safe, so code paths instrumented with a
// span or a unit callback cost a nil check when observability is off.
package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"untangle/internal/checkpoint"
)

// Span is one timed region of campaign work, part of a hierarchy:
// campaign -> phase -> unit (benchmark or mix) -> engine pass. Spans are
// wall-clock by nature; they answer "where did the hours go", never "what
// did the simulation compute".
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	start  time.Time
	// Outcome marks a unit that skipped (some of) its work: UnitResumed for
	// a checkpoint-journal replay, UnitReplayed for a front-end trace-cache
	// replay, UnitGenerated (empty, the default) for a unit that actually
	// ran. Set it before End.
	Outcome string
}

// Unit outcomes, mirrored from the experiments package (the two packages
// must not import each other; the observer contract is an unnamed string).
const (
	UnitGenerated = ""
	UnitResumed   = "resumed"
	UnitReplayed  = "replayed"
	UnitDead      = "dead"
)

// spanRecord is the JSONL wire form. Every span emits two lines — a start
// record when it opens and an end record when it closes — so a live tail of
// the file shows in-flight structure, and a crash leaves the open spans
// identifiable (starts without ends).
type spanRecord struct {
	Ev     string `json:"ev"` // "start" | "end"
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Phase  string `json:"phase,omitempty"`
	Name   string `json:"name,omitempty"`
	AtNs   int64  `json:"at_unix_ns"`
	DurNs  int64  `json:"dur_ns,omitempty"`
	// Outcome distinguishes replayed work in the trace: "resumed"
	// (checkpoint journal) or "replayed" (front-end trace cache); omitted
	// for units that actually ran.
	Outcome string `json:"outcome,omitempty"`
	Err     string `json:"err,omitempty"`
}

// Tracer appends span records as JSONL to a writer. A nil *Tracer is a
// valid disabled tracer: Start returns a nil span, End on a nil span is a
// no-op, and nothing is ever written. All methods are safe for concurrent
// use; each record is marshaled fully and written under one lock
// acquisition, so concurrent spans never tear a line.
type Tracer struct {
	mu     sync.Mutex
	w      *bufio.Writer
	err    error
	nextID atomic.Uint64
	now    func() time.Time // test seam; time.Now in production
}

// NewTracer builds a tracer over w. The caller owns w's lifecycle; call
// Flush before closing it.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: bufio.NewWriter(w), now: time.Now}
}

// Start opens a span under parent (nil for a root) and emits its start
// record. phase groups spans of the same kind ("sensitivity", "mix",
// "sensitivity/pass"); name identifies the unit ("mcf_0", "mix/3").
func (t *Tracer) Start(parent *Span, phase, name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{t: t, id: t.nextID.Add(1), start: t.now()}
	if parent != nil {
		s.parent = parent.id
	}
	t.emit(spanRecord{
		Ev:     "start",
		ID:     s.id,
		Parent: s.parent,
		Phase:  phase,
		Name:   name,
		AtNs:   s.start.UnixNano(),
	})
	return s
}

// End closes the span, recording its duration, outcome, and error (if
// any). End on a nil span is a no-op; End is not idempotent — call it once.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	now := s.t.now()
	rec := spanRecord{
		Ev:      "end",
		ID:      s.id,
		AtNs:    now.UnixNano(),
		DurNs:   now.Sub(s.start).Nanoseconds(),
		Outcome: s.Outcome,
	}
	if err != nil {
		rec.Err = err.Error()
	}
	s.t.emit(rec)
}

func (t *Tracer) emit(rec spanRecord) {
	line, err := json.Marshal(rec)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(line); err != nil {
		t.err = err
		return
	}
	if err := t.w.WriteByte('\n'); err != nil {
		t.err = err
	}
}

// Flush pushes buffered records to the underlying writer and returns the
// first error the tracer encountered. Nil-safe.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	t.err = t.w.Flush()
	return t.err
}

// HeartbeatPath returns the conventional heartbeat location for a
// checkpoint journal: a sidecar next to the journal file, so the two travel
// together and an operator inspecting a run directory finds both. A nil or
// in-memory journal has no heartbeat ("").
func HeartbeatPath(j *checkpoint.Journal) string {
	if j == nil || j.Path() == "" {
		return ""
	}
	return j.Path() + ".heartbeat"
}

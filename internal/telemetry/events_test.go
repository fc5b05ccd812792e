package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// oneOfEach builds one fully-populated instance of every event type, keyed
// by wire tag.
func oneOfEach() []Event {
	h := Header{AtNs: 1234, Source: "Untangle", Domain: 3}
	return []Event{
		&ResizeRequested{Header: h, PrevBytes: 2 << 20, TargetBytes: 4 << 20},
		&ResizeGranted{Header: h, PrevBytes: 2 << 20, SizeBytes: 4 << 20},
		&ResizeDenied{Header: h, PrevBytes: 2 << 20, TargetBytes: 4 << 20, Reason: DenyDebounce},
		&MonitorWindowClosed{Header: h, Window: 1_000_000, Windows: 7, Observed: 7_500_000},
		&CooldownStarted{Header: h, DurationNs: 1_000_000},
		&CooldownExpired{Header: h},
		&LeakageBitCharged{Header: h, Bits: 0.25, TotalBits: 3.5, MaintainRun: 4},
		&SchemeAssessment{Header: h, PrevBytes: 2 << 20, SizeBytes: 2 << 20, Visible: false, ApplyAtNs: 2048},
		&DomainQuantum{Header: h, Retired: 100_000, IPC: 1.75, CommittedBytes: 2 << 20},
	}
}

func TestEventRoundTripEveryType(t *testing.T) {
	events := oneOfEach()
	if len(events) != len(EventKinds()) {
		t.Fatalf("oneOfEach covers %d types, schema defines %d", len(events), len(EventKinds()))
	}
	for _, ev := range events {
		line, err := MarshalEvent(ev)
		if err != nil {
			t.Fatalf("%s: marshal: %v", ev.Kind(), err)
		}
		if !json.Valid(line) {
			t.Fatalf("%s: invalid JSON: %s", ev.Kind(), line)
		}
		if !bytes.HasPrefix(line, []byte(`{"type":"`+ev.Kind()+`"`)) {
			t.Fatalf("%s: line does not lead with its type tag: %s", ev.Kind(), line)
		}
		back, err := UnmarshalEvent(line)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", ev.Kind(), err)
		}
		if !reflect.DeepEqual(ev, back) {
			t.Fatalf("%s: round trip mismatch:\n in: %#v\nout: %#v", ev.Kind(), ev, back)
		}
	}
}

func TestEventLinesAreFlat(t *testing.T) {
	// The schema promises flat objects (docs/TELEMETRY.md): every field at
	// the top level, no nested "data" envelope.
	line, err := MarshalEvent(&ResizeGranted{Header: Header{AtNs: 5, Domain: 1}, PrevBytes: 1, SizeBytes: 2})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(line, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"type", "at_ns", "domain", "prev_bytes", "size_bytes"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("missing top-level key %q in %s", key, line)
		}
	}
}

func TestReadJSONLTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	for _, ev := range oneOfEach()[:3] {
		line, err := MarshalEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	// A torn final line, as a SIGKILLed writer would leave.
	buf.WriteString(`{"type":"DomainQuantum","at_ns":12,"dom`)
	events, err := ReadJSONL(&buf)
	if err == nil {
		t.Fatal("expected an error for the torn tail")
	}
	if len(events) != 3 {
		t.Fatalf("got %d whole events before the tear, want 3", len(events))
	}
}

func TestUnmarshalEventUnknownType(t *testing.T) {
	if _, err := UnmarshalEvent([]byte(`{"type":"NoSuchEvent"}`)); err == nil ||
		!strings.Contains(err.Error(), "NoSuchEvent") {
		t.Fatalf("want unknown-type error, got %v", err)
	}
}

func TestTracerStampsSourceAndClock(t *testing.T) {
	buf := NewBuffer()
	tr := New(buf, nil, "mix1/Time")
	tr.SetClock(ClockFunc(func() time.Duration { return 42 * time.Nanosecond }))

	// Explicit timestamp wins; the clock fills in only zero timestamps.
	tr.Emit(&CooldownExpired{Header: Header{AtNs: 7, Domain: 0}})
	tr.Emit(&CooldownExpired{Header: Header{Domain: 1}})

	events := buf.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if got := events[0].Hdr(); got.AtNs != 7 || got.Source != "mix1/Time" {
		t.Fatalf("explicit-time event header = %+v", got)
	}
	if got := events[1].Hdr(); got.AtNs != 42 || got.Source != "mix1/Time" {
		t.Fatalf("clock-stamped event header = %+v", got)
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.SetClock(ClockFunc(func() time.Duration { return 0 }))
	tr.Emit(&CooldownExpired{}) // must not panic
}

// TestNilTracerEmitAllocs pins telemetry's cost when disabled: a nil
// tracer's Emit allocates nothing. (Emit sites build their event behind
// the same nil check, so they allocate nothing either.)
func TestNilTracerEmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	var tr *Tracer
	ev := &ResizeGranted{PrevBytes: 2 << 20, SizeBytes: 4 << 20}
	if n := testing.AllocsPerRun(1000, func() { tr.Emit(ev) }); n != 0 {
		t.Errorf("nil Tracer.Emit: %v allocs, want 0", n)
	}
}

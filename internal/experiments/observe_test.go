package experiments

import (
	"context"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"untangle/internal/checkpoint"
)

// unitLog is a thread-safe recorder standing in for an obs.Campaign.
type unitLog struct {
	mu       sync.Mutex
	began    map[string]int // phase -> begins
	done     int
	resumed  int
	replayed int
	failed   int
	passes   int
}

func (l *unitLog) observer(phase, unit string) func(outcome string, err error) {
	l.mu.Lock()
	if l.began == nil {
		l.began = map[string]int{}
	}
	l.began[phase]++
	l.mu.Unlock()
	if strings.ContainsRune(phase, '/') {
		return func(outcome string, err error) {
			l.mu.Lock()
			l.passes++
			l.mu.Unlock()
		}
	}
	return func(outcome string, err error) {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.done++
		switch outcome {
		case UnitResumed:
			l.resumed++
		case UnitReplayed:
			l.replayed++
		}
		if err != nil {
			l.failed++
		}
	}
}

// With no observer installed, ObserveUnit is nil; with one installed, every
// sensitivity unit a campaign job runs and every engine pass reports
// exactly once, and units the journal already holds report resumed.
func TestUnitObserverSeam(t *testing.T) {
	if ObserveUnit("sensitivity", "x") != nil {
		t.Fatal("ObserveUnit returned a callback with no observer installed")
	}

	var l unitLog
	SetUnitObserver(l.observer)
	defer SetUnitObserver(nil)

	fp := checkpoint.Fingerprint{
		Instructions: resilienceTestInstructions,
		Units:        "sensitivity",
		ParamsTag:    ParamsFingerprint(),
	}
	j, err := checkpoint.Open(filepath.Join(t.TempDir(), "obs.ckpt"), fp)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	if _, err := runStudyJob(context.Background(), j, 2); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	firstDone, firstResumed, firstPasses := l.done, l.resumed, l.passes
	l.mu.Unlock()
	if firstDone != 36 {
		t.Errorf("units done = %d, want 36", firstDone)
	}
	if firstResumed != 0 {
		t.Errorf("fresh run reported %d resumed units", firstResumed)
	}
	if firstPasses != 36 {
		t.Errorf("engine passes = %d, want 36 (one attempt each)", firstPasses)
	}

	// Re-run against the full journal: every unit reports resumed, and no
	// engine pass runs.
	if _, err := runStudyJob(context.Background(), j, 2); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if got := l.done - firstDone; got != 36 {
		t.Errorf("replay units done = %d, want 36", got)
	}
	if l.resumed != 36 {
		t.Errorf("replay resumed = %d, want 36", l.resumed)
	}
	if l.passes != firstPasses {
		t.Errorf("replay ran %d engine passes, want 0", l.passes-firstPasses)
	}
	if l.failed != 0 {
		t.Errorf("failed = %d, want 0", l.failed)
	}
}

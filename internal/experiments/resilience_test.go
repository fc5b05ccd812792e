package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"untangle/internal/campaign"
	"untangle/internal/checkpoint"
	"untangle/internal/faultinject"
	"untangle/internal/parallel"
)

// equalStudies compares two study outputs bit-for-bit. reflect.DeepEqual
// would be wrong here: tiny instruction budgets yield NaN IPC points, and
// NaN != NaN under DeepEqual even when the bit patterns are identical.
func equalStudies(a, b []SensitivityResult) bool {
	return slices.EqualFunc(a, b, func(x, y SensitivityResult) bool {
		return x.Name == y.Name &&
			x.Adequate == y.Adequate &&
			x.Sensitive == y.Sensitive &&
			slices.Equal(x.Sizes, y.Sizes) &&
			slices.EqualFunc(x.NormIPC, y.NormIPC, func(p, q float64) bool {
				return math.Float64bits(p) == math.Float64bits(q)
			})
	})
}

// Small enough that the full 36-benchmark study runs in well under a second,
// large enough that every pass streams multiple front-end chunks (so the
// chunk fault hook has somewhere to fire mid-pass).
const resilienceTestInstructions = 20_000

func TestParamsFingerprintStableAndShaped(t *testing.T) {
	a, b := ParamsFingerprint(), ParamsFingerprint()
	if a != b {
		t.Fatalf("not deterministic: %s vs %s", a, b)
	}
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(a) {
		t.Fatalf("tag %q is not 16 hex digits", a)
	}
}

// A transient mid-pass fault costs one retry of that pass, and the retried
// study is bit-identical to an untroubled run — the simulations are pure
// functions of their configuration.
func TestTransientFaultRetriedBitIdentical(t *testing.T) {
	ctx := context.Background()
	baseline, err := SensitivityStudyContext(ctx, resilienceTestInstructions, 1)
	if err != nil {
		t.Fatal(err)
	}

	// One injected failure partway into some pass's chunk stream.
	inj := faultinject.ErrorAt(7, 1, nil)
	SetEngineChunkHook(inj.Fire)
	defer SetEngineChunkHook(nil)
	faulted, err := SensitivityStudyContext(ctx, resilienceTestInstructions, 1)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Calls() == 0 {
		t.Fatal("fault hook never ran — the test is vacuous")
	}
	if !equalStudies(baseline, faulted) {
		t.Error("retried study differs from the no-fault run")
	}
}

// A persistent fault exhausts the retry budget and surfaces as an error
// instead of wedging the campaign.
func TestPersistentFaultExhaustsRetries(t *testing.T) {
	inj := faultinject.ErrorAt(1, ^uint64(0), nil) // every call fails
	SetEngineChunkHook(inj.Fire)
	defer SetEngineChunkHook(nil)
	_, err := SensitivityStudyContext(context.Background(), resilienceTestInstructions, 1)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if n := inj.Calls(); n != RetryAttempts {
		t.Errorf("fault hook ran %d times, want one per attempt (%d)", n, RetryAttempts)
	}
}

// A panic inside an engine pass is recovered into a *PanicError naming the
// failing benchmark index; the process survives and the panic is not retried.
func TestPanicInEngineSurfacesAsPanicError(t *testing.T) {
	// The engine fires the hook at least twice per pass (once per chunk plus
	// the end-of-stream check), so call 2 is guaranteed to land inside the
	// first benchmark's pass.
	inj := faultinject.PanicAt(2, "corrupted lane state")
	SetEngineChunkHook(inj.Fire)
	defer SetEngineChunkHook(nil)
	_, err := SensitivityStudyContext(context.Background(), resilienceTestInstructions, 1)
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *parallel.PanicError", err, err)
	}
	if pe.Index != 0 {
		t.Errorf("Index = %d, want 0 (call 2 lands in the first benchmark's pass)", pe.Index)
	}
	if pe.Value != "corrupted lane state" {
		t.Errorf("Value = %v", pe.Value)
	}
}

// runStudyJob runs the study the way a campaign does: one sensitivity
// phase on a campaign service whose executor is RunSensitivityUnit,
// journaling into j, then the study assembled from the journal. The first
// failing unit fails the job.
func runStudyJob(ctx context.Context, j *checkpoint.Journal, workers int) ([]SensitivityResult, error) {
	svc := campaign.New(campaign.Options{Workers: workers})
	defer svc.Drain(context.Background())
	err := svc.Run(ctx, campaign.JobSpec{
		ID:     "sens",
		Phases: []campaign.PhaseSpec{{Name: "sensitivity", Keys: SensitivityKeys()}},
		Exec: func(ctx context.Context, key string) (json.RawMessage, error) {
			raw, outcome, err := RunSensitivityUnit(ctx, key, resilienceTestInstructions)
			campaign.ReportOutcome(ctx, outcome)
			return raw, err
		},
		Journal:  j,
		FailFast: true,
		Observe: func(phase, key string) func(outcome string, err error) {
			return ObserveUnit(phase, strings.TrimPrefix(key, "sens/"))
		},
	})
	if err != nil {
		return nil, err
	}
	return StudyFromJournal(j)
}

// Kill the study partway, resume from the journal, and require the resumed
// results to equal an uninterrupted run's — including the replayed units.
func TestStudyCheckpointResume(t *testing.T) {
	fresh, err := SensitivityStudyContext(context.Background(), resilienceTestInstructions, 1)
	if err != nil {
		t.Fatal(err)
	}

	fp := checkpoint.Fingerprint{
		Instructions: resilienceTestInstructions,
		Units:        "sensitivity",
		ParamsTag:    ParamsFingerprint(),
	}
	path := filepath.Join(t.TempDir(), "study.ckpt")
	j, err := checkpoint.Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	// "Crash" mid-campaign: cancel the context partway into the pass stream.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := faultinject.CancelAt(40, cancel)
	SetEngineChunkHook(inj.Fire)
	_, err = runStudyJob(ctx, j, 1)
	SetEngineChunkHook(nil)
	if err == nil {
		t.Fatal("interrupted study reported success")
	}
	j.Close()

	j2, err := checkpoint.Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Resumed() == 0 {
		t.Fatal("interruption journaled nothing — the resume path is untested")
	}
	if j2.Resumed() == 36 {
		t.Fatal("interruption journaled everything — the recompute path is untested")
	}
	resumed, err := runStudyJob(context.Background(), j2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !equalStudies(fresh, resumed) {
		t.Error("resumed study differs from the uninterrupted run")
	}
	if j2.Len() != 36 {
		t.Errorf("journal holds %d units after resume, want all 36", j2.Len())
	}
}

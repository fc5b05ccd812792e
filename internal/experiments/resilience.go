// The evaluation's resilience layer: configuration fingerprinting for the
// checkpoint journal, bounded retry of transient engine failures, and the
// study's journal encoding and per-unit body. A paper-fidelity campaign
// is hours of compute; this file is what lets it survive a fault in one
// point (retry), a crash of the process (checkpoint/resume), and a silent
// configuration drift between the crashing and the resuming binary
// (fingerprint mismatch fails loudly).
package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"untangle/internal/checkpoint"
	"untangle/internal/parallel"
	"untangle/internal/partition"
	"untangle/internal/workload"
)

// Retry policy for one unit of campaign work. Three attempts with a short
// exponential backoff outlast any transient fault worth retrying; anything
// that fails three deterministic re-runs is a real error. Simulations are
// pure functions of their configuration, so a retried unit is bit-identical
// to a first-attempt success (TestTransientFaultRetriedBitIdentical).
const (
	RetryAttempts = 3
	RetryBackoff  = 50 * time.Millisecond
)

// ParamsFingerprint hashes the parameter tables compiled into this binary —
// the SPEC benchmark set, the 16 mixes, and the four schemes' defaults —
// into a short tag. It plays the role of a git describe in the checkpoint
// fingerprint: a journal written by a binary with different tables must not
// be resumed, because its journaled units would not match what this binary
// computes.
func ParamsFingerprint() string {
	h := fnv.New64a()
	for _, p := range workload.SPECBenchmarks {
		fmt.Fprintf(h, "%+v\n", p)
	}
	for _, m := range workload.Mixes {
		fmt.Fprintf(h, "%+v\n", m)
	}
	for _, k := range []partition.Kind{partition.Static, partition.TimeBased, partition.Untangle, partition.Shared} {
		fmt.Fprintf(h, "%+v\n", partition.DefaultScheme(k))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// SensitivityKey is the checkpoint journal key of one benchmark's pass.
func SensitivityKey(name string) string { return "sens/" + name }

// sensUnit is the journal encoding of a SensitivityResult. The IPC curve
// goes through checkpoint.F64 so the round trip is bit-exact and tolerates
// the NaN points a small instruction budget produces (encoding/json rejects
// NaN; a journal must record whatever the engine computed).
type sensUnit struct {
	Name      string           `json:"name"`
	Sizes     []int64          `json:"sizes"`
	NormIPC   []checkpoint.F64 `json:"norm_ipc"`
	Adequate  int64            `json:"adequate"`
	Sensitive bool             `json:"sensitive"`
}

func toSensUnit(r SensitivityResult) sensUnit {
	return sensUnit{
		Name:      r.Name,
		Sizes:     r.Sizes,
		NormIPC:   checkpoint.F64s(r.NormIPC),
		Adequate:  r.Adequate,
		Sensitive: r.Sensitive,
	}
}

func (u sensUnit) result() SensitivityResult {
	return SensitivityResult{
		Name:      u.Name,
		Sizes:     u.Sizes,
		NormIPC:   checkpoint.Floats(u.NormIPC),
		Adequate:  u.Adequate,
		Sensitive: u.Sensitive,
	}
}

// runSensitivityPass is the one per-unit body of the study, whatever runs
// the unit: the benchmark's multi-lane engine pass with transient
// retry, a pooled engine, the unit fault seam, and a "sensitivity/pass"
// sub-span per attempt. The outcome is UnitReplayed when the front end
// came from the trace cache, UnitGenerated otherwise.
func runSensitivityPass(ctx context.Context, p workload.Params, instructions uint64) (SensitivityResult, string, error) {
	key := SensitivityKey(p.Name)
	store := FrontEndCache()
	var (
		sizes   []int64
		ipcs    []float64
		outcome string
	)
	err := parallel.RetryUnit(ctx, key, RetryAttempts, RetryBackoff, func(ctx context.Context, attempt int) error {
		if ferr := FireUnitFault(key); ferr != nil {
			return ferr
		}
		passDone := ObserveUnit("sensitivity/pass", fmt.Sprintf("%s#%d", p.Name, attempt))
		e := enginePool.Get().(*laneEngine)
		defer enginePool.Put(e)
		sizes = e.sizes
		var (
			replayed bool
			err      error
		)
		ipcs, replayed, err = e.run(ctx, store, p, instructions)
		outcome = UnitGenerated
		if replayed {
			outcome = UnitReplayed
		}
		if passDone != nil {
			passDone(outcome, err)
		}
		return err
	})
	if err != nil {
		return SensitivityResult{}, UnitGenerated, err
	}
	return assembleSensitivity(p.Name, sizes, ipcs), outcome, nil
}

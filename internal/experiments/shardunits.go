// Campaign-executor entry points: the pieces of the evaluation a campaign
// job executes one unit at a time — on the service's goroutines or inside a
// shard worker process — plus the study's assembly from the journal those
// units fill. Everything here reuses the exact retry/engine/assembly path of
// the in-process study, so a unit's journal bytes are identical whether it
// ran in-process, checkpointed, or on a worker three respawns deep — the
// byte-equality the shard coordinator verifies on every duplicate result.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"untangle/internal/checkpoint"
)

// SensitivityKeys returns the journal keys of the Figure 11 study's units
// in canonical (sorted) execution order — the order the in-process study
// fans out and a campaign enumerates its sensitivity phase.
func SensitivityKeys() []string {
	params := sortedSPECParams()
	keys := make([]string, len(params))
	for i, p := range params {
		keys[i] = SensitivityKey(p.Name)
	}
	return keys
}

// StudyFromJournal assembles the Figure 11 study from a campaign journal in
// canonical benchmark order. A benchmark the journal lacks — dead-lettered,
// or cut off by an interrupt — leaves a zero row, so the figure renders
// degraded rather than failing.
func StudyFromJournal(j *checkpoint.Journal) ([]SensitivityResult, error) {
	keys := SensitivityKeys()
	study := make([]SensitivityResult, len(keys))
	for i, key := range keys {
		var u sensUnit
		ok, err := j.Lookup(key, &u)
		if err != nil {
			return nil, fmt.Errorf("checkpoint %s: %w", key, err)
		}
		if ok {
			study[i] = u.result()
		}
	}
	return study, nil
}

// RunSensitivityUnit executes the unit with journal key "sens/<name>" —
// the study's per-unit body, see runSensitivityPass — and returns the
// unit's journal encoding and outcome (UnitReplayed or UnitGenerated). The
// campaign executors call it, in-process and in shard workers alike, so a
// unit's journal bytes do not depend on where it ran.
func RunSensitivityUnit(ctx context.Context, key string, instructions uint64) (json.RawMessage, string, error) {
	name, ok := strings.CutPrefix(key, "sens/")
	for _, p := range sortedSPECParams() {
		if !ok || p.Name != name {
			continue
		}
		r, outcome, err := runSensitivityPass(ctx, p, instructions)
		if err != nil {
			return nil, outcome, err
		}
		raw, err := json.Marshal(toSensUnit(r))
		return raw, outcome, err
	}
	return nil, UnitGenerated, fmt.Errorf("experiments: unknown sensitivity unit %q", key)
}

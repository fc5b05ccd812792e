package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"untangle/internal/checkpoint"
	"untangle/internal/experiments"
	"untangle/internal/report"
	"untangle/internal/shard"
)

// The worker-kill injection hooks the sharded equivalence test arms.
const (
	envShardKillKey  = shard.EnvKillKey
	envShardKillOnce = shard.EnvKillOnce
)

// TestMain lets this test binary double as the shard worker (the
// coordinator re-execs os.Executable() with -shard-worker first).
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-shard-worker" {
		os.Exit(workerMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// A study sharded across worker processes — one of which is killed right
// after journaling a pass, before streaming it — renders the identical
// figure to the sequential in-process study.
func TestShardedStudyEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the study twice")
	}
	const instructions = 20_000
	ctx := context.Background()

	seqJ, err := checkpoint.Open(filepath.Join(t.TempDir(), "seq.ckpt"), studyFingerprint(instructions))
	if err != nil {
		t.Fatal(err)
	}
	defer seqJ.Close()
	want, err := experiments.SensitivityStudyCheckpointed(ctx, instructions, 1, seqJ)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	sentinel := filepath.Join(dir, "killed")
	t.Setenv(envShardKillKey, experiments.SensitivityKey(want[3].Name))
	t.Setenv(envShardKillOnce, sentinel)
	shJ, err := checkpoint.Open(filepath.Join(dir, "run.ckpt"), studyFingerprint(instructions))
	if err != nil {
		t.Fatal(err)
	}
	defer shJ.Close()
	got, err := runStudy(ctx, studyConfig{instructions: instructions, shards: 2}, shJ)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sentinel); err != nil {
		t.Fatalf("kill hook never fired: %v", err)
	}
	if gotFig, wantFig := report.Figure11(got), report.Figure11(want); gotFig != wantFig {
		t.Errorf("sharded figure differs from sequential:\n--- sharded ---\n%s\n--- sequential ---\n%s", gotFig, wantFig)
	}
}

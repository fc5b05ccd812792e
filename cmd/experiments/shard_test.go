package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"untangle/internal/experiments"
	"untangle/internal/shard"
)

// The worker-kill injection hooks the sharded equivalence test arms.
const (
	envShardKillKey  = shard.EnvKillKey
	envShardKillOnce = shard.EnvKillOnce
)

// TestMain lets this test binary double as the shard worker and the
// resident campaign service: the coordinator (and the serve tests) re-exec
// os.Executable() with -shard-worker or -serve as the first argument, which
// in tests is this binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-shard-worker" {
		os.Exit(workerMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "-serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// The tentpole guarantee of sharded execution: a campaign split across
// worker processes — including one whose worker is killed mid-campaign in
// the journaled-but-unstreamed window — commits a report and telemetry
// trace byte-identical to the sequential in-process run's.
func TestShardedCampaignEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three small campaigns")
	}
	freshReport, freshTrace := runCampaignFiles(t, context.Background(), equivalenceConfig(t.TempDir()))

	check := func(t *testing.T, gotReport, gotTrace []byte) {
		t.Helper()
		if !bytes.Equal(gotReport, freshReport) {
			t.Errorf("sharded report differs from sequential run (%d vs %d bytes)", len(gotReport), len(freshReport))
		}
		if !bytes.Equal(gotTrace, freshTrace) {
			t.Errorf("sharded telemetry differs from sequential run (%d vs %d bytes)", len(gotTrace), len(freshTrace))
		}
	}

	t.Run("clean", func(t *testing.T) {
		cfg := equivalenceConfig(t.TempDir())
		cfg.ckptPath = filepath.Join(filepath.Dir(cfg.outPath), "run.ckpt")
		cfg.shards = 3
		gotReport, gotTrace := runCampaignFiles(t, context.Background(), cfg)
		check(t, gotReport, gotTrace)
	})

	t.Run("worker-kill", func(t *testing.T) {
		dir := t.TempDir()
		sentinel := filepath.Join(dir, "killed")
		// The worker that draws mix/1 journals it, then exits without
		// streaming the result — the coordinator must harvest the shard
		// journal, respawn, and still merge identical bytes.
		t.Setenv(envShardKillKey, mixKey(1))
		t.Setenv(envShardKillOnce, sentinel)
		cfg := equivalenceConfig(dir)
		cfg.ckptPath = filepath.Join(dir, "run.ckpt")
		cfg.shards = 2
		gotReport, gotTrace := runCampaignFiles(t, context.Background(), cfg)
		if _, err := os.Stat(sentinel); err != nil {
			t.Fatalf("kill hook never fired: %v", err)
		}
		check(t, gotReport, gotTrace)
	})
}

// A sensitivity-only campaign (-mixes none) sharded across worker
// processes — one of which is killed right after journaling a benchmark
// pass, before streaming it — renders the identical Figure 11 report to
// the sequential in-process campaign.
func TestShardedStudyEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the study twice")
	}
	studyConfig := func(dir string) config {
		return config{
			scale:    0.0002,
			sensIns:  20_000,
			jobs:     1,
			outPath:  filepath.Join(dir, "report.txt"),
			telePath: filepath.Join(dir, "trace.jsonl"),
			traced:   true,
		}
	}
	want, _ := runCampaignFiles(t, context.Background(), studyConfig(t.TempDir()))

	dir := t.TempDir()
	sentinel := filepath.Join(dir, "killed")
	t.Setenv(envShardKillKey, experiments.SensitivityKeys()[3])
	t.Setenv(envShardKillOnce, sentinel)
	cfg := studyConfig(dir)
	cfg.ckptPath = filepath.Join(dir, "run.ckpt")
	cfg.shards = 2
	got, _ := runCampaignFiles(t, context.Background(), cfg)
	if _, err := os.Stat(sentinel); err != nil {
		t.Fatalf("kill hook never fired: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("sharded report differs from sequential:\n--- sharded ---\n%s\n--- sequential ---\n%s", got, want)
	}
	if !bytes.HasPrefix(want, []byte("Figure 11:")) || bytes.Contains(want, []byte("Table 6")) {
		t.Errorf("sensitivity-only report is not Figure 11 and the manifest:\n%s", want)
	}
}

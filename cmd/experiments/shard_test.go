package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"untangle/internal/checkpoint"
	"untangle/internal/experiments"
	"untangle/internal/faultinject"
	"untangle/internal/shard"
	"untangle/internal/workload"
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

// A mix unit is a function of its key and the fingerprinted flags: it
// journals the group's charts, and the report assembly renders the caption
// from the Figure 11 study. So Mix 1's journal value is byte-identical
// whether the campaign ran no study, a full study on shard workers (which
// never see the study), or a study with a dead-lettered benchmark, while
// the caption in each report follows that campaign's study.
func TestMixUnitIndependentOfStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three small campaigns")
	}
	mix, err := workload.MixByID(1)
	if err != nil {
		t.Fatal(err)
	}
	deadKey := experiments.SensitivityKey(mix.Pairs[0].SPEC)
	campaignConfig := func(dir string, sensIns uint64) config {
		cfg := equivalenceConfig(dir)
		cfg.ids = []int{1}
		cfg.sensIns = sensIns
		cfg.ckptPath = filepath.Join(dir, "run.ckpt")
		return cfg
	}
	// mixUnit runs cfg and returns Mix 1's journal value and the caption's
	// second line, which carries the demand.
	mixUnit := func(t *testing.T, cfg config) (json.RawMessage, string) {
		t.Helper()
		report, _ := runCampaignFiles(t, context.Background(), cfg)
		j, err := checkpoint.Open(cfg.ckptPath, cfg.fingerprint())
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if _, dead := j.Dead(deadKey); dead != cfg.dlq {
			t.Fatalf("%s dead-lettered = %v, want %v", deadKey, dead, cfg.dlq)
		}
		var raw json.RawMessage
		if ok, err := j.Lookup(mixKey(1), &raw); err != nil || !ok {
			t.Fatalf("journal %s: ok=%v err=%v", mixKey(1), ok, err)
		}
		for _, line := range strings.Split(string(report), "\n") {
			if strings.HasPrefix(line, "Total LLC size:") {
				return raw, line
			}
		}
		t.Fatalf("report has no caption:\n%s", report)
		return nil, ""
	}

	noStudy, noCaption := mixUnit(t, campaignConfig(t.TempDir(), 0))
	if noCaption != "Total LLC size: 16MB" {
		t.Errorf("caption without a study = %q", noCaption)
	}

	// At this scale 200k instructions give the benchmark dead-lettered
	// below an adequate size; at 100k its curve is NaN, and dead-lettering
	// it would not move the demand.
	sharded := campaignConfig(t.TempDir(), 200_000)
	sharded.shards = 2
	fullStudy, fullCaption := mixUnit(t, sharded)

	poisoned := campaignConfig(t.TempDir(), 200_000)
	poisoned.dlq = true
	experiments.SetUnitFaultHook(faultinject.KeyedError(deadKey, errors.New("injected poison")).Fire)
	defer experiments.SetUnitFaultHook(nil)
	zeroRow, zeroCaption := mixUnit(t, poisoned)

	if !strings.Contains(fullCaption, "; Total LLC demand: ") || !strings.Contains(zeroCaption, "; Total LLC demand: ") {
		t.Errorf("captions with a study lack the demand: %q, %q", fullCaption, zeroCaption)
	}
	if zeroCaption == fullCaption {
		t.Errorf("dead-lettering %s left the demand at %q", deadKey, fullCaption)
	}
	if !bytes.Equal(fullStudy, noStudy) {
		t.Errorf("mix/1 journal value differs between a full study and none (%d vs %d bytes)", len(fullStudy), len(noStudy))
	}
	if !bytes.Equal(zeroRow, noStudy) {
		t.Errorf("mix/1 journal value differs between a study with a dead row and none (%d vs %d bytes)", len(zeroRow), len(noStudy))
	}
}

// The full study as a campaign job: the 36 benchmark passes are one phase
// on the campaign service, executed in-process or — under -shards N — on N
// worker processes re-exec'd from this binary with -shard-worker, each
// journaling to <checkpoint>.shard<i>. The figure is byte-identical either
// way, worker kills included. The mechanism is cmd/experiments' (see
// internal/shard and internal/campaign); this command only wires the
// sensitivity phase.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"untangle/internal/campaign"
	"untangle/internal/checkpoint"
	"untangle/internal/experiments"
	"untangle/internal/shard"
)

func studyFingerprint(instructions uint64) checkpoint.Fingerprint {
	return checkpoint.Fingerprint{
		Instructions: instructions,
		Units:        "sensitivity",
		ParamsTag:    experiments.ParamsFingerprint(),
	}
}

// execSensitivity runs one "sens/<name>" unit, reporting a trace-cache
// replay to the service as such.
func execSensitivity(instructions uint64) func(ctx context.Context, key string) (json.RawMessage, error) {
	return func(ctx context.Context, key string) (json.RawMessage, error) {
		raw, outcome, err := experiments.RunSensitivityUnit(ctx, key, instructions)
		campaign.ReportOutcome(ctx, outcome)
		return raw, err
	}
}

// workerMain is the -shard-worker entry point: a sequential sensitivity
// unit executor speaking the shard protocol on stdin/stdout.
func workerMain(args []string) int {
	log.SetFlags(0)
	fs := flag.NewFlagSet("shard-worker", flag.ContinueOnError)
	var (
		shardIdx     = fs.Int("shard", 0, "this worker's shard index")
		instructions = fs.Uint64("instructions", 1_500_000, "measured instructions per run (must match the coordinator)")
		ckpt         = fs.String("checkpoint", "", "the study's main checkpoint path (shard journal derives from it)")
		feCache      = fs.String("fe-cache", "", "front-end trace cache directory")
		feRebuild    = fs.Bool("fe-cache-rebuild", false, "regenerate corrupt fe-cache entries")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	log.SetPrefix(fmt.Sprintf("sensitivity[shard %d]: ", *shardIdx))
	if *ckpt == "" {
		log.Print("-shard-worker requires -checkpoint")
		return 2
	}
	if *feCache != "" {
		_, release, err := experiments.OpenFrontEndCache(*feCache, *feRebuild, log.Printf)
		if err != nil {
			log.Print(err)
			return 1
		}
		defer release()
	}
	if err := shard.ServeWorker(*ckpt, studyFingerprint(*instructions), shard.WorkerConfig{
		Shard: *shardIdx,
		Exec:  execSensitivity(*instructions),
	}); err != nil {
		log.Print(err)
		return 1
	}
	return 0
}

// studyConfig is the full study's settings.
type studyConfig struct {
	instructions uint64
	jobs         int // service workers for in-process units
	shards       int // > 1: worker processes instead
	feCache      string
	feRebuild    bool
}

// runStudy runs the study as one job on a campaign service and assembles
// it from journal in canonical benchmark order. A unit that fails (after
// its retries) fails the study.
func runStudy(ctx context.Context, cfg studyConfig, journal *checkpoint.Journal) ([]experiments.SensitivityResult, error) {
	exec, workers := execSensitivity(cfg.instructions), cfg.jobs
	if cfg.shards > 1 {
		args := []string{
			"-instructions", strconv.FormatUint(cfg.instructions, 10),
			"-checkpoint", journal.Path(),
		}
		if cfg.feCache != "" {
			args = append(args, "-fe-cache", cfg.feCache)
		}
		if cfg.feRebuild {
			args = append(args, "-fe-cache-rebuild")
		}
		coord, err := shard.Launch(journal, cfg.shards, args, log.Printf)
		if err != nil {
			return nil, err
		}
		defer coord.Close()
		exec, workers = coord.Exec, cfg.shards
	}
	svc := campaign.New(campaign.Options{Workers: workers})
	defer svc.Drain(context.Background())
	if err := svc.Run(ctx, campaign.JobSpec{
		ID:         "sensitivity",
		Phases:     []campaign.PhaseSpec{{Name: "sensitivity", Keys: experiments.SensitivityKeys()}},
		Exec:       exec,
		Journal:    journal,
		FailFast:   true,
		ReplayDead: true,
		Observe: func(phase, key string) func(outcome string, err error) {
			return experiments.ObserveUnit(phase, strings.TrimPrefix(key, "sens/"))
		},
	}); err != nil {
		return nil, err
	}
	return experiments.StudyFromJournal(journal)
}

// Shard workers: -shards N runs the campaign service's units on N worker
// processes re-exec'd from this binary with -shard-worker. The coordinating
// process owns the main checkpoint journal, the report, and the telemetry
// stream; a worker owns one unit at a time plus a per-shard journal
// (<checkpoint>.shard<i>) that survives its death (internal/shard). The
// outputs are byte-identical to a -jobs 1 run of the same campaign — the
// equivalence tests in shard_test.go compare whole files, kills included.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"untangle/internal/experiments"
	"untangle/internal/shard"
)

// workerMain is the -shard-worker entry point: a single-shard unit executor
// speaking the shard protocol on stdin/stdout. All logging goes to stderr
// (stdout is the protocol stream). Besides its shard index, the worker
// parses the campaign flags the coordinator passes down (workerArgs), so
// it builds the identical config and checkpoint fingerprint, and runs units
// with the in-process campaign's executor.
func workerMain(args []string) int {
	log.SetFlags(0)
	fs := flag.NewFlagSet("shard-worker", flag.ContinueOnError)
	shardIdx := fs.Int("shard", 0, "this worker's shard index")
	parse := campaignFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	log.SetPrefix(fmt.Sprintf("experiments[shard %d]: ", *shardIdx))
	cfg, err := parse()
	if err != nil {
		log.Print(err)
		return 2
	}
	if cfg.ckptPath == "" {
		log.Print("-shard-worker requires -checkpoint")
		return 2
	}
	cfg.jobs = 1 // the process count is the parallelism

	// The worker does the front-end cache's work, so it logs the cache's
	// counter line on shutdown.
	if cfg.feCacheDir != "" {
		_, release, err := experiments.OpenFrontEndCache(cfg.feCacheDir, cfg.feCacheRebuild, log.Printf)
		if err != nil {
			log.Print(err)
			return 1
		}
		defer release()
	}
	units := &unitExec{cfg: cfg}
	err = shard.ServeWorker(cfg.ckptPath, cfg.fingerprint(), shard.WorkerConfig{
		Shard: *shardIdx,
		Exec:  units.exec,
		SetContext: func(name string, value json.RawMessage) error {
			if name != "study" {
				return fmt.Errorf("unknown campaign context %q", name)
			}
			study, err := experiments.DecodeStudy(value)
			units.study = study
			return err
		},
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	return 0
}

// workerArgs is the part of the campaign's flags a shard worker needs: the
// ones that enter the checkpoint fingerprint or a unit's execution. The
// worker never writes the -telemetry file; the flag only tells it to
// journal each mix's events.
func (c config) workerArgs() []string {
	mixes := "none" // "" would mean all 16 to the worker's parseMixes
	if len(c.ids) > 0 {
		ids := make([]string, len(c.ids))
		for i, id := range c.ids {
			ids[i] = strconv.Itoa(id)
		}
		mixes = strings.Join(ids, ",")
	}
	args := []string{
		"-scale", strconv.FormatFloat(c.scale, 'g', -1, 64),
		"-sensitivity-instructions", strconv.FormatUint(c.sensIns, 10),
		"-mixes", mixes,
		"-checkpoint", c.ckptPath,
	}
	if c.traced {
		args = append(args, "-telemetry", c.telePath)
	}
	if c.feCacheDir != "" {
		args = append(args, "-fe-cache", c.feCacheDir)
	}
	if c.feCacheRebuild {
		args = append(args, "-fe-cache-rebuild")
	}
	if c.oracleMixes {
		args = append(args, "-oracle-mixes")
	}
	return args
}

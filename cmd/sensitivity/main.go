// Command sensitivity runs the Figure 11 LLC-sensitivity study: every
// SPEC17-like benchmark simulated with each of the 9 supported partition
// sizes, reporting IPC normalized to the 8MB maximum and the resulting
// adequate LLC size and sensitivity classification.
//
// Each benchmark is one multi-lane engine pass — the op stream and the
// private L1 are simulated once and all 9 partition sizes ride on that
// shared front-end — and the 36 passes fan out onto the experiment engine's
// worker pool; -jobs bounds the pool (0 = GOMAXPROCS, 1 = sequential).
// Results are identical for every -jobs value. SIGINT cancels the study:
// in-flight passes stop at their next front-end chunk.
//
// The full study runs as one job on the campaign service (internal/campaign)
// — the same path as cmd/experiments' sensitivity phase — with its units
// in-process or, under -shards, on worker processes. A full-fidelity study
// can journal its progress: -checkpoint records each completed benchmark
// pass to a crash-safe JSONL file, and a restarted study with the same flags
// skips the journaled passes and reproduces the identical output (see
// docs/ROBUSTNESS.md).
//
// Usage:
//
//	sensitivity                       # all 36 benchmarks, all cores
//	sensitivity -jobs 1               # sequential (legacy) execution
//	sensitivity -bench mcf_0          # one benchmark
//	sensitivity -instructions 3000000 # higher fidelity
//	sensitivity -classify-only        # adequate sizes only
//	sensitivity -checkpoint study.ckpt # journal passes; resume on restart
//	sensitivity -checkpoint study.ckpt -shards 8 # N worker processes
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"untangle/internal/checkpoint"
	"untangle/internal/experiments"
	"untangle/internal/obs"
	"untangle/internal/report"
	"untangle/internal/telemetry"
	"untangle/internal/tracecache"
	"untangle/internal/workload"
)

func main() {
	// Worker mode short-circuits everything (see shard.go): the coordinator
	// re-execs this binary with -shard-worker as the first argument.
	if len(os.Args) > 1 && os.Args[1] == "-shard-worker" {
		os.Exit(workerMain(os.Args[2:]))
	}
	log.SetFlags(0)
	log.SetPrefix("sensitivity: ")
	var (
		bench        = flag.String("bench", "", "run a single benchmark (default: all 36)")
		instructions = flag.Uint64("instructions", 1_500_000, "measured instructions per run (an equal warmup precedes)")
		jobs         = flag.Int("jobs", 0, "worker pool size (0 = GOMAXPROCS, 1 = sequential)")
		shards       = flag.Int("shards", 0, "split the study across N worker processes (requires -checkpoint; 0/1 = in-process)")
		classifyOnly = flag.Bool("classify-only", false, "print adequate sizes only instead of the full curve")
		ckpt         = flag.String("checkpoint", "", "journal completed benchmark passes to this file and resume from it on restart")
		feCache      = flag.String("fe-cache", "", "persist/replay front-end event streams in this directory")
		feRebuild    = flag.Bool("fe-cache-rebuild", false, "regenerate corrupt or key-mismatched -fe-cache entries instead of failing")
		httpAddr     = flag.String("http", "", "serve /metrics, /progress, /healthz and pprof on this address (e.g. :8080)")
		quiet        = flag.Bool("quiet", false, "suppress the live progress line on stderr")
	)
	flag.Parse()
	if *jobs < 0 {
		log.Fatalf("-jobs must be >= 0 (0 = all cores), got %d", *jobs)
	}
	if *feRebuild && *feCache == "" {
		log.Fatal("-fe-cache-rebuild requires -fe-cache")
	}
	if *shards < 0 {
		log.Fatalf("-shards must be >= 0, got %d", *shards)
	}
	if *shards > 1 && *ckpt == "" {
		log.Fatal("-shards requires -checkpoint (the per-shard journals derive from it)")
	}
	if *shards > 1 && *bench != "" {
		log.Fatal("-shards runs the full study; it cannot be combined with -bench")
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *ckpt != "" && *bench != "" {
		log.Fatal("-checkpoint journals the full study; it cannot be combined with -bench")
	}
	// The journal the study is assembled from: the checkpoint file, or a
	// journal held in memory when the study is not checkpointed.
	journal := checkpoint.Memory(studyFingerprint(*instructions))
	if *ckpt != "" {
		j, err := checkpoint.Open(*ckpt, studyFingerprint(*instructions))
		if err != nil {
			log.Fatal(err)
		}
		defer j.Close()
		if n := j.Resumed(); n > 0 {
			log.Printf("resuming from %s: %d benchmark passes already complete", *ckpt, n)
		}
		journal = j
	}

	// Front-end trace cache: warm entries replay the post-L1 event stream
	// instead of re-running the generator and L1 (bitwise-identical output;
	// see EXPERIMENTS.md "Front-end trace cache"). Under -shards the workers
	// do that work, so they own the cache.
	var feStore *tracecache.Store
	if *feCache != "" && *shards <= 1 {
		st, release, err := experiments.OpenFrontEndCache(*feCache, *feRebuild, log.Printf)
		if err != nil {
			log.Fatal(err)
		}
		defer release()
		feStore = st
	}

	// Operational observability: progress/ETA and metrics for the full
	// study. Wall-clock only — the printed figure is unchanged by any of it.
	if *bench == "" && (*httpAddr != "" || *ckpt != "" || (!*quiet && obs.IsTTY(os.Stderr))) {
		progress := obs.NewProgress()
		var hb *obs.Heartbeat
		if path := obs.HeartbeatPath(journal); path != "" {
			var err error
			if hb, err = obs.OpenHeartbeat(path); err != nil {
				log.Printf("heartbeat: %v (continuing without)", err)
			} else {
				defer hb.Close()
				progress.SetPrior(hb.Prior())
			}
		}
		reg := telemetry.NewRegistry()
		feStore.RegisterMetrics(reg) // nil-safe: no-op without -fe-cache
		campaign := obs.NewCampaign("sensitivity", nil, progress, reg)
		campaign.Phase("sensitivity", len(workload.SPECBenchmarks))
		experiments.SetUnitObserver(campaign.Unit)
		defer func() {
			experiments.SetUnitObserver(nil)
			campaign.End(nil)
		}()
		if *httpAddr != "" {
			srv, err := obs.StartServer(*httpAddr, progress,
				obs.NamedRegistry{Namespace: "untangle", Registry: reg})
			if err != nil {
				log.Fatal(err)
			}
			defer srv.Shutdown()
			log.Printf("observability: http://%s/{metrics,progress,healthz,debug/pprof}", srv.Addr())
		}
		var line io.Writer
		if !*quiet && obs.IsTTY(os.Stderr) {
			line = os.Stderr
		}
		if r := obs.StartReporter(progress, hb, line, time.Second); r != nil {
			defer r.Stop()
		}
	}

	var study []experiments.SensitivityResult
	var err error
	switch {
	case *bench != "" && *classifyOnly:
		var r experiments.SensitivityResult
		r, err = experiments.Classify(*bench, *instructions)
		study = []experiments.SensitivityResult{r}
	case *bench != "":
		var r experiments.SensitivityResult
		r, err = experiments.Sensitivity(*bench, *instructions)
		study = []experiments.SensitivityResult{r}
	default:
		study, err = runStudy(ctx, studyConfig{
			instructions: *instructions,
			jobs:         *jobs,
			shards:       *shards,
			feCache:      *feCache,
			feRebuild:    *feRebuild,
		}, journal)
	}
	if err != nil {
		if ctx.Err() != nil {
			log.Fatal("interrupted")
		}
		log.Fatal(err)
	}
	if *classifyOnly {
		for _, r := range study {
			mark := " "
			if r.Sensitive {
				mark = "*"
			}
			fmt.Printf("%s %-14s adequate %7.0f kB\n", mark, r.Name, float64(r.Adequate)/1024)
		}
		return
	}
	fmt.Print(report.Figure11(study))
}

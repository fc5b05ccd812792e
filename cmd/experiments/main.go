// Command experiments runs the complete evaluation of the paper — the
// Figure 11 sensitivity study, all 16 workload mixes of Figures 10 and
// 12-17 under the four schemes, the Table 6 leakage summary, and the
// Section 9 active-attacker measurement — and prints everything in the
// paper's layout. The -out flag additionally writes the same report to a
// file (used to regenerate EXPERIMENTS.md's measured columns).
//
// Everything the evaluation simulates is an independent unit, so every
// campaign runs as jobs on the campaign service (internal/campaign): the
// sensitivity phase's 36 benchmark units (each one a single multi-lane pass
// covering all 9 partition sizes), then the mix phase's units (each mix's
// four schemes plus its active-attacker rerun). -jobs bounds the service's
// worker pool; 0 uses every core and 1 runs the units one at a time in
// order. The report is identical for every -jobs value: each phase is
// assembled from the campaign's journal in canonical order.
//
// Long campaigns survive faults (see docs/ROBUSTNESS.md). A panicking
// point fails the run with a diagnosable parallel.PanicError instead of
// crashing the process, transient unit failures are retried with
// deterministic backoff, and -checkpoint journals every completed unit
// (benchmark pass, mix outcome) to a crash-safe JSONL file:
//
//	experiments -scale 1.0 -checkpoint run.ckpt
//	# ... crash, power loss, or ^C at hour three ...
//	experiments -scale 1.0 -checkpoint run.ckpt   # redoes only unfinished units
//
// A resumed run's report and telemetry trace are byte-identical to an
// uninterrupted run's. The -out report and -telemetry trace are written
// atomically (complete file or old file, never torn), and every report
// ends with a completeness manifest so an interrupted run is explicit
// about what it covered.
//
// Long runs can be watched and profiled: -telemetry streams each mix's
// structured events as JSONL while the run progresses, and the
// -cpuprofile/-memprofile/-trace/-pprof flags profile the simulator
// process itself. SIGINT stops cleanly: in-flight mixes finish, unstarted
// ones are abandoned, and every writer is flushed and committed, so an
// interrupted run leaves a valid (truncated but parseable) report and
// JSONL stream rather than torn lines. A second SIGINT kills the process
// immediately.
//
// Usage:
//
//	experiments -scale 0.01                 # all mixes, laptop-sized
//	experiments -scale 0.01 -jobs 1         # sequential legacy execution
//	experiments -scale 0.01 -mixes 1,2,3,4  # just the Figure 10 mixes
//	experiments -mixes none -sensitivity-instructions 3000000  # Figure 11 alone
//	experiments -scale 0.01 -mixes 1 -sensitivity-instructions 0 -skip-active  # one mix
//	experiments -scale 1.0 -checkpoint run.ckpt -out report.txt
//	experiments -scale 0.01 -telemetry run.jsonl -pprof localhost:6060
//	experiments -scale 1.0 -checkpoint run.ckpt -shards 8   # N worker processes
//
// -shards N executes the service's units on N worker processes (re-execs
// of this binary) with per-shard crash-recovery journals and automatic
// worker respawn; the outputs are byte-identical to an in-process run (see
// EXPERIMENTS.md "Sharded campaigns" and shard.go). -dlq switches the
// failure policy: a poisoned unit dead-letters into the journal and the
// campaign completes degraded instead of failing.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"untangle/internal/campaign"
	"untangle/internal/checkpoint"
	"untangle/internal/experiments"
	"untangle/internal/fsutil"
	"untangle/internal/parallel"
	"untangle/internal/partition"
	"untangle/internal/report"
	"untangle/internal/shard"
	"untangle/internal/stats"
	"untangle/internal/telemetry"
	"untangle/internal/tracecache"
	"untangle/internal/workload"
)

// mixKinds is the fixed scheme order of the evaluation; telemetry buffers
// drain in this order so trace files are deterministic.
var mixKinds = []partition.Kind{partition.Static, partition.TimeBased, partition.Untangle, partition.Shared}

// config is one campaign's validated settings — main parses flags into it,
// run executes it, and the tests drive run directly.
type config struct {
	scale    float64
	ids      []int
	sensIns  uint64
	jobs     int
	shards   int
	active   bool
	traced   bool
	outPath  string
	telePath string
	ckptPath string

	// Front-end trace cache (EXPERIMENTS.md "Front-end trace cache"): the
	// sensitivity study's post-L1 event streams, persisted per benchmark so
	// repeated campaigns replay instead of regenerate.
	feCacheDir     string // -fe-cache: cache directory ("" = off)
	feCacheRebuild bool   // -fe-cache-rebuild: regenerate corrupt/mismatched entries

	// Failure policy (docs/ROBUSTNESS.md "Dead-letter journal"): with -dlq
	// a poisoned unit dead-letters into the checkpoint journal and the run
	// completes degraded instead of failing; -replay re-drives exactly the
	// journaled dead letters.
	dlq      bool // -dlq: dead-letter poisoned units (requires -checkpoint)
	replay   bool // -replay: re-drive dead-lettered units (implies -dlq)
	priority int  // -priority: unit priority on a shared campaign service

	// service, when set (serve mode), is the shared resident service this
	// campaign's jobs are submitted to; nil makes run build (and drain) its
	// own. jobPrefix namespaces the job IDs on a shared service.
	service   *campaign.Service
	jobPrefix string
	// observe, when set (serve mode), opens each unit's observation span —
	// serve owns the progress tracker, so the per-run global unit observer
	// is not installed (see startObs).
	observe func(phase, key string) func(outcome string, err error)

	// oracleMixes forces mix units onto the per-scheme oracle path instead
	// of the fused mix engine (experiments/mixlane.go). Results are bitwise
	// identical either way; the flag exists for verification and timing
	// comparisons.
	oracleMixes bool // -oracle-mixes

	// Observability (docs/TELEMETRY.md): all wall-clock, none of it touches
	// the report or telemetry bytes.
	httpAddr string // -http: serve /metrics, /progress, /healthz, pprof
	obsPath  string // -obs-trace: wall-clock span JSONL
	quiet    bool   // -quiet: suppress the live TTY progress line

	// unitHook, when set (tests only), runs after each unit completes and
	// journals — the injection point for kill-at-unit-k.
	unitHook func(key string)
	// httpReady, when set (tests only), receives the observability server's
	// bound address once it is scrapable — how tests reach an ephemeral
	// -http 127.0.0.1:0 port mid-campaign.
	httpReady func(addr string)
}

// savedMix is one mix's journaled outcome: everything the final report
// needs, in rendered or JSON-stable form, so a resumed run can replay the
// unit byte-for-byte without re-simulating. Events holds the telemetry
// lines exactly as the JSONL sink would write them; all floats journal as
// IEEE-754 bit patterns (checkpoint.F64) so the round trip is bit-exact and
// a NaN outcome — possible at extreme scales — still journals.
type savedMix struct {
	Group      string            `json:"group"`
	Row        savedRow          `json:"table6"`
	Events     []json.RawMessage `json:"events,omitempty"`
	ActiveRate checkpoint.F64    `json:"active_rate"`
	HaveActive bool              `json:"have_active"`
}

// savedRow is experiments.Table6Row in journal encoding.
type savedRow struct {
	MixID                  int            `json:"mix_id"`
	TimeAvgPerAssessment   checkpoint.F64 `json:"time_per"`
	TimeAvgTotal           checkpoint.F64 `json:"time_total"`
	UntangleAvgPerAssess   checkpoint.F64 `json:"untangle_per"`
	UntangleAvgTotal       checkpoint.F64 `json:"untangle_total"`
	UntangleMaintainFrac   checkpoint.F64 `json:"maintain_frac"`
	ReductionPerAssessment checkpoint.F64 `json:"reduction_per"`
}

func toSavedRow(r experiments.Table6Row) savedRow {
	return savedRow{
		MixID:                  r.MixID,
		TimeAvgPerAssessment:   checkpoint.F64(r.TimeAvgPerAssessment),
		TimeAvgTotal:           checkpoint.F64(r.TimeAvgTotal),
		UntangleAvgPerAssess:   checkpoint.F64(r.UntangleAvgPerAssess),
		UntangleAvgTotal:       checkpoint.F64(r.UntangleAvgTotal),
		UntangleMaintainFrac:   checkpoint.F64(r.UntangleMaintainFrac),
		ReductionPerAssessment: checkpoint.F64(r.ReductionPerAssessment),
	}
}

func (r savedRow) row() experiments.Table6Row {
	return experiments.Table6Row{
		MixID:                  r.MixID,
		TimeAvgPerAssessment:   float64(r.TimeAvgPerAssessment),
		TimeAvgTotal:           float64(r.TimeAvgTotal),
		UntangleAvgPerAssess:   float64(r.UntangleAvgPerAssess),
		UntangleAvgTotal:       float64(r.UntangleAvgTotal),
		UntangleMaintainFrac:   float64(r.UntangleMaintainFrac),
		ReductionPerAssessment: float64(r.ReductionPerAssessment),
	}
}

func mixKey(id int) string { return fmt.Sprintf("mix/%d", id) }

func main() {
	// Worker mode short-circuits everything: the coordinator re-execs this
	// binary with -shard-worker as the first argument (see shard.go), and
	// the worker must not install signal handlers or touch the campaign's
	// outputs.
	if len(os.Args) > 1 && os.Args[1] == "-shard-worker" {
		os.Exit(workerMain(os.Args[2:]))
	}
	// Serve mode is the resident campaign service (serve.go): it owns its
	// own flag set and signal handling, so it dispatches before flag.Parse
	// like the shard worker does.
	if len(os.Args) > 1 && os.Args[1] == "-serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	parse := campaignFlags(flag.CommandLine)
	profile := telemetry.AddProfileFlags(flag.CommandLine)
	flag.Parse()
	cfg, err := parse()
	if err != nil {
		log.Fatal(err)
	}

	if profile.Enabled() {
		stop, err := profile.Start()
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := stop(); err != nil {
				log.Printf("profiling: %v", err)
			}
		}()
	}

	// SIGINT/SIGTERM stop the run: the pool hands no further work out and
	// the completed prefix is reported and committed. The signal is
	// captured (not default-fatal) while the context is live, so an
	// in-flight write always completes.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if err := run(ctx, cfg, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// campaignFlags registers the campaign flags on fs — the command line's,
// or a shard worker's, which parses the coordinator's own flags so both
// sides build the identical config and checkpoint fingerprint. The returned
// function builds and validates the config once fs is parsed.
func campaignFlags(fs *flag.FlagSet) func() (config, error) {
	var (
		scale    = fs.Float64("scale", 0.01, "scale factor (1.0 = paper fidelity)")
		mixList  = fs.String("mixes", "", "comma-separated mix ids, or none (default: all 16)")
		sensIns  = fs.Uint64("sensitivity-instructions", 1_500_000, "instructions per sensitivity run (0 skips Figure 11)")
		outPath  = fs.String("out", "", "also write the report to this file (atomically)")
		skipAct  = fs.Bool("skip-active", false, "skip the active-attacker accounting runs")
		telemOut = fs.String("telemetry", "", "stream a JSONL telemetry event trace of every mix to this file")
		jobs     = fs.Int("jobs", 0, "worker pool size (0 = GOMAXPROCS, 1 = sequential)")
		shards   = fs.Int("shards", 0, "split the campaign across N worker processes (requires -checkpoint; 0/1 = in-process)")
		ckpt     = fs.String("checkpoint", "", "journal completed units to this file and resume from it on restart")
		feCache  = fs.String("fe-cache", "", "persist/replay front-end event streams (sensitivity study and mixes) in this directory")
		oracleMx = fs.Bool("oracle-mixes", false, "run mixes on the per-scheme oracle path instead of the fused engine (bitwise-identical, slower)")
		feRebld  = fs.Bool("fe-cache-rebuild", false, "regenerate corrupt or key-mismatched -fe-cache entries instead of failing")
		dlqRun   = fs.Bool("dlq", false, "dead-letter poisoned units into the journal and complete degraded instead of failing (requires -checkpoint)")
		replay   = fs.Bool("replay", false, "re-drive units the checkpoint journal holds dead letters for (implies -dlq)")
		priority = fs.Int("priority", 0, "unit priority on the campaign service queue (higher dequeues first)")
		httpAddr = fs.String("http", "", "serve /metrics, /progress, /healthz and pprof on this address (e.g. :8080)")
		obsTrace = fs.String("obs-trace", "", "write a wall-clock span trace (JSONL) of the campaign to this file")
		quiet    = fs.Bool("quiet", false, "suppress the live progress line on stderr")
	)
	return func() (config, error) {
		ids, err := parseMixes(*mixList)
		if err != nil {
			return config{}, err
		}
		cfg := config{
			scale:          *scale,
			ids:            ids,
			sensIns:        *sensIns,
			jobs:           *jobs,
			shards:         *shards,
			active:         !*skipAct,
			traced:         *telemOut != "",
			outPath:        *outPath,
			telePath:       *telemOut,
			ckptPath:       *ckpt,
			dlq:            *dlqRun || *replay,
			replay:         *replay,
			priority:       *priority,
			feCacheDir:     *feCache,
			feCacheRebuild: *feRebld,
			oracleMixes:    *oracleMx,
			httpAddr:       *httpAddr,
			obsPath:        *obsTrace,
			quiet:          *quiet,
		}
		return cfg, cfg.validate()
	}
}

// validate rejects configurations that would otherwise panic deep in the
// engine or silently simulate nothing.
func (c config) validate() error {
	if c.scale <= 0 || c.scale > 1 {
		return fmt.Errorf("-scale must be in (0, 1], got %v", c.scale)
	}
	if c.jobs < 0 {
		return fmt.Errorf("-jobs must be >= 0 (0 = all cores), got %d", c.jobs)
	}
	if c.feCacheRebuild && c.feCacheDir == "" {
		return fmt.Errorf("-fe-cache-rebuild requires -fe-cache")
	}
	if c.shards < 0 {
		return fmt.Errorf("-shards must be >= 0, got %d", c.shards)
	}
	if c.shards > 1 && c.ckptPath == "" {
		return fmt.Errorf("-shards requires -checkpoint (the per-shard journals derive from it)")
	}
	if c.dlq && c.ckptPath == "" {
		return fmt.Errorf("-dlq requires -checkpoint (the journal is the dead-letter store)")
	}
	if c.dlq && c.shards > 1 {
		// A unit that fails because the worker pool spent its respawns is
		// not a poisoned unit; dead-lettering it would be a lie.
		return fmt.Errorf("-dlq is incompatible with -shards (a lost worker pool is not a poisoned unit)")
	}
	if len(c.ids) == 0 && c.sensIns == 0 {
		return fmt.Errorf("-mixes none with -sensitivity-instructions 0 runs nothing")
	}
	return nil
}

// fingerprint pins the checkpoint journal to this exact campaign: results
// journaled under any other scale, instruction budget, unit set, or
// compiled-in parameter table must not be resumed.
func (c config) fingerprint() checkpoint.Fingerprint {
	schemes := make([]string, len(mixKinds))
	for i, k := range mixKinds {
		schemes[i] = k.String()
	}
	return checkpoint.Fingerprint{
		Scale:        c.scale,
		Instructions: c.sensIns,
		Schemes:      schemes,
		Units:        fmt.Sprintf("mixes=%v active=%t telemetry=%t", c.ids, c.active, c.traced),
		ParamsTag:    experiments.ParamsFingerprint(),
	}
}

// run executes the campaign and writes the report to stdout (and, per
// cfg, atomically to a file). It returns nil for complete and for cleanly
// interrupted runs — both leave committed, self-describing outputs — and
// an error when a unit failed, in which case the -out and -telemetry
// targets keep their previous contents (the journal, if any, keeps the
// completed units for a resume).
func run(ctx context.Context, cfg config, stdout io.Writer) (retErr error) {
	var w io.Writer = stdout
	var outFile *fsutil.AtomicFile
	if cfg.outPath != "" {
		f, err := fsutil.CreateAtomic(cfg.outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		outFile = f
		w = io.MultiWriter(stdout, f)
	}

	var telemSink *telemetry.JSONL
	var telemFile *fsutil.AtomicFile
	if cfg.telePath != "" {
		f, err := fsutil.CreateAtomic(cfg.telePath)
		if err != nil {
			return err
		}
		defer f.Close()
		telemFile = f
		telemSink = telemetry.NewJSONL(f)
	}

	// The journal every phase is assembled from: the checkpoint file, or a
	// journal held in memory when the campaign is not checkpointed.
	journal := checkpoint.Memory(cfg.fingerprint())
	if cfg.ckptPath != "" {
		j, err := checkpoint.Open(cfg.ckptPath, cfg.fingerprint())
		if err != nil {
			return err
		}
		defer j.Close()
		if n := j.Resumed(); n > 0 {
			log.Printf("resuming from %s: %d units already complete", cfg.ckptPath, n)
		}
		journal = j
	}

	// Units run on the service's goroutines, or under -shards on worker
	// processes, which then own the front-end trace cache. The cache is
	// installed process-wide before the study so every engine pass sees it,
	// and cleared on exit so tests driving run() back-to-back never leak a
	// store into the next campaign.
	units := &unitExec{cfg: cfg}
	exec, workers := units.exec, cfg.jobs
	var coord *shard.Coordinator
	var feStore *tracecache.Store
	if cfg.shards > 1 {
		c, err := shard.Launch(journal, cfg.shards, cfg.workerArgs(), log.Printf)
		if err != nil {
			return err
		}
		defer c.Close()
		coord, exec, workers = c, c.Exec, cfg.shards
	} else if cfg.feCacheDir != "" {
		st, release, err := experiments.OpenFrontEndCache(cfg.feCacheDir, cfg.feCacheRebuild, log.Printf)
		if err != nil {
			return err
		}
		defer release()
		feStore = st
	}

	// Operational observability (progress, spans, /metrics) — wall-clock
	// surfaces only, torn down with the campaign's final error so the root
	// span records the outcome.
	obsSt, err := startObs(cfg, journal, feStore)
	if err != nil {
		return err
	}
	defer func() { obsSt.stop(retErr) }()

	svc := cfg.service
	if svc == nil {
		svc = campaign.New(campaign.Options{Workers: workers, Logf: log.Printf})
		// Every job has settled by the time run returns (Service.Run waits
		// for it), so the drain only stops the idle workers.
		defer svc.Drain(context.Background())
	}
	// runPhase runs one phase as a job on the service. Without -dlq a
	// poisoned unit fails the campaign, and a dead letter an earlier -dlq
	// run left behind is simply run again.
	runPhase := func(id string, ph campaign.PhaseSpec) error {
		return svc.Run(ctx, campaign.JobSpec{
			ID:         cfg.jobPrefix + id,
			Priority:   cfg.priority,
			Phases:     []campaign.PhaseSpec{ph},
			Exec:       exec,
			Journal:    journal,
			FailFast:   !cfg.dlq,
			ReplayDead: cfg.replay || !cfg.dlq,
			Observe:    cfg.observeUnit,
			PostRecord: cfg.unitHook,
		})
	}
	interrupted := func(err error) bool {
		return ctx.Err() != nil || errors.Is(err, campaign.ErrInterrupted)
	}

	// Figure 11. The phase's Done assembles the study that mix units caption
	// against and, under -shards, hands it to the workers.
	if cfg.sensIns > 0 && ctx.Err() == nil {
		log.Printf("running Figure 11 sensitivity study (%d instructions per benchmark pass, %d jobs)...",
			cfg.sensIns, cfg.jobs)
		var study []experiments.SensitivityResult
		err := runPhase("sens", campaign.PhaseSpec{Name: "sensitivity", Keys: experiments.SensitivityKeys(), Done: func() error {
			var err error
			if study, err = experiments.StudyFromJournal(journal); err != nil {
				return err
			}
			units.study = study
			if coord == nil {
				return nil
			}
			raw, err := experiments.EncodeStudy(study)
			if err != nil {
				return err
			}
			return coord.Broadcast("study", raw)
		}})
		if err != nil {
			if interrupted(err) {
				log.Print("interrupted during the sensitivity study")
				writeManifest(w, cfg, journal, 0)
				return commit(telemSink, telemFile, outFile)
			}
			return err
		}
		fmt.Fprintln(w, report.Figure11(study))
	}

	// A sensitivity-only campaign (-mixes none) reports Figure 11 alone.
	if len(cfg.ids) == 0 {
		writeManifest(w, cfg, journal, 0)
		return commit(telemSink, telemFile, outFile)
	}

	// Figures 10 and 12-17 plus Table 6 inputs: one unit per mix, each
	// running its four schemes and then the worst-case accounting rerun.
	mixKeys := make([]string, len(cfg.ids))
	for i, id := range cfg.ids {
		mixKeys[i] = mixKey(id)
	}
	if err := runPhase("mix", campaign.PhaseSpec{Name: "mix", Keys: mixKeys}); err != nil && !interrupted(err) {
		return err
	}

	// Report in mix order regardless of completion order: every mix the
	// journal holds, which after an interrupt or a dead letter is the
	// completed subset.
	var rows []experiments.Table6Row
	var activeRates, maintainFracs []float64
	done := 0
	for _, key := range mixKeys {
		var sv savedMix
		ok, err := journal.Lookup(key, &sv)
		if err != nil {
			return fmt.Errorf("checkpoint %s: %w", key, err)
		}
		if !ok {
			continue
		}
		done++
		if telemSink != nil {
			for _, line := range sv.Events {
				telemSink.EmitRaw(line)
			}
			if err := telemSink.Flush(); err != nil {
				return err
			}
		}
		fmt.Fprintln(w, sv.Group)
		row := sv.Row.row()
		rows = append(rows, row)
		maintainFracs = append(maintainFracs, row.UntangleMaintainFrac)
		if sv.HaveActive {
			activeRates = append(activeRates, float64(sv.ActiveRate))
		}
	}
	if done < len(cfg.ids) {
		if dead := journal.DeadLen(); dead > 0 {
			log.Printf("degraded; reporting %d of %d mixes (%d units dead-lettered)", done, len(cfg.ids), dead)
		} else {
			log.Printf("interrupted; reporting %d of %d mixes", done, len(cfg.ids))
		}
	}

	fmt.Fprintln(w, report.Table6(rows))
	var redSum float64
	for _, r := range rows {
		redSum += r.ReductionPerAssessment
	}
	if len(rows) > 0 {
		fmt.Fprintf(w, "Average per-assessment leakage reduction (Untangle vs Time): %.0f%%\n",
			100*redSum/float64(len(rows)))
		fmt.Fprintf(w, "Average Untangle Maintain fraction: %.0f%%\n", 100*stats.Mean(maintainFracs))
	}
	if len(activeRates) > 0 {
		fmt.Fprintf(w, "Active attacker (no Maintain optimization): %.1f bits per assessment on average\n",
			stats.Mean(activeRates))
	}
	writeManifest(w, cfg, journal, done)
	return commit(telemSink, telemFile, outFile)
}

// writeManifest ends the report with an explicit statement of coverage —
// the units the journal holds — so a degraded or interrupted run can never
// be mistaken for a complete one. The dead-letter suffix appears only when
// units actually died, keeping a clean run's manifest byte-identical to
// pre-dlq reports.
func writeManifest(w io.Writer, cfg config, journal *checkpoint.Journal, mixesDone int) {
	sens := "sensitivity study skipped"
	if cfg.sensIns > 0 {
		doneSens := 0
		for _, key := range experiments.SensitivityKeys() {
			if journal.Done(key) {
				doneSens++
			}
		}
		sens = fmt.Sprintf("%d/%d sensitivity benchmarks", doneSens, len(workload.SPECBenchmarks))
	}
	mixes := "mixes skipped"
	if len(cfg.ids) > 0 {
		mixes = fmt.Sprintf("%d/%d mixes", mixesDone, len(cfg.ids))
	}
	if dead := journal.DeadLen(); dead > 0 {
		fmt.Fprintf(w, "Completed: %s, %s (%d dead-lettered).\n", sens, mixes, dead)
		return
	}
	fmt.Fprintf(w, "Completed: %s, %s.\n", sens, mixes)
}

// commit publishes the atomic outputs. Called on complete and on cleanly
// interrupted runs; error paths skip it, leaving previous file contents.
func commit(telemSink *telemetry.JSONL, telemFile, outFile *fsutil.AtomicFile) error {
	if telemSink != nil {
		if err := telemSink.Close(); err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		if err := telemFile.Commit(); err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
	}
	if outFile != nil {
		if err := outFile.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// observeUnit opens a unit's observation span: through the serve-mode hook
// when one is set, else through the process-wide observer startObs
// installs, under the names the experiments layer reports.
func (c config) observeUnit(phase, key string) func(outcome string, err error) {
	if c.observe != nil {
		return c.observe(phase, key)
	}
	return experiments.ObserveUnit(phase, unitName(key))
}

// unitName is a unit's observed name: the benchmark for a sensitivity unit,
// the journal key for a mix.
func unitName(key string) string { return strings.TrimPrefix(key, "sens/") }

// unitExec is the campaign's unit executor — the one "sens/" and "mix/"
// dispatch, behind both the service's in-process Exec and a shard worker's
// — so a unit's journal value is byte-identical wherever it ran.
type unitExec struct {
	cfg config
	// study is the assembled Figure 11 study mix units caption against. The
	// sensitivity phase's Done sets it before the service enqueues any mix
	// unit (in a worker, SetContext sets it on the unit loop's goroutine),
	// so the queue orders it before every read.
	study []experiments.SensitivityResult
}

// exec runs one unit by key. Retries live inside the executors; an error
// escaping here is terminal, and the job's failure policy settles it.
func (u *unitExec) exec(ctx context.Context, key string) (json.RawMessage, error) {
	idStr, isMix := strings.CutPrefix(key, "mix/")
	if !isMix {
		raw, outcome, err := experiments.RunSensitivityUnit(ctx, key, u.cfg.sensIns)
		campaign.ReportOutcome(ctx, outcome)
		return raw, err
	}
	id, err := strconv.Atoi(idStr)
	if err != nil {
		return nil, fmt.Errorf("bad mix key %q", key)
	}
	// Scheme-level concurrency only helps when the mixes themselves cannot
	// fill the pool.
	innerJobs := 1
	if len(u.cfg.ids) == 1 {
		innerJobs = u.cfg.jobs
	}
	sv, err := runMixUnit(ctx, u.cfg, u.study, id, innerJobs)
	if err != nil {
		return nil, err
	}
	if u.cfg.active && !sv.HaveActive {
		// Cancellation landed between the main run and the active rerun;
		// journaling the truncated unit would poison every future resume.
		return nil, fmt.Errorf("mix %d interrupted before the active-attacker rerun: %w", id, ctx.Err())
	}
	return json.Marshal(sv)
}

// runMixUnit simulates one mix in full — the four-scheme run with
// per-scheme telemetry buffers, the worst-case accounting rerun, and the
// rendered report group — and returns the unit's journal value. It is the
// single execution path for a mix whether the unit runs in-process or
// inside a shard worker, which is what makes the two journals
// byte-identical. A cancellation that lands between the main run and the
// active rerun returns sv with HaveActive false; callers must not journal
// such a truncated unit (a resume re-runs it in full).
func runMixUnit(ctx context.Context, cfg config, study []experiments.SensitivityResult, id, innerJobs int) (*savedMix, error) {
	key := mixKey(id)
	mix, err := workload.MixByID(id)
	if err != nil {
		return nil, err
	}
	log.Printf("running mix %d at scale %v...", id, cfg.scale)
	var res *experiments.MixResult
	var buffers map[partition.Kind]*telemetry.Buffer
	err = parallel.RetryUnit(ctx, key, experiments.RetryAttempts, experiments.RetryBackoff, func(ctx context.Context, attempt int) error {
		// Fault-injection seam: a keyed fault poisons this unit on every
		// attempt, exhausting the retry budget deterministically.
		if ferr := experiments.FireUnitFault(key); ferr != nil {
			return ferr
		}
		passDone := experiments.ObserveUnit("mix/pass", fmt.Sprintf("%s#%d", key, attempt))
		opts := experiments.Options{Scale: cfg.scale, Jobs: innerJobs, DisableFusion: cfg.oracleMixes}
		if cfg.traced {
			// Telemetry: per-scheme buffers keep concurrent schemes
			// from interleaving; the buffers drain to the shared JSONL
			// stream in fixed scheme order once the mix completes, so
			// the file content is deterministic however the goroutines
			// raced. Fresh buffers per attempt keep a retried run from
			// double-recording the failed attempt's events.
			buffers = map[partition.Kind]*telemetry.Buffer{}
			for _, kind := range mixKinds {
				buffers[kind] = telemetry.NewBuffer()
			}
			opts.TracerFor = func(k partition.Kind) *telemetry.Tracer {
				return telemetry.New(buffers[k], nil, fmt.Sprintf("mix%d/%s", id, k))
			}
		}
		var err error
		res, err = experiments.RunMixContext(ctx, mix, opts)
		if passDone != nil {
			passDone(experiments.UnitGenerated, err)
		}
		return experiments.PermanentCacheFailure(err)
	})
	if err != nil {
		return nil, err
	}
	var sv savedMix
	if cfg.active && ctx.Err() == nil {
		log.Printf("running mix %d with worst-case (active-attacker) accounting...", id)
		var act *experiments.MixResult
		err = parallel.RetryUnit(ctx, key, experiments.RetryAttempts, experiments.RetryBackoff, func(ctx context.Context, attempt int) error {
			passDone := experiments.ObserveUnit("mix/active", fmt.Sprintf("%s#%d", key, attempt))
			var err error
			act, err = experiments.RunMixContext(ctx, mix, experiments.Options{
				Scale:               cfg.scale,
				Kinds:               []partition.Kind{partition.Untangle},
				WorstCaseAccounting: true,
				Jobs:                innerJobs,
				DisableFusion:       cfg.oracleMixes,
			})
			if passDone != nil {
				passDone(experiments.UnitGenerated, err)
			}
			return experiments.PermanentCacheFailure(err)
		})
		if err != nil {
			return nil, err
		}
		leak, err := act.LeakagePerAssessment(partition.Untangle)
		if err != nil {
			return nil, err
		}
		sv.ActiveRate = checkpoint.F64(stats.Mean(leak))
		sv.HaveActive = true
	}
	if sv.Group, err = report.MixGroup(res, study); err != nil {
		return nil, err
	}
	row, err := res.Table6()
	if err != nil {
		return nil, err
	}
	sv.Row = toSavedRow(row)
	if cfg.traced {
		for _, kind := range mixKinds {
			for _, ev := range buffers[kind].Events() {
				line, err := telemetry.MarshalEvent(ev)
				if err != nil {
					return nil, err
				}
				sv.Events = append(sv.Events, json.RawMessage(line))
			}
		}
	}
	return &sv, nil
}

// parseMixes expands and validates the -mixes flag: every id must be an
// integer naming one of the paper's mixes, "" is all of them, and "none"
// is none (a sensitivity-only campaign).
func parseMixes(s string) ([]int, error) {
	if s == "none" {
		return nil, nil
	}
	if s == "" {
		ids := make([]int, len(workload.Mixes))
		for i, m := range workload.Mixes {
			ids[i] = m.ID
		}
		return ids, nil
	}
	var ids []int
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad mix id %q", part)
		}
		if _, err := workload.MixByID(id); err != nil {
			return nil, fmt.Errorf("bad mix id %d: %w", id, err)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

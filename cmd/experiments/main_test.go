package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"untangle/internal/checkpoint"
	"untangle/internal/experiments"
	"untangle/internal/faultinject"
	"untangle/internal/parallel"
	"untangle/internal/tracecache"
	"untangle/internal/workload"
)

func TestParseMixes(t *testing.T) {
	ids, err := parseMixes("")
	if err != nil || len(ids) != 16 {
		t.Fatalf("default = %v, %v", ids, err)
	}
	ids, err = parseMixes("1, 4,16")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 4 || ids[2] != 16 {
		t.Errorf("ids = %v", ids)
	}
	if _, err := parseMixes("1,x"); err == nil {
		t.Error("bad id accepted")
	}
	if _, err := parseMixes("17"); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, err := parseMixes("0"); err == nil {
		t.Error("out-of-range id accepted")
	}
	if ids, err := parseMixes("none"); err != nil || len(ids) != 0 {
		t.Errorf("none = %v, %v; want no ids", ids, err)
	}
	if _, err := parseMixes("none,1"); err == nil {
		t.Error("none mixed with ids accepted")
	}
	for _, dup := range []string{"1,1", "2,1,2"} {
		if _, err := parseMixes(dup); err == nil {
			t.Errorf("repeated id in %q accepted", dup)
		}
	}
}

func TestValidateConfig(t *testing.T) {
	for _, ok := range []config{
		{scale: 0.01, ids: []int{1}},                // mixes alone
		{scale: 0.01, sensIns: 1000},                // the study alone (-mixes none)
		{scale: 0.01, ids: []int{1}, sensIns: 1000}, // both
	} {
		if err := ok.validate(); err != nil {
			t.Errorf("valid config %+v rejected: %v", ok, err)
		}
	}
	for _, tc := range []struct {
		name string
		cfg  config
		want string
	}{
		{"zero scale", config{scale: 0}, "-scale"},
		{"negative scale", config{scale: -1}, "-scale"},
		{"scale above 1", config{scale: 1.5}, "-scale"},
		{"NaN scale", config{scale: math.NaN(), ids: []int{1}}, "-scale"},
		{"negative jobs", config{scale: 0.01, jobs: -2}, "-jobs"},
		{"negative shards", config{scale: 0.01, shards: -1}, "-shards"},
		{"shards without checkpoint", config{scale: 0.01, shards: 4}, "-checkpoint"},
		{"neither study nor mixes", config{scale: 0.01}, "-mixes none"},
	} {
		err := tc.cfg.validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %s", tc.name, err, tc.want)
		}
	}
}

// Mix units journal their charts and no caption. A journal from a build
// whose mix units journaled the captioned group must not resume, or every
// resumed group would print its caption twice. Such a journal's unit set
// lacks "mix=charts", so run refuses it and names both configurations.
func TestCaptionedMixJournalRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := config{
		scale:    0.0002,
		ids:      []int{1},
		jobs:     1,
		outPath:  filepath.Join(dir, "report.txt"),
		ckptPath: filepath.Join(dir, "run.ckpt"),
	}
	captioned := cfg.fingerprint()
	captioned.Units = fmt.Sprintf("mixes=%v telemetry=%t", cfg.ids, cfg.traced)
	j, err := checkpoint.Open(cfg.ckptPath, captioned)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	err = run(context.Background(), cfg, io.Discard)
	if err == nil {
		t.Fatal("a journal of captioned mix groups resumed")
	}
	for _, fp := range []checkpoint.Fingerprint{captioned, cfg.fingerprint()} {
		if !strings.Contains(err.Error(), fp.String()) {
			t.Errorf("error does not name configuration %s:\n%v", fp, err)
		}
	}
	if _, err := os.Stat(cfg.outPath); !os.IsNotExist(err) {
		t.Errorf("refused run wrote a report (stat err = %v)", err)
	}
}

// equivalenceConfig is the smallest campaign that exercises every unit kind:
// the sensitivity study, two mixes, and a telemetry stream. At 20,000
// instructions every Figure 11 row is n/a and every demand caption 0.00MB,
// so the study runs 200,000, where Mix 1's members are all measured
// (requireMix1Measured).
func equivalenceConfig(dir string) config {
	return config{
		scale:    0.0002,
		ids:      []int{1, 2},
		sensIns:  200_000,
		jobs:     1, // deterministic unit order, so the kill point is exact
		traced:   true,
		outPath:  filepath.Join(dir, "report.txt"),
		telePath: filepath.Join(dir, "trace.jsonl"),
	}
}

// requireMix1Measured fails unless report's Figure 11 gives every Mix 1
// member an adequate size: an equivalence test that compares n/a rows and
// a 0.00MB demand compares nothing the study measured.
func requireMix1Measured(t *testing.T, report []byte) {
	t.Helper()
	adequate := map[string]string{}
	rows := false
	for _, line := range strings.Split(string(report), "\n") {
		if strings.HasPrefix(line, "(* = ") {
			break
		}
		if f := strings.Fields(strings.TrimPrefix(line, "*")); rows && len(f) > 1 {
			adequate[f[0]] = f[1]
		}
		rows = rows || strings.HasPrefix(line, "  benchmark ")
	}
	mix, err := workload.MixByID(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range mix.Pairs {
		if a, ok := adequate[p.SPEC]; !ok || a == "n/a" {
			t.Errorf("Figure 11 row of Mix 1 member %s is not measured (adequate %q)", p.SPEC, a)
		}
	}
}

// campaign runs cfg to completion and returns the report and telemetry
// bytes it committed.
func runCampaignFiles(t *testing.T, ctx context.Context, cfg config) (report, trace []byte) {
	t.Helper()
	if err := run(ctx, cfg, io.Discard); err != nil {
		t.Fatal(err)
	}
	report, err := os.ReadFile(cfg.outPath)
	if err != nil {
		t.Fatal(err)
	}
	trace, err = os.ReadFile(cfg.telePath)
	if err != nil {
		t.Fatal(err)
	}
	return report, trace
}

// The headline robustness guarantee: kill the campaign at unit k, resume
// from the checkpoint, and the final report and telemetry trace are
// byte-identical to a never-interrupted run's. Exercised for a kill inside
// the sensitivity study and a kill between mix units.
func TestCheckpointResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five small campaigns")
	}
	freshReport, freshTrace := runCampaignFiles(t, context.Background(), equivalenceConfig(t.TempDir()))
	requireMix1Measured(t, freshReport)

	t.Run("kill-in-sensitivity-study", func(t *testing.T) {
		cfg := equivalenceConfig(t.TempDir())
		cfg.ckptPath = filepath.Join(filepath.Dir(cfg.outPath), "run.ckpt")

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		inj := faultinject.CancelAt(40, cancel) // lands mid-study at this budget
		experiments.SetEngineChunkHook(inj.Fire)
		err := run(ctx, cfg, io.Discard)
		experiments.SetEngineChunkHook(nil)
		if err != nil {
			t.Fatalf("interrupted run did not exit cleanly: %v", err)
		}
		partial, err := os.ReadFile(cfg.outPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(partial, []byte("0/2 mixes")) {
			t.Fatalf("kill point missed the study; interrupted manifest:\n%s", partial)
		}

		gotReport, gotTrace := runCampaignFiles(t, context.Background(), cfg)
		if !bytes.Equal(gotReport, freshReport) {
			t.Errorf("resumed report differs from fresh run (%d vs %d bytes)", len(gotReport), len(freshReport))
		}
		if !bytes.Equal(gotTrace, freshTrace) {
			t.Errorf("resumed telemetry differs from fresh run (%d vs %d bytes)", len(gotTrace), len(freshTrace))
		}
	})

	t.Run("kill-in-mix-phase", func(t *testing.T) {
		cfg := equivalenceConfig(t.TempDir())
		cfg.ckptPath = filepath.Join(filepath.Dir(cfg.outPath), "run.ckpt")

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg.unitHook = func(key string) {
			if strings.HasPrefix(key, "mix/") {
				cancel() // first completed mix "crashes" the campaign
			}
		}
		if err := run(ctx, cfg, io.Discard); err != nil {
			t.Fatalf("interrupted run did not exit cleanly: %v", err)
		}
		partial, err := os.ReadFile(cfg.outPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(partial, []byte("1/2 mixes")) {
			t.Fatalf("kill point missed the mix phase; interrupted manifest:\n%s", partial)
		}

		cfg.unitHook = nil
		gotReport, gotTrace := runCampaignFiles(t, context.Background(), cfg)
		if !bytes.Equal(gotReport, freshReport) {
			t.Errorf("resumed report differs from fresh run (%d vs %d bytes)", len(gotReport), len(freshReport))
		}
		if !bytes.Equal(gotTrace, freshTrace) {
			t.Errorf("resumed telemetry differs from fresh run (%d vs %d bytes)", len(gotTrace), len(freshTrace))
		}
	})
}

// The fused mix engine must be invisible at the campaign level: the -out
// and -telemetry files of a default campaign byte-equal the -oracle-mixes
// campaign's, cold, through a populated and a warm front-end cache, and
// across a checkpointed kill that lands inside a mix front-end.
func TestMixFusionCampaignOutputsMatchOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six small campaigns")
	}
	// sensIns 0 drops the sensitivity study: the campaign is mix units
	// alone, so every byte under test flows through the mix path.
	oracleCfg := equivalenceConfig(t.TempDir())
	oracleCfg.sensIns = 0
	oracleCfg.oracleMixes = true
	wantReport, wantTrace := runCampaignFiles(t, context.Background(), oracleCfg)

	check := func(t *testing.T, report, trace []byte) {
		t.Helper()
		if !bytes.Equal(report, wantReport) {
			t.Errorf("report differs from oracle campaign (%d vs %d bytes)", len(report), len(wantReport))
		}
		if !bytes.Equal(trace, wantTrace) {
			t.Errorf("telemetry differs from oracle campaign (%d vs %d bytes)", len(trace), len(wantTrace))
		}
	}

	t.Run("fused-cold", func(t *testing.T) {
		cfg := equivalenceConfig(t.TempDir())
		cfg.sensIns = 0
		report, trace := runCampaignFiles(t, context.Background(), cfg)
		check(t, report, trace)
	})

	t.Run("fused-warm", func(t *testing.T) {
		cacheDir := t.TempDir()
		cfg := equivalenceConfig(t.TempDir())
		cfg.sensIns = 0
		cfg.feCacheDir = cacheDir
		report, trace := runCampaignFiles(t, context.Background(), cfg) // populates the cache
		check(t, report, trace)

		warm := equivalenceConfig(t.TempDir())
		warm.sensIns = 0
		warm.feCacheDir = cacheDir
		report, trace = runCampaignFiles(t, context.Background(), warm) // replays it
		check(t, report, trace)
	})

	t.Run("kill-mid-mix-and-resume", func(t *testing.T) {
		cfg := equivalenceConfig(t.TempDir())
		cfg.sensIns = 0
		cfg.feCacheDir = t.TempDir()
		cfg.ckptPath = filepath.Join(filepath.Dir(cfg.outPath), "run.ckpt")

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// With no study, the first engine chunks belong to mix 1's fused
		// front-end and lanes: chunk 40 cancels while the mix is mid-flight.
		inj := faultinject.CancelAt(40, cancel)
		experiments.SetEngineChunkHook(inj.Fire)
		err := run(ctx, cfg, io.Discard)
		experiments.SetEngineChunkHook(nil)
		if err != nil {
			t.Fatalf("interrupted run did not exit cleanly: %v", err)
		}
		partial, err := os.ReadFile(cfg.outPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(partial, []byte("0/2 mixes")) {
			t.Fatalf("kill point missed the mix phase; interrupted manifest:\n%s", partial)
		}

		report, trace := runCampaignFiles(t, context.Background(), cfg)
		check(t, report, trace)
	})
}

// A failed unit must leave the -out and -telemetry destinations exactly as
// they were: the report of the previous successful campaign, not a torn or
// truncated file.
func TestFailedRunPreservesPreviousOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small campaign")
	}
	cfg := equivalenceConfig(t.TempDir())
	cfg.sensIns = 0 // mix units only; keep it quick
	oldReport, oldTrace := runCampaignFiles(t, context.Background(), cfg)

	inj := faultinject.ErrorAt(1, ^uint64(0), nil) // every engine chunk fails
	experiments.SetEngineChunkHook(inj.Fire)
	cfg.sensIns = 20_000 // now the study runs — and fails persistently
	err := run(context.Background(), cfg, io.Discard)
	experiments.SetEngineChunkHook(nil)
	if err == nil {
		t.Fatal("persistently faulted run reported success")
	}
	gotReport, _ := os.ReadFile(cfg.outPath)
	gotTrace, _ := os.ReadFile(cfg.telePath)
	if !bytes.Equal(gotReport, oldReport) {
		t.Error("failed run disturbed the previous report")
	}
	if !bytes.Equal(gotTrace, oldTrace) {
		t.Error("failed run disturbed the previous telemetry trace")
	}
}

// TestCorruptMixEntryFailsOnce: a warm mix whose fe-cache entry has one
// flipped byte, in a store without rebuild, fails on its first attempt.
// A retry would read the same damaged entry again, so the unit opens each
// of its domain entries once and returns the corruption itself, not a
// retry-exhaustion error.
func TestCorruptMixEntryFailsOnce(t *testing.T) {
	st, err := tracecache.NewStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	experiments.SetFrontEndCache(st)
	defer experiments.SetFrontEndCache(nil)
	cfg := config{scale: 0.0002, jobs: 1}
	ctx := context.Background()
	if _, err := runMixUnit(ctx, cfg, 1, 1); err != nil {
		t.Fatal(err)
	}

	mix, err := workload.MixByID(1)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(st.Dir(), "*.fetrace"))
	if err != nil {
		t.Fatal(err)
	}
	damaged := ""
	for _, path := range entries {
		if strings.HasPrefix(filepath.Base(path), "mix-"+mix.Pairs[0].String()+"-d0-") {
			damaged = path
		}
	}
	if damaged == "" {
		t.Fatalf("no entry for Mix 1's first domain among %v", entries)
	}
	b, err := os.ReadFile(damaged)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(damaged, b, 0o600); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	attempts := 0
	experiments.SetUnitObserver(func(phase, _ string) func(string, error) {
		if phase == "mix/pass" {
			mu.Lock()
			attempts++
			mu.Unlock()
		}
		return nil
	})
	defer experiments.SetUnitObserver(nil)
	before := st.Counters()
	_, err = runMixUnit(ctx, cfg, 1, 1)
	var re *parallel.RetryExhaustedError
	if !errors.Is(err, tracecache.ErrCorrupt) || errors.As(err, &re) {
		t.Fatalf("warm mix over a damaged entry: err = %v, want ErrCorrupt without retries", err)
	}
	if attempts != 1 {
		t.Errorf("mix ran %d attempts, want 1", attempts)
	}
	if opened := st.Counters().Hits - before.Hits; opened != int64(len(entries)) {
		t.Errorf("mix opened %d entries, want each of its %d once", opened, len(entries))
	}
}

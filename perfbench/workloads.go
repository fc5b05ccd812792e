package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"untangle/internal/experiments"
	"untangle/internal/parallel"
	"untangle/internal/tracecache"
	"untangle/internal/workload"
)

// figure10Mixes are the mixes of Figure 10; the sharded campaign runs the
// first two, the warm replay the first.
var figure10Mixes = []int{1, 2, 3, 4}

var workloads = map[string]workloadSpec{
	// The Figure 11 study into a fresh fe-cache: generator, private L1,
	// lane probes, cycle fold and trace encode do the work.
	"sens-cold": {
		units:        func(g *golden) []string { return studyKeys() },
		instructions: func(g *golden) uint64 { return g.SimInstructions["study"] },
		setup:        func(b *bench) (any, error) { return nil, b.setupTables() },
		run:          runSensCold,
		decompose:    decomposeSensCold,
	},
	// Figure 10 Mixes 1-4 on the fused engine into a fresh fe-cache: the
	// sim back end, monitor, allocator and accountant do the work.
	"mix-cold": {
		units:        func(g *golden) []string { return mixKeys(figure10Mixes) },
		instructions: func(g *golden) uint64 { return sumInstructions(g, mixKeys(figure10Mixes)) },
		setup:        func(b *bench) (any, error) { return nil, b.setupTables() },
		run:          runMixCold,
		decompose:    decomposeMixCold,
	},
	// The study plus Mix 1 replayed from an fe-cache populated in set-up.
	"replay-warm": {
		units: func(g *golden) []string { return append(studyKeys(), mixKeys([]int{1})...) },
		instructions: func(g *golden) uint64 {
			return g.SimInstructions["study"] + sumInstructions(g, mixKeys([]int{1}))
		},
		setup:     func(b *bench) (any, error) { return b.setupWarmCache([]int{1}) },
		run:       runReplayWarm,
		decompose: decomposeReplayWarm,
	},
	// cmd/experiments -shards 2 -checkpoint as a child process over a warm
	// fe-cache: the study, Mixes 1-2 and their active-attacker reruns.
	"campaign-sharded": {
		minCampaigns: 2,
		units:        func(g *golden) []string { return append(studyKeys(), mixKeys(shardedMixes)...) },
		instructions: func(g *golden) uint64 {
			return g.SimInstructions["study"] + sumInstructions(g, mixKeys(shardedMixes)) +
				sumInstructions(g, activeKeys(shardedMixes))
		},
		setup:     func(b *bench) (any, error) { return b.setupWarmCache(shardedMixes) },
		run:       runSharded,
		decompose: decomposeSharded,
	},
}

var shardedMixes = []int{1, 2}

func studyKeys() []string {
	keys := make([]string, len(workload.SPECBenchmarks))
	for i, name := range workload.SortedSPECNames() {
		keys[i] = experiments.SensitivityKey(name)
	}
	return keys
}

func mixKeys(ids []int) []string {
	keys := make([]string, len(ids))
	for i, id := range ids {
		keys[i] = fmt.Sprintf("mix/%d", id)
	}
	return keys
}

func activeKeys(ids []int) []string {
	keys := make([]string, len(ids))
	for i, id := range ids {
		keys[i] = fmt.Sprintf("active/%d", id)
	}
	return keys
}

func sumInstructions(g *golden, keys []string) uint64 {
	var n uint64
	for _, k := range keys {
		n += g.SimInstructions[k]
	}
	return n
}

// setupTables builds the covert rate tables; its duration is the traced
// run's covert.table_build_s.
func (b *bench) setupTables() error {
	d, err := warmRateTables()
	b.tableBuild = d
	return err
}

// warmState is the set-up of the warm workloads: a populated fe-cache.
type warmState struct {
	dir   string
	store *tracecache.Store
}

// setupWarmCache builds the rate tables and populates an fe-cache with the
// study's streams and the given mixes' domain streams.
func (b *bench) setupWarmCache(mixes []int) (any, error) {
	if err := b.setupTables(); err != nil {
		return nil, err
	}
	dir := filepath.Join(b.root, "fe-warm")
	st, err := tracecache.NewStore(dir, false)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if _, err := experiments.WarmFrontEndCache(ctx, st, nil, studyInstructions, jobs); err != nil {
		return nil, err
	}
	if _, err := experiments.WarmMixFrontEnds(ctx, st, mixes, benchScale, 0, jobs); err != nil {
		return nil, err
	}
	return &warmState{dir: dir, store: st}, nil
}

// studyResults maps benchmark name to its untraced study row.
type studyResults map[string]experiments.SensitivityResult

// mixResults maps mix id to its untraced result.
type mixResults map[int]*experiments.MixResult

// runStudy runs the Figure 11 study against st and digests its rows.
func runStudy(ctx context.Context, st *tracecache.Store, out *campaignOut) error {
	experiments.SetFrontEndCache(st)
	defer experiments.SetFrontEndCache(nil)
	study, err := experiments.SensitivityStudyContext(ctx, studyInstructions, jobs)
	if err != nil {
		return err
	}
	out.study = studyResults{}
	for _, r := range study {
		out.study[r.Name] = r
		out.digests[experiments.SensitivityKey(r.Name)] = studyDigest(r)
	}
	return nil
}

func newCampaignOut(dir string) *campaignOut {
	return &campaignOut{digests: map[string]string{}, errored: map[string]bool{}, dir: dir, mixes: mixResults{}}
}

func runSensCold(ctx context.Context, b *bench, _ any) (*campaignOut, error) {
	dir, err := b.freshDir("sens")
	if err != nil {
		return nil, err
	}
	st, err := tracecache.NewStore(filepath.Join(dir, "fe"), false)
	if err != nil {
		return nil, err
	}
	out := newCampaignOut(dir)
	return out, runStudy(ctx, st, out)
}

// runMixes runs the mixes on the fused engine the way cmd/experiments
// does: one pool slot per mix in mix order, each mix's schemes sequential
// inside it when several mixes share the pool.
func (b *bench) runMixes(ctx context.Context, st *tracecache.Store, order []int, out *campaignOut) error {
	experiments.SetFrontEndCache(st)
	defer experiments.SetFrontEndCache(nil)
	inner := 1
	if len(order) == 1 {
		inner = jobs
	}
	results, err := parallel.Map(ctx, len(order), jobs, func(ctx context.Context, i int) (*experiments.MixResult, error) {
		mix, err := workload.MixByID(order[i])
		if err != nil {
			return nil, err
		}
		done := experiments.ObserveUnit("mix", fmt.Sprintf("mix/%d", order[i]))
		res, err := experiments.RunMixContext(ctx, mix, experiments.Options{Scale: benchScale, Jobs: inner})
		if done != nil {
			done(experiments.UnitGenerated, err)
		}
		return res, err
	})
	if err != nil {
		return err
	}
	for i, id := range order {
		key := fmt.Sprintf("mix/%d", id)
		d, err := mixDigest(results[i])
		if err != nil {
			out.errored[key] = true
			continue
		}
		out.mixes[id] = results[i]
		out.digests[key] = d
	}
	return nil
}

func runMixCold(ctx context.Context, b *bench, _ any) (*campaignOut, error) {
	dir, err := b.freshDir("mix")
	if err != nil {
		return nil, err
	}
	st, err := tracecache.NewStore(filepath.Join(dir, "fe"), false)
	if err != nil {
		return nil, err
	}
	out := newCampaignOut(dir)
	return out, b.runMixes(ctx, st, figure10Mixes, out)
}

func runReplayWarm(ctx context.Context, b *bench, state any) (*campaignOut, error) {
	ws := state.(*warmState)
	out := newCampaignOut(ws.dir)
	out.keep = true
	if err := runStudy(ctx, ws.store, out); err != nil {
		return nil, err
	}
	return out, b.runMixes(ctx, ws.store, []int{1}, out)
}

// shardedArgs is the sharded campaign's command line minus its paths.
func shardedArgs() []string {
	return []string{
		"-scale", fmt.Sprint(benchScale),
		"-sensitivity-instructions", fmt.Sprint(studyInstructions),
		"-mixes", "1,2",
		"-quiet",
	}
}

// runChild runs cmd/experiments and returns its peak RSS and log.
func (b *bench) runChild(ctx context.Context, args []string) (*childRun, error) {
	cmd := exec.CommandContext(ctx, b.expBin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	run := &childRun{stderr: stderr.Bytes()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru != nil {
		run.maxRSS = ru.Maxrss
	}
	if err != nil {
		return run, fmt.Errorf("%s: %w\n%s", filepath.Base(b.expBin), err, stderr.Bytes())
	}
	return run, nil
}

func runSharded(ctx context.Context, b *bench, state any) (*campaignOut, error) {
	ws := state.(*warmState)
	dir, err := b.freshDir("sharded")
	if err != nil {
		return nil, err
	}
	args := append(shardedArgs(),
		"-shards", "2",
		"-checkpoint", filepath.Join(dir, "campaign.journal"),
		"-fe-cache", ws.dir,
		"-out", filepath.Join(dir, "report.txt"))
	if b.obsTrace {
		args = append(args, "-obs-trace", filepath.Join(dir, "obs.jsonl"))
	}
	out := newCampaignOut(dir)
	out.extraDisk = ws.dir
	run, err := b.runChild(ctx, args)
	if err != nil {
		return nil, err
	}
	out.child = run
	report, err := os.ReadFile(filepath.Join(dir, "report.txt"))
	if err != nil {
		return nil, err
	}
	// The report is the campaign's one output; every unit it covers is
	// judged by its digest.
	d := bytesDigest(report)
	for _, key := range append(studyKeys(), mixKeys(shardedMixes)...) {
		if d == b.golden.Units[campaignOutKey] {
			out.digests[key] = b.golden.Units[key]
		} else {
			out.digests[key] = d
		}
	}
	return out, nil
}

// campaignOutKey is the golden digest of the sharded campaign's report.
const campaignOutKey = "out/campaign-sharded"

// shardLine parses the coordinator's campaign-end counter line.
func shardLine(stderr []byte) (map[string]float64, bool) {
	for _, line := range strings.Split(string(stderr), "\n") {
		i := strings.Index(line, "shards: ")
		if i < 0 {
			continue
		}
		var spawned, died, assigned, completed, recovered, requeued, dups int
		_, err := fmt.Sscanf(line[i:], "shards: %d spawned, %d died, %d assigned, %d completed, %d recovered, %d requeued, %d duplicates",
			&spawned, &died, &assigned, &completed, &recovered, &requeued, &dups)
		if err != nil {
			continue
		}
		return map[string]float64{
			"spawned": float64(spawned), "completed": float64(completed),
			"requeued": float64(requeued), "duplicates": float64(dups),
		}, true
	}
	return nil, false
}

// obsUnits reads the child's -obs-trace span file and returns its
// top-level campaign units (a unit's span runs from its assignment to its
// result, so it includes time queued behind the worker's previous unit).
func obsUnits(path string) ([]unitSpan, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	type rec struct {
		Ev    string `json:"ev"`
		ID    uint64 `json:"id"`
		Phase string `json:"phase"`
		Name  string `json:"name"`
		AtNs  int64  `json:"at_unix_ns"`
	}
	starts := map[uint64]rec{}
	var units []unitSpan
	var t0 int64
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if t0 == 0 {
			t0 = r.AtNs
		}
		if r.Ev == "start" {
			starts[r.ID] = r
			continue
		}
		s, ok := starts[r.ID]
		if !ok || (s.Phase != "sensitivity" && s.Phase != "mix") {
			continue
		}
		units = append(units, unitSpan{phase: s.Phase, name: s.Name, start: time.Duration(s.AtNs - t0), end: time.Duration(r.AtNs - t0)})
	}
	return units, nil
}

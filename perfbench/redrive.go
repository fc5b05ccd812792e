package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"untangle/internal/campaign"
	"untangle/internal/checkpoint"
	"untangle/internal/experiments"
	"untangle/internal/shard"
	"untangle/internal/tracecache"
	"untangle/internal/workload"
)

// decomposeSensCold redoes the study into a scratch fe-cache and checks
// every benchmark's stream and lane misses against the entries and
// sidecars the untraced campaign wrote, and its IPC bits against the
// study.
func decomposeSensCold(ctx context.Context, b *bench, tr *tracer, _ any, out *campaignOut) error {
	engine, err := tracecache.NewStore(filepath.Join(out.dir, "fe"), false)
	if err != nil {
		return err
	}
	scratch, err := b.scratchStore()
	if err != nil {
		return err
	}
	for _, name := range workload.SortedSPECNames() {
		if err := ctx.Err(); err != nil {
			return err
		}
		unit := tr.begin(0, layerUnit)
		p, err := studyCold(tr, unit.id, scratch, name)
		unit.end(0)
		if err != nil {
			return err
		}
		if err := p.matches(out.study[name]); err != nil {
			return err
		}
		if err := checkStudyEntry(engine, p); err != nil {
			return err
		}
	}
	return nil
}

func (b *bench) scratchStore() (*tracecache.Store, error) {
	dir, err := b.freshDir("trace-fe")
	if err != nil {
		return nil, err
	}
	return tracecache.NewStore(dir, false)
}

// decomposeMixCold regenerates every domain stream of Mixes 1-4 to the
// length the engine persisted, encodes it, and replays it into the four
// schemes' sims.
func decomposeMixCold(ctx context.Context, b *bench, tr *tracer, _ any, out *campaignOut) error {
	engine, err := tracecache.NewStore(filepath.Join(out.dir, "fe"), false)
	if err != nil {
		return err
	}
	scratch, err := b.scratchStore()
	if err != nil {
		return err
	}
	for _, id := range figure10Mixes {
		if err := ctx.Err(); err != nil {
			return err
		}
		mix, err := workload.MixByID(id)
		if err != nil {
			return err
		}
		unit := tr.begin(0, layerUnit)
		err = func() error {
			specs, err := mixDomains(tr, unit.id, mix)
			if err != nil {
				return err
			}
			tapes := make([]*tape, len(specs))
			for d := range specs {
				key := mixKey(mix.Pairs[d], d)
				info, err := tracecache.ReadInfo(engine.EntryPath(key))
				if err != nil {
					return err
				}
				t, err := mixFrontCold(tr, unit.id, specs[d], d, key, int(info.Events)-1, scratch)
				if err != nil {
					return err
				}
				if err := t.check(info, key.Benchmark); err != nil {
					return err
				}
				tapes[d] = t
			}
			return mixDecomposed(tr, unit.id, mix, specs, tapes, out.digests[fmt.Sprintf("mix/%d", id)])
		}()
		unit.end(0)
		if err != nil {
			return err
		}
	}
	return nil
}

// warmMix decodes a mix's domain tapes from st and checks each against
// its entry.
func warmMix(tr *tracer, parent int, st *tracecache.Store, mix workload.Mix) ([]*tape, error) {
	tapes := make([]*tape, len(mix.Pairs))
	for d, pair := range mix.Pairs {
		key := mixKey(pair, d)
		t, err := mixFrontWarm(tr, parent, st, key)
		if err != nil {
			return nil, err
		}
		info, err := tracecache.ReadInfo(st.EntryPath(key))
		if err != nil {
			return nil, err
		}
		if err := t.check(info, key.Benchmark); err != nil {
			return nil, err
		}
		tapes[d] = t
	}
	return tapes, nil
}

// decomposeWarmStudy replays the study from st; each row must match want.
func decomposeWarmStudy(ctx context.Context, tr *tracer, st *tracecache.Store, want func(name string) string) error {
	for _, name := range workload.SortedSPECNames() {
		if err := ctx.Err(); err != nil {
			return err
		}
		unit := tr.begin(0, layerUnit)
		p, err := studyWarm(tr, unit.id, st, name)
		unit.end(0)
		if err != nil {
			return err
		}
		if got := studyDigest(p.row()); got != want(name) {
			return fmt.Errorf("%s: warm decomposition digest %s, want %s", name, got, want(name))
		}
		info, err := tracecache.ReadInfo(st.EntryPath(p.key))
		if err != nil {
			return err
		}
		if info.Events != uint64(len(p.events)) || info.ByKind != p.byKind || info.Instructions != p.streamInstr {
			return fmt.Errorf("%s: decoded stream differs from its entry's summary", name)
		}
	}
	return nil
}

// decomposeWarmMix replays one mix from st through the four schemes and,
// with active set, the Untangle worst-case rerun.
func decomposeWarmMix(tr *tracer, st *tracecache.Store, id int, want string, active bool, g *golden) error {
	mix, err := workload.MixByID(id)
	if err != nil {
		return err
	}
	unit := tr.begin(0, layerUnit)
	defer unit.end(0)
	specs, err := mixDomains(tr, unit.id, mix)
	if err != nil {
		return err
	}
	tapes, err := warmMix(tr, unit.id, st, mix)
	if err != nil {
		return err
	}
	if err := mixDecomposed(tr, unit.id, mix, specs, tapes, want); err != nil {
		return err
	}
	if !active {
		return nil
	}
	act, assessments, err := mixSims(tr, unit.id, mix, specs, tapes, mixKinds[2:3], true)
	if err != nil {
		return err
	}
	if got, wantN := mixInstructions(act), g.SimInstructions[fmt.Sprintf("active/%d", id)]; got != wantN {
		return fmt.Errorf("mix %d active rerun simulated %d instructions, want %d", id, got, wantN)
	}
	return redriveControl(tr, unit.id, tapes, act, assessments, true)
}

func decomposeReplayWarm(ctx context.Context, b *bench, tr *tracer, state any, out *campaignOut) error {
	ws := state.(*warmState)
	if err := decomposeWarmStudy(ctx, tr, ws.store, func(name string) string {
		return studyDigest(out.study[name])
	}); err != nil {
		return err
	}
	return decomposeWarmMix(tr, ws.store, 1, out.digests["mix/1"], false, b.golden)
}

// decomposeSharded replays the sharded campaign's simulation from the warm
// fe-cache, then re-drives its orchestration — the journal, the shard
// coordinator and the campaign service — over the unit payloads the
// campaign journaled. Its fe-cache and shard numbers come from disk and the
// coordinator's log line: under -shards the coordinator's own fe-cache
// counter line reads zero, because the work runs in the workers.
func decomposeSharded(ctx context.Context, b *bench, tr *tracer, state any, out *campaignOut) error {
	ws := state.(*warmState)
	g := b.golden
	if err := decomposeWarmStudy(ctx, tr, ws.store, func(name string) string {
		return g.Units[experiments.SensitivityKey(name)]
	}); err != nil {
		return err
	}
	for _, id := range shardedMixes {
		if err := decomposeWarmMix(tr, ws.store, id, g.Units[fmt.Sprintf("mix/%d", id)], true, g); err != nil {
			return err
		}
	}

	fp, payloads, err := journalPayloads(filepath.Join(out.dir, "campaign.journal"))
	if err != nil {
		return err
	}
	phases := [][]string{studyKeys(), mixKeys(shardedMixes)}
	for _, ph := range phases {
		for _, k := range ph {
			if _, ok := payloads[k]; !ok {
				return fmt.Errorf("campaign journal lacks unit %s", k)
			}
		}
	}
	if err := redriveJournal(tr, b, fp, payloads, phases); err != nil {
		return err
	}
	stats, err := redriveShards(ctx, tr, b, fp, payloads, phases)
	if err != nil {
		return err
	}
	line, ok := shardLine(out.child.stderr)
	if !ok {
		return errors.New("sharded campaign printed no shards: line")
	}
	if int(line["completed"]) != stats.Completed {
		return fmt.Errorf("coordinator completed %v units, the re-drive %d", line["completed"], stats.Completed)
	}
	tr.add("shard.units", line["completed"])
	tr.add("shard.requeued", line["requeued"])
	tr.add("shard.duplicates", line["duplicates"])
	return redriveCampaign(ctx, tr, b, fp, payloads, phases)
}

// journalPayloads reads a campaign journal's fingerprint (its header line)
// and completed units.
func journalPayloads(path string) (checkpoint.Fingerprint, map[string]json.RawMessage, error) {
	f, err := os.Open(path)
	if err != nil {
		return checkpoint.Fingerprint{}, nil, err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadBytes('\n')
	if err != nil {
		return checkpoint.Fingerprint{}, nil, fmt.Errorf("%s: header: %w", path, err)
	}
	var hdr struct {
		Fingerprint *checkpoint.Fingerprint `json:"fingerprint"`
	}
	if err := json.Unmarshal(line, &hdr); err != nil || hdr.Fingerprint == nil {
		return checkpoint.Fingerprint{}, nil, fmt.Errorf("%s: no journal header", path)
	}
	units, err := checkpoint.ReadUnits(path, *hdr.Fingerprint)
	return *hdr.Fingerprint, units, err
}

// redriveJournal appends every payload to a fresh journal, one fsynced
// Record per unit.
func redriveJournal(tr *tracer, b *bench, fp checkpoint.Fingerprint, payloads map[string]json.RawMessage, phases [][]string) error {
	dir, err := b.freshDir("trace-journal")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "journal")
	sp := tr.begin(0, layerCheckpoint)
	j, err := checkpoint.Open(path, fp)
	sp.end(0)
	if err != nil {
		return err
	}
	defer j.Close()
	start := fileSize(path)
	for _, keys := range phases {
		for _, k := range keys {
			sp := tr.begin(0, layerCheckpoint)
			err := j.Record(k, payloads[k])
			sp.end(1)
			if err != nil {
				return err
			}
		}
	}
	tr.add("checkpoint.bytes", float64(fileSize(path)-start))
	return j.Close()
}

// countingWriter counts the protocol bytes crossing a pipe.
type countingWriter struct {
	w io.WriteCloser
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingWriter) Close() error { return c.w.Close() }

var errKilled = errors.New("worker killed")

// redriveShards runs the shard coordinator over in-process workers whose
// executor returns the journaled payloads: framing, windows, per-shard
// journals and result merging, with no simulation.
func redriveShards(ctx context.Context, tr *tracer, b *bench, fp checkpoint.Fingerprint, payloads map[string]json.RawMessage, phases [][]string) (shard.Stats, error) {
	dir, err := b.freshDir("trace-shards")
	if err != nil {
		return shard.Stats{}, err
	}
	var frame atomic.Int64
	var wg sync.WaitGroup
	var spawns atomic.Int64
	spawn := func(idx int) (*shard.Proc, error) {
		j, err := checkpoint.Open(filepath.Join(dir, fmt.Sprintf("shard%d-%d.journal", idx, spawns.Add(1))), fp)
		if err != nil {
			return nil, err
		}
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		wctx, cancel := context.WithCancel(ctx)
		done := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done)
			err := shard.RunWorker(wctx, inR, countingWriter{outW, &frame}, shard.WorkerConfig{
				Shard:   idx,
				Journal: j,
				Exec: func(_ context.Context, key string) (json.RawMessage, error) {
					raw, ok := payloads[key]
					if !ok {
						return nil, fmt.Errorf("no payload for %s", key)
					}
					return raw, nil
				},
			})
			j.Close()
			if err == nil {
				err = io.EOF
			}
			outW.CloseWithError(err)
			inR.CloseWithError(err)
		}()
		var once sync.Once
		return &shard.Proc{
			In:  countingWriter{inW, &frame},
			Out: outR,
			Kill: func() {
				once.Do(func() {
					cancel()
					inR.CloseWithError(errKilled)
					outW.CloseWithError(errKilled)
				})
			},
			Wait: func() error { <-done; cancel(); return nil },
		}, nil
	}
	c, err := shard.New(spawn, shard.Options{Workers: jobs})
	if err != nil {
		return shard.Stats{}, err
	}
	for _, keys := range phases {
		sp := tr.begin(0, layerShard)
		res, err := c.Run(ctx, keys)
		sp.end(uint64(len(keys)))
		if err != nil {
			c.Shutdown()
			wg.Wait()
			return shard.Stats{}, err
		}
		for _, k := range keys {
			if string(res[k]) != string(payloads[k]) {
				c.Shutdown()
				wg.Wait()
				return shard.Stats{}, fmt.Errorf("shard re-drive returned a different payload for %s", k)
			}
		}
	}
	err = c.Shutdown()
	wg.Wait()
	tr.add("shard.frame_bytes", float64(frame.Load()))
	return c.Stats(), err
}

// redriveCampaign submits the payloads as one job to the campaign service.
func redriveCampaign(ctx context.Context, tr *tracer, b *bench, fp checkpoint.Fingerprint, payloads map[string]json.RawMessage, phases [][]string) error {
	dir, err := b.freshDir("trace-campaign")
	if err != nil {
		return err
	}
	j, err := checkpoint.Open(filepath.Join(dir, "journal"), fp)
	if err != nil {
		return err
	}
	defer j.Close()
	svc := campaign.New(campaign.Options{Workers: jobs})
	var execs atomic.Int64
	spec := campaign.JobSpec{
		ID:      "redrive",
		Journal: j,
		Exec: func(_ context.Context, key string) (json.RawMessage, error) {
			execs.Add(1)
			raw, ok := payloads[key]
			if !ok {
				return nil, fmt.Errorf("no payload for %s", key)
			}
			return raw, nil
		},
	}
	units := 0
	for i, keys := range phases {
		spec.Phases = append(spec.Phases, campaign.PhaseSpec{Name: fmt.Sprintf("phase%d", i), Keys: keys})
		units += len(keys)
	}
	sp := tr.begin(0, layerCampaign)
	job, err := svc.Submit(spec)
	if err == nil {
		err = job.Wait(ctx)
	}
	sp.end(uint64(units))
	if derr := svc.Drain(ctx); err == nil {
		err = derr
	}
	if err != nil {
		return err
	}
	st := job.Status()
	tr.add("campaign.retries", float64(execs.Load()-int64(units)))
	tr.add("campaign.dead", float64(st.Dead))
	if st.Done != units {
		return fmt.Errorf("campaign re-drive settled %d of %d units (%s)", st.Done, units, strings.TrimSpace(st.Summary))
	}
	return nil
}

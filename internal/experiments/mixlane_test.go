package experiments

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"untangle/internal/isa"
	"untangle/internal/parallel"
	"untangle/internal/partition"
	"untangle/internal/telemetry"
	"untangle/internal/tracecache"
	"untangle/internal/workload"
)

// fusionTestScale keeps the 16-mix sweep affordable; the fused/oracle
// equivalence is scale-independent (the two paths execute the same
// operations in the same order at any scale).
const fusionTestScale = 0.0002

// fusionTestJobs runs the fused engine's lane rounds inline (1) and on
// concurrent workers (4).
var fusionTestJobs = []int{1, 4}

// requireMixBitwiseEqual asserts two mix results are bitwise identical:
// reflect.DeepEqual compares every float by value (IPCs, cycle counts,
// leakage, sample timelines), which is bit equality for the finite values
// these runs produce.
func requireMixBitwiseEqual(t *testing.T, label string, got, want *MixResult) {
	t.Helper()
	if math.Float64bits(got.Scale) != math.Float64bits(want.Scale) {
		t.Fatalf("%s: scale %v != %v", label, got.Scale, want.Scale)
	}
	if len(got.PerScheme) != len(want.PerScheme) {
		t.Fatalf("%s: %d schemes, want %d", label, len(got.PerScheme), len(want.PerScheme))
	}
	for kind, w := range want.PerScheme {
		g := got.PerScheme[kind]
		if g == nil {
			t.Fatalf("%s: scheme %v missing", label, kind)
		}
		if reflect.DeepEqual(g, w) {
			continue
		}
		for d := range w.Domains {
			if !reflect.DeepEqual(g.Domains[d], w.Domains[d]) {
				t.Errorf("%s: %v domain %d (%s) differs:\n  got  instr=%d cycles=%v finish=%v L1=%+v LLC=%+v leak=%+v\n  want instr=%d cycles=%v finish=%v L1=%+v LLC=%+v leak=%+v",
					label, kind, d, w.Domains[d].Name,
					g.Domains[d].Instructions, g.Domains[d].Cycles, g.Domains[d].FinishTime,
					g.Domains[d].L1, g.Domains[d].LLC, g.Domains[d].Leakage,
					w.Domains[d].Instructions, w.Domains[d].Cycles, w.Domains[d].FinishTime,
					w.Domains[d].L1, w.Domains[d].LLC, w.Domains[d].Leakage)
			}
		}
		t.Fatalf("%s: scheme %v differs", label, kind)
	}
}

// mixBuffers builds one telemetry buffer per scheme plus the TracerFor
// wiring runMixUnit uses, so the test sees exactly the event streams the
// campaign driver would serialize.
func mixBuffers(id int) (map[partition.Kind]*telemetry.Buffer, func(partition.Kind) *telemetry.Tracer) {
	bufs := map[partition.Kind]*telemetry.Buffer{}
	for _, k := range (Options{}).kinds() {
		bufs[k] = telemetry.NewBuffer()
	}
	return bufs, func(k partition.Kind) *telemetry.Tracer {
		return telemetry.New(bufs[k], nil, fmt.Sprintf("mix%d/%s", id, k))
	}
}

// requireBuffersEqual asserts the serialized telemetry is byte-identical.
func requireBuffersEqual(t *testing.T, label string, got, want map[partition.Kind]*telemetry.Buffer) {
	t.Helper()
	for k, wb := range want {
		var gj, wj bytes.Buffer
		if err := got[k].WriteJSONL(&gj); err != nil {
			t.Fatal(err)
		}
		if err := wb.WriteJSONL(&wj); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gj.Bytes(), wj.Bytes()) {
			t.Errorf("%s: telemetry for %v differs (%d vs %d events)", label, k, got[k].Len(), wb.Len())
		}
	}
}

func fusionTestMixes(t *testing.T) []int {
	if testing.Short() {
		return []int{1, 2}
	}
	ids := make([]int, 0, len(workload.Mixes))
	for _, m := range workload.Mixes {
		ids = append(ids, m.ID)
	}
	return ids
}

// TestMixFusionMatchesOracle is the PR's central acceptance test: the
// fused mix engine (one front-end pass teed into four scheme lanes)
// reproduces the per-scheme oracle bitwise — IPCs, leakage accounting,
// partition traces, sample timelines, telemetry — for every mix, both
// cold and replaying from a warm front-end cache, with the lane rounds run
// inline and on concurrent workers (fusionTestJobs).
func TestMixFusionMatchesOracle(t *testing.T) {
	ids := fusionTestMixes(t)

	t.Run("cold", func(t *testing.T) {
		for _, id := range ids {
			id := id
			t.Run(fmt.Sprintf("mix%d", id), func(t *testing.T) {
				t.Parallel()
				mix, err := workload.MixByID(id)
				if err != nil {
					t.Fatal(err)
				}
				oracle, err := RunMix(mix, Options{Scale: fusionTestScale, DisableFusion: true})
				if err != nil {
					t.Fatal(err)
				}
				for _, jobs := range fusionTestJobs {
					fused, err := RunMix(mix, Options{Scale: fusionTestScale, Jobs: jobs})
					if err != nil {
						t.Fatal(err)
					}
					requireMixBitwiseEqual(t, fmt.Sprintf("fused-cold jobs=%d", jobs), fused, oracle)
				}
			})
		}
	})

	// The warm phase owns the process-global front-end cache, so it runs
	// after the parallel cold group and keeps its mixes sequential.
	t.Run("warm", func(t *testing.T) {
		defer SetFrontEndCache(nil)
		warmIDs := ids
		if len(warmIDs) > 2 {
			warmIDs = warmIDs[:2]
		}
		for _, jobs := range fusionTestJobs {
			st := newTestStore(t, false)
			SetFrontEndCache(st)
			for _, id := range warmIDs {
				mix, err := workload.MixByID(id)
				if err != nil {
					t.Fatal(err)
				}
				oBufs, oTracers := mixBuffers(id)
				oracle, err := RunMix(mix, Options{Scale: fusionTestScale, DisableFusion: true, TracerFor: oTracers})
				if err != nil {
					t.Fatal(err)
				}

				label := fmt.Sprintf(" jobs=%d", jobs)
				cBufs, cTracers := mixBuffers(id)
				cold, err := RunMix(mix, Options{Scale: fusionTestScale, Jobs: jobs, TracerFor: cTracers})
				if err != nil {
					t.Fatal(err)
				}
				requireMixBitwiseEqual(t, "fused-populate"+label, cold, oracle)
				requireBuffersEqual(t, "fused-populate"+label, cBufs, oBufs)

				before := st.Counters()
				wBufs, wTracers := mixBuffers(id)
				warm, err := RunMix(mix, Options{Scale: fusionTestScale, Jobs: jobs, TracerFor: wTracers})
				if err != nil {
					t.Fatal(err)
				}
				requireMixBitwiseEqual(t, "fused-warm"+label, warm, oracle)
				requireBuffersEqual(t, "fused-warm"+label, wBufs, oBufs)
				after := st.Counters()
				if hits := after.Hits - before.Hits; hits < int64(len(mix.Pairs)) {
					t.Errorf("mix %d warm run hit the cache %d times, want >= %d", id, hits, len(mix.Pairs))
				}
			}
		}
	})
}

// TestMixFusionUnderrunRegenerates covers the one stored quantity whose
// needed length is scheme-dependent: the pressure tail. A warm tape whose
// cached tail runs out while a lane still wants events continues cold in
// place: it regenerates the events already served into a fresh entry and
// goes on producing pressure, so no attempt is discarded, the mix still
// matches the oracle bitwise, and the rewritten entry carries a longer
// tail than the short one. One short entry keeps a quarter of its tail,
// so the streamed warm reader serves pressure chunks for a while and then
// hits EOF in the middle of a round, with the lanes still running; the
// other ends on its marker, with no tail at all.
func TestMixFusionUnderrunRegenerates(t *testing.T) {
	mix, err := workload.MixByID(1)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := RunMix(mix, Options{Scale: fusionTestScale, DisableFusion: true})
	if err != nil {
		t.Fatal(err)
	}
	defer SetFrontEndCache(nil)
	for _, tc := range []struct {
		name string
		tail func(n int) int // tail events the short entry keeps of n
	}{
		{"quarter tail", func(n int) int { return n / 4 }},
		{"no tail", func(int) int { return 0 }},
	} {
		st := newTestStore(t, false)
		SetFrontEndCache(st)
		cold, err := RunMix(mix, Options{Scale: fusionTestScale})
		if err != nil {
			t.Fatal(err)
		}
		requireMixBitwiseEqual(t, tc.name+" populate", cold, oracle)

		// Truncate domain 0's entry to measured stream + marker + the
		// case's share of its tail.
		key := mixStreamKey(mix.Pairs[0], 0, fusionTestScale, 0, true, 32<<10, 8)
		path := st.EntryPath(key)
		r, err := st.Open(key)
		if err != nil || r == nil {
			t.Fatalf("open %s: r=%v err=%v", path, r, err)
		}
		var events []tracecache.Event
		buf := make([]tracecache.Event, 4096)
		for {
			n, rerr := r.Read(buf)
			events = append(events, buf[:n]...)
			if rerr != nil {
				break
			}
		}
		r.Close()
		cut := -1
		for i, ev := range events {
			if ev.Kind == tracecache.KindMeasuredEnd {
				cut = i
				break
			}
		}
		if cut < 0 || cut == len(events)-1 {
			t.Fatalf("entry has no marker or no tail (marker at %d of %d)", cut, len(events))
		}
		short := cut + 1 + tc.tail(len(events)-cut-1)
		w, err := st.CreateRich(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteEvents(events[:short]); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		w.Close()

		warm, stats, ok, err := runMixFused(context.Background(), mix, Options{Scale: fusionTestScale})
		if err != nil || !ok {
			t.Fatalf("%s: fused run: ok=%v err=%v", tc.name, ok, err)
		}
		requireMixBitwiseEqual(t, tc.name+" continued", warm, oracle)
		if stats.continued != 1 {
			t.Errorf("%s: warm run continued %d tapes, want 1 (the short tail must run out)",
				tc.name, stats.continued)
		}

		info, err := tracecache.ReadInfo(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Measured != uint64(cut) || info.Events <= uint64(short) {
			t.Errorf("%s: rewritten entry holds %d events, %d measured; want more than the short entry's %d, %d measured",
				tc.name, info.Events, info.Measured, short, cut)
		}
	}
}

// TestMixTapeResumesOnLiveStream drives a warm tape whose entry ends on
// its marker past that end while another tape of the key is generating
// its stream. The resumed tape attaches to that stream at its own
// position: ahead of the stream's head it regenerates up to there
// publishing nothing, behind it its follower skips there; either way both
// tapes publish the recorded stream, and the last to detach commits a
// longer entry with the same measured part. An entry whose marker sits
// one event early is found corrupt once the stream passes it.
func TestMixTapeResumesOnLiveStream(t *testing.T) {
	mix, err := workload.MixByID(3)
	if err != nil {
		t.Fatal(err)
	}
	const d = 4 // mcf_0+RSA-2048, which Mixes 2-4 share
	opts := Options{Scale: fusionTestScale}
	key := mixStreamKey(mix.Pairs[d], d, fusionTestScale, 0, true, 32<<10, 8)
	for _, tc := range []struct {
		name  string
		ahead int  // chunks the live tape produces before the warm tape resumes
		moved bool // the short entry's marker sits one event early
	}{
		{"resume ahead of the head", 0, false},
		{"resume behind the head", 40, false},
		{"marker moved", 0, true},
	} {
		st := newTestStore(t, false)
		SetFrontEndCache(st)
		if _, err := RunMix(mix, opts); err != nil {
			t.Fatal(err)
		}
		SetFrontEndCache(nil)
		r, err := st.Open(key)
		if err != nil || r == nil {
			t.Fatalf("open: r=%v err=%v", r, err)
		}
		full, err := readEntry(r)
		if err != nil {
			t.Fatal(err)
		}
		cut := slices.IndexFunc(full, isMeasuredEnd)
		short := slices.Clone(full[:cut+1])
		if tc.moved {
			short = append(short[:cut-1], feEvent{Kind: tracecache.KindMeasuredEnd})
		}
		w, err := st.CreateRich(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteEvents(short); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		want := slices.Delete(slices.Clone(full), cut, cut+1)

		newTape := func() *mixTape {
			specs, err := BuildDomains(mix, fusionTestScale, 0)
			if err != nil {
				t.Fatal(err)
			}
			tp := &mixTape{ring: &mixRing{}, measured: -1, markAt: -1, ctx: context.Background(),
				o: &mixOrigin{st: st, key: key, idx: d, cfg: mixSimConfig(opts, partition.Untangle, fusionTestScale), spec: specs[d]}}
			if err := tp.open(); err != nil {
				t.Fatal(err)
			}
			return tp
		}
		published := func(tp *mixTape) []feEvent {
			var out []feEvent
			for _, c := range tp.chunks {
				out = append(out, c...)
			}
			return out
		}
		warm := newTape()
		if warm.r == nil {
			t.Fatalf("%s: the short entry did not open warm", tc.name)
		}
		if err := os.Remove(st.EntryPath(key)); err != nil { // so the live tape misses and generates
			t.Fatal(err)
		}
		live := newTape()
		for live.produced < tc.ahead {
			live.produce()
		}
		for !warm.done {
			warm.produce()
		}
		if !warm.resume() {
			t.Fatalf("%s: resume: %v", tc.name, warm.err)
		}
		if !warm.attached || !warm.continued {
			t.Fatalf("%s: resumed tape attached=%v continued=%v, want both", tc.name, warm.attached, warm.continued)
		}
		for warm.err == nil && warm.produced < len(want)/laneChunk+2 {
			warm.produce()
		}
		if tc.moved {
			if !errors.Is(warm.err, tracecache.ErrCorrupt) {
				t.Errorf("%s: resumed tape err = %v, want ErrCorrupt", tc.name, warm.err)
			}
			warm.close()
			live.close()
			continue
		}
		for live.err == nil && live.produced < len(want)/laneChunk+2 {
			live.produce()
		}
		if warm.err != nil || live.err != nil {
			t.Fatalf("%s: warm err %v, live err %v", tc.name, warm.err, live.err)
		}
		for name, tp := range map[string]*mixTape{"resumed": warm, "live": live} {
			got := published(tp)
			if len(got) < len(want) || !slices.Equal(got[:len(want)], want) {
				t.Errorf("%s: %s tape published %d events that are not the recorded %d", tc.name, name, len(got), len(want))
			}
		}
		need := len(want) + 3*laneChunk
		if err := warm.detach(need); err != nil {
			t.Fatal(err)
		}
		if err := live.detach(0); err != nil {
			t.Fatal(err)
		}
		info, err := tracecache.ReadInfo(st.EntryPath(key))
		if err != nil {
			t.Fatal(err)
		}
		if info.Measured != uint64(cut) || info.Events < uint64(need+1) {
			t.Errorf("%s: committed entry holds %d events, %d measured; want at least %d, %d", tc.name, info.Events, info.Measured, need+1, cut)
		}
	}
}

// TestMixStreamFailureFailsConsumers: a production error — here a
// pressure stream that runs dry — fails the stream for every consumer,
// not only the one whose batch hit it, and the last consumer out discards
// the entry and leaves the registry.
func TestMixStreamFailureFailsConsumers(t *testing.T) {
	mix, err := workload.MixByID(1)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := BuildDomains(mix, fusionTestScale, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := specs[0]
	spec.Pressure = isa.NewLimited(spec.Pressure, 1000)
	st := newTestStore(t, false)
	key := mixStreamKey(mix.Pairs[0], 0, fusionTestScale, 0, true, 32<<10, 8)
	o := &mixOrigin{st: st, key: key, cfg: mixSimConfig(Options{Scale: fusionTestScale}, partition.Untangle, fusionTestScale), spec: spec}
	var tapes [2]*mixTape
	for i := range tapes {
		tapes[i] = &mixTape{ring: &mixRing{}, measured: -1, markAt: -1, ctx: context.Background(), o: o}
		if err := tapes[i].open(); err != nil {
			t.Fatal(err)
		}
	}
	producer, follower := tapes[0], tapes[1]
	if producer.attached || !follower.attached {
		t.Fatalf("producer attached=%v, follower attached=%v; want false, true", producer.attached, follower.attached)
	}
	for producer.err == nil {
		producer.produce()
	}
	for follower.err == nil {
		follower.produce()
	}
	if !strings.Contains(producer.err.Error(), "dried") || follower.err != producer.err {
		t.Errorf("producer err %v, follower err %v; want the same dried-pressure error", producer.err, follower.err)
	}
	for _, tp := range tapes {
		tp.close()
	}
	if _, err := os.Stat(st.EntryPath(key)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failed stream left an entry: %v", err)
	}
	mixStreamsMu.Lock()
	live := mixStreams[mixStreamID{st, key}]
	mixStreamsMu.Unlock()
	if live != nil {
		t.Error("failed stream is still registered")
	}
}

// readEntry decodes a whole entry, marker included, and closes it.
func readEntry(r *tracecache.Reader) ([]feEvent, error) {
	defer r.Close()
	var out []feEvent
	buf := make([]feEvent, 4096)
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// TestMixStreamsSingleFlight is the one-front-end-per-stream gate: Figure
// 10's Mixes 1-4 hold 32 domain streams but only 19 distinct keys, and a
// cold campaign over them, with the mixes on pools of 2 and of 4 workers,
// starts each key's stream once — a mix that opens a key another is
// generating attaches to it, and one that opens a committed entry with
// too short a tail continues it — so fe-cache misses equal the distinct
// keys, no attempt is discarded, and every mix still matches its oracle
// bitwise. A second pass over the filled store runs warm and neither
// misses nor continues.
func TestMixStreamsSingleFlight(t *testing.T) {
	ids := []int{1, 2, 3, 4}
	mixes := make([]workload.Mix, len(ids))
	oracles := make([]*MixResult, len(ids))
	distinct := map[tracecache.Key]bool{}
	for i, id := range ids {
		mix, err := workload.MixByID(id)
		if err != nil {
			t.Fatal(err)
		}
		mixes[i] = mix
		if oracles[i], err = RunMix(mix, Options{Scale: fusionTestScale, DisableFusion: true}); err != nil {
			t.Fatal(err)
		}
		for d, pair := range mix.Pairs {
			distinct[mixStreamKey(pair, d, fusionTestScale, 0, true, 32<<10, 8)] = true
		}
	}
	if len(distinct) != 19 {
		t.Fatalf("Mixes 1-4 hold %d distinct keys, want 19", len(distinct))
	}
	defer SetFrontEndCache(nil)
	for _, workers := range []int{2, 4} {
		st := newTestStore(t, false)
		SetFrontEndCache(st)
		for _, pass := range []string{"cold", "warm"} {
			before := st.Counters()
			type run struct {
				res   *MixResult
				stats mixTapeStats
			}
			runs, err := parallel.Map(context.Background(), len(mixes), workers, func(ctx context.Context, i int) (run, error) {
				res, stats, ok, err := runMixFused(ctx, mixes[i], Options{Scale: fusionTestScale, Jobs: 1})
				if err == nil && !ok {
					err = fmt.Errorf("mix %d fell back to the oracle", mixes[i].ID)
				}
				return run{res, stats}, err
			})
			if err != nil {
				t.Fatal(err)
			}
			var continued, attached int
			for i, r := range runs {
				requireMixBitwiseEqual(t, fmt.Sprintf("%s workers=%d mix %d", pass, workers, mixes[i].ID), r.res, oracles[i])
				continued += r.stats.continued
				attached += r.stats.attached
			}
			c := st.Counters()
			misses, hits := c.Misses-before.Misses, c.Hits-before.Hits
			t.Logf("%s workers=%d: %d misses, %d hits, %d attached, %d continued", pass, workers, misses, hits, attached, continued)
			if pass == "cold" && misses != int64(len(distinct)) {
				t.Errorf("cold workers=%d: %d misses; want %d", workers, misses, len(distinct))
			}
			if pass == "warm" && (misses != 0 || hits != 32 || continued != 0) {
				t.Errorf("warm workers=%d: %d misses, %d hits, %d continued; want 0, 32, 0", workers, misses, hits, continued)
			}
			if pass == "cold" && int(misses+hits)+attached != 32 {
				t.Errorf("cold workers=%d: %d misses + %d hits + %d attached, want the 32 domain streams", workers, misses, hits, attached)
			}
		}
	}
}

// TestMixFusionCorruptEntry covers a warm entry damaged mid-file, which
// the checks at open do not see: the streamed reader reaches the damaged
// run only while the lanes run. Without rebuild the mix fails with
// ErrCorrupt; with it, the tape continues cold in place and regenerates
// the entry, still matching the oracle bitwise.
func TestMixFusionCorruptEntry(t *testing.T) {
	mix, err := workload.MixByID(1)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := RunMix(mix, Options{Scale: fusionTestScale, DisableFusion: true})
	if err != nil {
		t.Fatal(err)
	}
	defer SetFrontEndCache(nil)
	for _, rebuild := range []bool{false, true} {
		st := newTestStore(t, rebuild)
		SetFrontEndCache(st)
		if _, err := RunMix(mix, Options{Scale: fusionTestScale}); err != nil {
			t.Fatal(err)
		}
		path := st.EntryPath(mixStreamKey(mix.Pairs[0], 0, fusionTestScale, 0, true, 32<<10, 8))
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x40
		if err := os.WriteFile(path, b, 0o600); err != nil {
			t.Fatal(err)
		}
		got, err := RunMix(mix, Options{Scale: fusionTestScale})
		if !rebuild {
			if !errors.Is(err, tracecache.ErrCorrupt) {
				t.Fatalf("corrupt entry without rebuild: err = %v, want ErrCorrupt", err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		requireMixBitwiseEqual(t, "corrupt-rebuilt", got, oracle)
		if c := st.Counters(); c.Rebuilds != 1 {
			t.Errorf("rebuilds = %d, want 1", c.Rebuilds)
		}
		if _, err := tracecache.ReadInfo(path); err != nil {
			t.Errorf("rebuilt entry: %v", err)
		}
	}
}

// TestMixFusionCorruptEntryContinuesInPlace: a warm reader verifies each
// run of an entry before it serves the run's events, so a tape whose
// entry turns out corrupt under the rebuild policy has served only sound
// events and continues cold in place, regenerating the entry — whether
// the damage lies in the measured stream, before the tape saw the marker,
// or in the pressure tail, after it. The mix matches the oracle bitwise,
// one tape continues, one rebuild is counted, and the rewritten entry
// holds the same measured stream. A warm rerun then reads less than its
// entries hold: no tape reads its entry past what the lanes take.
func TestMixFusionCorruptEntryContinuesInPlace(t *testing.T) {
	mix, err := workload.MixByID(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Scale: fusionTestScale}
	oracle, err := RunMix(mix, Options{Scale: fusionTestScale, DisableFusion: true})
	if err != nil {
		t.Fatal(err)
	}
	defer SetFrontEndCache(nil)
	key := mixStreamKey(mix.Pairs[0], 0, fusionTestScale, 0, true, 32<<10, 8)
	for _, tc := range []struct {
		name   string
		marked bool // the damage lies past the measured-end marker
	}{
		{"measured stream", false},
		{"pressure tail", true},
	} {
		st := newTestStore(t, true)
		SetFrontEndCache(st)
		if _, _, ok, err := runMixFused(context.Background(), mix, opts); err != nil || !ok {
			t.Fatalf("%s: cold run: ok=%v err=%v", tc.name, ok, err)
		}
		path := st.EntryPath(key)
		info, err := tracecache.ReadInfo(path)
		if err != nil {
			t.Fatal(err)
		}
		// Flip a byte at the event share of the measured stream's middle,
		// or of the first third of the tail, into the data region.
		frac := float64(info.Measured) / float64(info.Events) / 2
		if tc.marked {
			frac = 2*frac + (1-2*frac)/3
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data := (12 + int(binary.LittleEndian.Uint32(b[8:12])) + 63) / 64 * 64 // the block after the header
		b[data+int(frac*float64(len(b)-data))] ^= 0x40
		if err := os.WriteFile(path, b, 0o600); err != nil {
			t.Fatal(err)
		}
		r, err := st.Open(key)
		if err != nil || r == nil {
			t.Fatalf("%s: open of the damaged entry: r=%v err=%v", tc.name, r, err)
		}
		served, err := readEntry(r)
		if !errors.Is(err, tracecache.ErrCorrupt) || slices.ContainsFunc(served, isMeasuredEnd) != tc.marked {
			t.Fatalf("%s: damaged entry serves %d events (marker among them: %v) then %v; want ErrCorrupt, marker %v",
				tc.name, len(served), slices.ContainsFunc(served, isMeasuredEnd), err, tc.marked)
		}

		before := st.Counters()
		got, stats, ok, err := runMixFused(context.Background(), mix, opts)
		if err != nil || !ok {
			t.Fatalf("%s: warm run: ok=%v err=%v", tc.name, ok, err)
		}
		requireMixBitwiseEqual(t, tc.name+" continued", got, oracle)
		if rebuilds := st.Counters().Rebuilds - before.Rebuilds; stats.continued != 1 || rebuilds != 1 {
			t.Errorf("%s: %d tapes continued, %d rebuilds; want 1, 1", tc.name, stats.continued, rebuilds)
		}
		rewritten, err := tracecache.ReadInfo(path)
		if err != nil {
			t.Fatalf("%s: rewritten entry: %v", tc.name, err)
		}
		if rewritten.Measured != info.Measured {
			t.Errorf("%s: rewritten entry measures %d events, want %d", tc.name, rewritten.Measured, info.Measured)
		}

		var held int64
		for d, pair := range mix.Pairs {
			fi, err := os.Stat(st.EntryPath(mixStreamKey(pair, d, fusionTestScale, 0, true, 32<<10, 8)))
			if err != nil {
				t.Fatal(err)
			}
			held += fi.Size()
		}
		before = st.Counters()
		if _, stats, ok, err = runMixFused(context.Background(), mix, opts); err != nil || !ok || stats.continued != 0 {
			t.Fatalf("%s: warm rerun: ok=%v err=%v, %d tapes continued", tc.name, ok, err, stats.continued)
		}
		if read := st.Counters().BytesRead - before.BytesRead; read >= held {
			t.Errorf("%s: warm rerun read %d bytes of entries holding %d, want fewer", tc.name, read, held)
		}
	}
}

// TestMixFusionOracleFlagForcesOracle pins the escape hatch: DisableFusion
// must leave the cache untouched.
func TestMixFusionOracleFlagForcesOracle(t *testing.T) {
	mix, err := workload.MixByID(1)
	if err != nil {
		t.Fatal(err)
	}
	st := newTestStore(t, false)
	SetFrontEndCache(st)
	defer SetFrontEndCache(nil)
	if _, err := RunMix(mix, Options{Scale: fusionTestScale, DisableFusion: true, Kinds: []partition.Kind{partition.Static}}); err != nil {
		t.Fatal(err)
	}
	c := st.Counters()
	if c.Hits != 0 || c.Misses != 0 || c.BytesWritten != 0 {
		t.Errorf("oracle path touched the cache: %+v", c)
	}
}

// TestMixTapeFollowsWindow is the bounded-tape gate: a cold Mix 1 keeps
// only the chunks between its trailing and leading lanes, so the chunk
// buffers its ring allocates follow the peak window of live tape events,
// not the stream length, and the window is sampled at round boundaries
// only, so it and the buffer count are the same with the rounds run inline
// or on four workers. The expectations are constants, like the other
// allocation gates; a change that moves them says why.
func TestMixTapeFollowsWindow(t *testing.T) {
	const (
		wantWindow    = 98658 // peak live tape events, all eight domains
		wantAllocated = 25    // chunk buffers the ring made
		wantProduced  = 125   // chunks produced, pressure-tail extension included
		// Every live chunk but a domain's measured-end chunk is full, so
		// the buffers exceed the window's whole chunks by at most one per
		// domain.
		slackPerDomain = 1
	)
	mix, err := workload.MixByID(1)
	if err != nil {
		t.Fatal(err)
	}
	defer SetFrontEndCache(nil)
	for _, jobs := range fusionTestJobs {
		SetFrontEndCache(newTestStore(t, false))
		_, stats, ok, err := runMixFused(context.Background(), mix, Options{Scale: fusionTestScale, Jobs: jobs})
		if err != nil || !ok {
			t.Fatalf("jobs=%d: ok=%v err=%v", jobs, ok, err)
		}
		if stats.window != wantWindow || stats.allocated != wantAllocated || stats.produced != wantProduced {
			t.Errorf("jobs=%d: window %d events, %d chunk buffers, %d chunks produced; want %d, %d, %d",
				jobs, stats.window, stats.allocated, stats.produced, wantWindow, wantAllocated, wantProduced)
		}
		whole := (stats.window + laneChunk - 1) / laneChunk
		if stats.allocated < whole || stats.allocated > whole+slackPerDomain*len(mix.Pairs) {
			t.Errorf("jobs=%d: %d chunk buffers for a %d-event window (%d chunks), want at most %d per domain more",
				jobs, stats.allocated, stats.window, whole, slackPerDomain)
		}
		if 4*stats.allocated >= stats.produced {
			t.Errorf("jobs=%d: %d chunk buffers for %d chunks produced, want under a quarter", jobs, stats.allocated, stats.produced)
		}
		reg := telemetry.NewRegistry()
		RegisterMixMetrics(reg)
		if peak := reg.Snapshot().Gauges["obs.mix.tape_window_events"]; peak < float64(stats.window) {
			t.Errorf("jobs=%d: obs.mix.tape_window_events reads %v, below this mix's window %d", jobs, peak, stats.window)
		}
	}
}

// TestMixEntryKeyPinsMonitorGeometry: fe-cache entries hold the monitor
// hit vectors, which depend on the recorder's shadow-array geometry, so a
// WayPartitioned run (way-granular candidate sizes) over a store a default
// run filled must read none of those entries and still match its oracle;
// its second run replays its own entries.
func TestMixEntryKeyPinsMonitorGeometry(t *testing.T) {
	mix, err := workload.MixByID(1)
	if err != nil {
		t.Fatal(err)
	}
	wp := Options{Scale: fusionTestScale, WayPartitioned: true}
	oracleOpts := wp
	oracleOpts.DisableFusion = true
	oracle, err := RunMix(mix, oracleOpts)
	if err != nil {
		t.Fatal(err)
	}
	st := newTestStore(t, false)
	SetFrontEndCache(st)
	defer SetFrontEndCache(nil)
	if _, err := RunMix(mix, Options{Scale: fusionTestScale}); err != nil {
		t.Fatal(err)
	}
	domains := int64(len(mix.Pairs))
	for _, run := range []struct {
		label      string
		wantHits   int64
		wantMisses int64
	}{
		{"over default entries", 0, domains},
		{"over its own entries", domains, 0},
	} {
		before := st.Counters()
		got, err := RunMix(mix, wp)
		if err != nil {
			t.Fatal(err)
		}
		requireMixBitwiseEqual(t, "way-partitioned "+run.label, got, oracle)
		c := st.Counters()
		if hits, misses := c.Hits-before.Hits, c.Misses-before.Misses; hits != run.wantHits || misses != run.wantMisses {
			t.Errorf("way-partitioned %s: %d hits, %d misses; want %d, %d", run.label, hits, misses, run.wantHits, run.wantMisses)
		}
	}
}

// TestWarmMixBuildsNoShadowRecorder is the warm fused path's memory gate:
// a warm Mix 1 decodes its monitor hit vectors from the entries, so it
// builds none of the shadow recorders the cold front ends use, 2.5 MB each
// at this scale. Allocated bytes show it: the bound sits between this
// run's bytes and what one recorder more would add. The expectations are
// constants, like the other allocation gates; a change that moves them
// says why.
func TestWarmMixBuildsNoShadowRecorder(t *testing.T) {
	const (
		// Warm tapes that re-recorded the masks through one recorder per
		// domain allocated 63.7 MB here.
		recordingBytes = 63_700_000
		// Measured: 37.1 MB (37.9 MB under the race detector).
		maxBytes = 39_000_000
	)
	mix, err := workload.MixByID(1)
	if err != nil {
		t.Fatal(err)
	}
	st := newTestStore(t, false)
	SetFrontEndCache(st)
	defer SetFrontEndCache(nil)
	opts := Options{Scale: fusionTestScale, Jobs: 1}
	if _, _, ok, err := runMixFused(context.Background(), mix, opts); err != nil || !ok {
		t.Fatalf("cold run: ok=%v err=%v", ok, err)
	}
	before := st.Counters()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, _, ok, err := runMixFused(context.Background(), mix, opts)
	runtime.ReadMemStats(&m1)
	if err != nil || !ok {
		t.Fatalf("warm run: ok=%v err=%v", ok, err)
	}
	if hits := st.Counters().Hits - before.Hits; hits != int64(len(mix.Pairs)) {
		t.Fatalf("warm run: %d hits; want %d", hits, len(mix.Pairs))
	}
	if n := m1.TotalAlloc - m0.TotalAlloc; n > maxBytes {
		t.Errorf("warm Mix 1 allocated %d bytes, want at most %d (re-recording the masks allocated %d)", n, maxBytes, recordingBytes)
	}
}

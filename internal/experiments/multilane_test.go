package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"untangle/internal/cache"
	"untangle/internal/workload"
)

// oracleStudy computes the study the pre-engine way: one full simulator run
// per benchmark × size through the retained sensitivityPoint path.
func oracleStudy(t *testing.T, params []workload.Params, instructions uint64) []SensitivityResult {
	t.Helper()
	sizes := sensitivitySizes()
	out := make([]SensitivityResult, len(params))
	for b, p := range params {
		ipcs := make([]float64, len(sizes))
		for i, size := range sizes {
			ipc, err := sensitivityPoint(p, size, instructions)
			if err != nil {
				t.Fatal(err)
			}
			ipcs[i] = ipc
		}
		out[b] = assembleSensitivity(p.Name, sizes, ipcs)
	}
	return out
}

// requireBitwiseEqual compares two study rows field by field, reporting the
// first differing per-size value exactly (Float64bits, so NaN == NaN and
// -0 != +0, the strictest possible notion of "same result").
func requireBitwiseEqual(t *testing.T, got, want SensitivityResult) {
	t.Helper()
	if got.Name != want.Name {
		t.Fatalf("name %q != %q", got.Name, want.Name)
	}
	if got.Adequate != want.Adequate || got.Sensitive != want.Sensitive {
		t.Errorf("%s: classification (adequate %d, sensitive %v) != oracle (adequate %d, sensitive %v)",
			got.Name, got.Adequate, got.Sensitive, want.Adequate, want.Sensitive)
	}
	if len(got.Sizes) != len(want.Sizes) || len(got.NormIPC) != len(want.NormIPC) {
		t.Fatalf("%s: curve shape %d/%d sizes != oracle %d/%d", got.Name,
			len(got.Sizes), len(got.NormIPC), len(want.Sizes), len(want.NormIPC))
	}
	for i := range got.Sizes {
		if got.Sizes[i] != want.Sizes[i] {
			t.Errorf("%s: size[%d] = %d, oracle %d", got.Name, i, got.Sizes[i], want.Sizes[i])
		}
		if math.Float64bits(got.NormIPC[i]) != math.Float64bits(want.NormIPC[i]) {
			t.Errorf("%s: NormIPC[%d] = %x (%v), oracle %x (%v)", got.Name, i,
				math.Float64bits(got.NormIPC[i]), got.NormIPC[i],
				math.Float64bits(want.NormIPC[i]), want.NormIPC[i])
		}
	}
}

// quickBudgets are the -short engine tests' instruction budgets: one whose
// stream stays inside the first laneChunk-event block, and one whose
// stream spans more than three blocks (mcf_0 emits about two events per
// three instructions), so cold, sidecar-served and re-probing passes all
// cross block boundaries.
var quickBudgets = []uint64{5_000, 20_000}

// TestEngineMatchesOracleQuick is the always-on (even -short) guard: one
// benchmark, small budgets, engine vs direct simulation, bitwise.
func TestEngineMatchesOracleQuick(t *testing.T) {
	p, err := workload.SPECByName("mcf_0")
	if err != nil {
		t.Fatal(err)
	}
	for _, instructions := range quickBudgets {
		t.Run(fmt.Sprint(instructions), func(t *testing.T) {
			e := newLaneEngine()
			ipcs, _, err := e.run(context.Background(), nil, p, instructions)
			if err != nil {
				t.Fatal(err)
			}
			requireBitwiseEqual(t,
				assembleSensitivity(p.Name, e.sizes, ipcs),
				oracleStudy(t, []workload.Params{p}, instructions)[0])
		})
	}
}

// TestEngineMatchesOracleAllBenchmarks is the PR's central acceptance test:
// the multi-lane engine reproduces the sensitivityPoint oracle bitwise —
// per-size normalized IPC, Adequate size, and the Sensitive verdict — for
// every one of the 36 Figure 11 benchmarks, at a reduced instruction budget.
// Bitwise equality at ANY budget implies the two paths compute the same
// function, warmup boundary and measurement window included (budgets this
// small exercise the degenerate boundary cases — IPC-0 windows, NaN
// normalization — that a tolerance comparison would paper over). The study
// side runs through the public parallel path, so under -race this also
// covers the engine pool and the per-worker engine reuse.
func TestEngineMatchesOracleAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("36-benchmark oracle comparison; skipped in -short mode")
	}
	const instructions = 100_000
	params := sortedSPECParams()
	want := oracleStudy(t, params, instructions)
	got, err := SensitivityStudyContext(context.Background(), instructions, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("engine study has %d rows, oracle %d", len(got), len(want))
	}
	for i := range got {
		requireBitwiseEqual(t, got[i], want[i])
	}
}

// TestEngineZeroInstructions pins the degenerate budget: the oracle begins
// measurement before the first quantum when WarmupInstructions is 0, and the
// engine must do the same instead of dividing by an empty window.
func TestEngineZeroInstructions(t *testing.T) {
	p, err := workload.SPECByName("imagick_0")
	if err != nil {
		t.Fatal(err)
	}
	e := newLaneEngine()
	ipcs, _, err := e.run(context.Background(), nil, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, size := range e.sizes {
		want, err := sensitivityPoint(p, size, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(ipcs[i]) != math.Float64bits(want) {
			t.Errorf("size %d: engine IPC %v, oracle %v", size, ipcs[i], want)
		}
	}
}

// TestEngineCancellation: a pre-canceled context must abort the pass with
// the context's error before any meaningful work.
func TestEngineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SensitivityStudyContext(ctx, 1_000_000, 0); err == nil {
		t.Fatal("canceled study returned no error")
	}
	p, err := workload.SPECByName("mcf_0")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := newLaneEngine().run(ctx, nil, p, 1_000_000); err != context.Canceled {
		t.Fatalf("engine run under canceled context: err = %v, want context.Canceled", err)
	}
}

// TestColdOutcomesMatchLanes requires, for every Figure 11 benchmark, that
// the outcome bits a cold pass publishes as its sidecar equal bit for bit
// what nine cache.Cache probes, one per size, give for the entry's miss
// stream: the one shadow-set probe per miss that resolves all nine sizes
// at once decides every miss as the simulator's per-size tick-LRU cache
// would. The study runs through the public parallel path, so the engines
// come from the pool and reset their shadow set between benchmarks; under
// -race it also covers that reuse.
func TestColdOutcomesMatchLanes(t *testing.T) {
	const instructions = 20_000
	st := newTestStore(t, false)
	SetFrontEndCache(st)
	defer SetFrontEndCache(nil)
	if _, err := SensitivityStudyContext(context.Background(), instructions, 2); err != nil {
		t.Fatal(err)
	}
	e := newLaneEngine()
	caches := make([]*cache.Cache, len(e.sizes))
	for i, size := range e.sizes {
		caches[i] = cache.MustNew(cache.Config{SizeBytes: size, Ways: e.llcWays})
	}
	events := make([]feEvent, laneChunk)
	for _, p := range sortedSPECParams() {
		key := e.key(p, instructions)
		r, err := st.Open(key)
		if err != nil || r == nil {
			t.Fatalf("%s: open entry: r=%v err=%v", p.Name, r, err)
		}
		var misses []uint64
		for {
			n, err := r.Read(events)
			for _, ev := range events[:n] {
				if ev.Kind == feL1Miss {
					misses = append(misses, ev.Addr)
				}
			}
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("%s: read entry: %v", p.Name, err)
			}
		}
		r.Close()
		got, ok := st.OpenLaneOutcomes(key, e.llcWays, e.sizes, uint64(len(misses)))
		if !ok {
			t.Fatalf("%s: no sidecar for the stream's %d misses", p.Name, len(misses))
		}
		for i, c := range caches {
			c.Reset()
			for j, addr := range misses {
				want := c.Access(addr, false)
				if hit := got[i][j>>6]&(1<<(uint(j)&63)) != 0; hit != want {
					t.Fatalf("%s, %d B: miss %d (addr %#x) has outcome hit=%v, Cache probe hit=%v",
						p.Name, e.sizes[i], j, addr, hit, want)
				}
			}
		}
	}
}

// TestEngineLLCFootprint pins the engine's LLC state at the shadow set's 8
// B per line: 3,260,416 B for the nine sizes' 407,552 lines. Nine
// cache.Lanes, with an LRU tick beside every tag, held 6,520,832 B, and a
// fresh engine must allocate less than that in all, its L1, block
// buffer and scratch included.
func TestEngineLLCFootprint(t *testing.T) {
	const (
		llcBytes   = 3_260_416
		lanesBytes = 6_520_832
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := newLaneEngine()
	runtime.ReadMemStats(&after)
	lines := 0
	for i := range e.sizes {
		lines += e.llc.Sets(i) * e.llc.Ways()
	}
	if lines*8 != llcBytes || lines*16 != lanesBytes {
		t.Fatalf("%d LLC lines, want %d", lines, llcBytes/8)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got < llcBytes || got >= lanesBytes {
		t.Errorf("fresh engine allocated %d B, want at least the shadow set's %d B and under the lanes' %d B",
			got, llcBytes, lanesBytes)
	}
}

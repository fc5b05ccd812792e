package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"untangle/internal/tracecache"
	"untangle/internal/workload"
)

// newTestStore builds a store over a fresh temp directory.
func newTestStore(t *testing.T, rebuild bool) *tracecache.Store {
	t.Helper()
	st, err := tracecache.NewStore(t.TempDir(), rebuild)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// requireStudiesBitwiseEqual compares two whole studies row by row.
func requireStudiesBitwiseEqual(t *testing.T, got, want []SensitivityResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("study has %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		requireBitwiseEqual(t, got[i], want[i])
	}
}

// TestTraceCacheWarmColdEquivalence is the PR's central acceptance test: a
// study teeing its front-end streams to a cold cache and a study replaying
// them warm both reproduce the uncached study bitwise, for every one of the
// 36 Figure 11 benchmarks. Run through the public parallel path, so under
// -race this also covers concurrent store access and single-flight locking.
func TestTraceCacheWarmColdEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("36-benchmark triple study; skipped in -short mode")
	}
	const instructions = 100_000
	ctx := context.Background()

	baseline, err := SensitivityStudyContext(ctx, instructions, 4)
	if err != nil {
		t.Fatal(err)
	}

	st := newTestStore(t, false)
	SetFrontEndCache(st)
	defer SetFrontEndCache(nil)

	cold, err := SensitivityStudyContext(ctx, instructions, 4)
	if err != nil {
		t.Fatal(err)
	}
	requireStudiesBitwiseEqual(t, cold, baseline)
	if c := st.Counters(); c.Misses != 36 || c.Hits != 0 {
		t.Fatalf("cold pass counters = %+v, want 36 misses, 0 hits", c)
	}

	var l unitLog
	SetUnitObserver(l.observer)
	defer SetUnitObserver(nil)
	warm, err := SensitivityStudyContext(ctx, instructions, 4)
	if err != nil {
		t.Fatal(err)
	}
	requireStudiesBitwiseEqual(t, warm, baseline)
	if c := st.Counters(); c.Hits != 36 || c.Rebuilds != 0 {
		t.Fatalf("warm pass counters = %+v, want 36 hits, 0 rebuilds", c)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.replayed != 36 {
		t.Errorf("warm pass reported %d replayed units, want 36", l.replayed)
	}
}

// TestTraceCacheWarmColdEquivalenceQuick is the -short variant: one
// benchmark, cold tee then warm replay, bitwise.
func TestTraceCacheWarmColdEquivalenceQuick(t *testing.T) {
	for _, instructions := range quickBudgets {
		t.Run(fmt.Sprint(instructions), func(t *testing.T) {
			p, err := workload.SPECByName("mcf_0")
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			e := newLaneEngine()
			base, _, err := e.run(ctx, nil, p, instructions)
			if err != nil {
				t.Fatal(err)
			}

			st := newTestStore(t, false)
			cold, replayed, err := e.run(ctx, st, p, instructions)
			if err != nil {
				t.Fatal(err)
			}
			if replayed {
				t.Fatal("first cached pass reported replayed")
			}
			warm, replayed, err := e.run(ctx, st, p, instructions)
			if err != nil {
				t.Fatal(err)
			}
			if !replayed {
				t.Fatal("second cached pass did not replay")
			}
			requireBitwiseEqual(t, assembleSensitivity(p.Name, e.sizes, cold),
				assembleSensitivity(p.Name, e.sizes, base))
			requireBitwiseEqual(t, assembleSensitivity(p.Name, e.sizes, warm),
				assembleSensitivity(p.Name, e.sizes, base))
		})
	}
}

// TestTraceCacheLaneOutcomeSidecar pins the sidecar fast path and its
// self-healing: the cold tee writes a .felanes sidecar alongside the event
// stream; a warm pass serves from it (counted as an outcome hit); deleting
// or corrupting it only costs a re-probe of the verified stream — bitwise
// equal results, sidecar rewritten — never a wrong answer or a failed run.
func TestTraceCacheLaneOutcomeSidecar(t *testing.T) {
	for _, instructions := range quickBudgets {
		t.Run(fmt.Sprint(instructions), func(t *testing.T) {
			p, err := workload.SPECByName("mcf_0")
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			e := newLaneEngine()
			base, _, err := e.run(ctx, nil, p, instructions)
			if err != nil {
				t.Fatal(err)
			}

			st := newTestStore(t, false)
			if _, _, err := e.run(ctx, st, p, instructions); err != nil {
				t.Fatal(err)
			}
			side := st.LaneOutcomePath(e.key(p, instructions))
			if _, err := os.Stat(side); err != nil {
				t.Fatalf("cold tee did not write the sidecar: %v", err)
			}

			warm, replayed, err := e.run(ctx, st, p, instructions)
			if err != nil || !replayed {
				t.Fatalf("warm pass: replayed=%v err=%v", replayed, err)
			}
			requireBitwiseEqual(t, assembleSensitivity(p.Name, e.sizes, warm),
				assembleSensitivity(p.Name, e.sizes, base))
			if c := st.Counters(); c.OutcomeHits != 1 || c.OutcomeMisses != 0 {
				t.Fatalf("sidecar-served warm counters = %+v, want 1 outcome hit", c)
			}

			// Sidecar gone: the warm pass re-probes the stream and rewrites it.
			if err := os.Remove(side); err != nil {
				t.Fatal(err)
			}
			warm, replayed, err = e.run(ctx, st, p, instructions)
			if err != nil || !replayed {
				t.Fatalf("sidecar-less warm pass: replayed=%v err=%v", replayed, err)
			}
			requireBitwiseEqual(t, assembleSensitivity(p.Name, e.sizes, warm),
				assembleSensitivity(p.Name, e.sizes, base))
			if c := st.Counters(); c.OutcomeMisses != 1 {
				t.Fatalf("re-probe counters = %+v, want 1 outcome miss", c)
			}
			if _, err := os.Stat(side); err != nil {
				t.Fatalf("re-probe did not rewrite the sidecar: %v", err)
			}

			// Sidecar corrupt (payload bit flip): rejected by CRC, re-probed, and the
			// rewritten file serves the next pass.
			raw, err := os.ReadFile(side)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-8] ^= 0x01
			if err := os.WriteFile(side, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			warm, replayed, err = e.run(ctx, st, p, instructions)
			if err != nil || !replayed {
				t.Fatalf("corrupt-sidecar warm pass: replayed=%v err=%v", replayed, err)
			}
			requireBitwiseEqual(t, assembleSensitivity(p.Name, e.sizes, warm),
				assembleSensitivity(p.Name, e.sizes, base))
			if c := st.Counters(); c.OutcomeMisses != 2 {
				t.Fatalf("corrupt-sidecar counters = %+v, want 2 outcome misses", c)
			}
			if _, replayed, err := e.run(ctx, st, p, instructions); err != nil || !replayed {
				t.Fatalf("post-heal pass: replayed=%v err=%v", replayed, err)
			}
			if c := st.Counters(); c.OutcomeHits != 2 {
				t.Fatalf("post-heal counters = %+v, want 2 outcome hits", c)
			}
		})
	}
}

// TestTraceCacheStaleSidecar: a sidecar with a valid key, geometry and CRC
// but the wrong miss count — one 64 too high, then one 64 too low — is
// caught while the warm pass folds the stream, never served. The pass
// that folded stale bits is discarded, the entry is re-probed (bitwise
// equal results, one outcome miss), and the rewritten sidecar serves the
// next pass. The stream spans more than three blocks, so a short count
// is caught only after earlier blocks have folded from the stale bits.
func TestTraceCacheStaleSidecar(t *testing.T) {
	instructions := quickBudgets[len(quickBudgets)-1]
	p, err := workload.SPECByName("mcf_0")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	e := newLaneEngine()
	base, _, err := e.run(ctx, nil, p, instructions)
	if err != nil {
		t.Fatal(err)
	}
	st := newTestStore(t, false)
	if _, _, err := e.run(ctx, st, p, instructions); err != nil {
		t.Fatal(err)
	}
	key := e.key(p, instructions)
	info, err := tracecache.ReadInfo(st.EntryPath(key))
	if err != nil {
		t.Fatal(err)
	}
	if info.Events <= 3*laneChunk {
		t.Fatalf("stream has %d events, want more than three %d-event blocks", info.Events, laneChunk)
	}
	bits, misses, ok := st.OpenLaneOutcomesUpTo(key, e.llcWays, e.sizes, info.Events)
	if !ok {
		t.Fatal("cold tee wrote no loadable sidecar")
	}

	for _, stale := range []uint64{misses + 64, misses - 64} {
		padded := make([][]uint64, len(bits))
		for i := range bits {
			padded[i] = append(append([]uint64(nil), bits[i]...), 0)
		}
		if err := st.SaveLaneOutcomes(key, e.llcWays, e.sizes, stale, padded); err != nil {
			t.Fatal(err)
		}
		before := st.Counters()
		warm, replayed, err := e.run(ctx, st, p, instructions)
		if err != nil || !replayed {
			t.Fatalf("stale count %d: replayed=%v err=%v", stale, replayed, err)
		}
		requireBitwiseEqual(t, assembleSensitivity(p.Name, e.sizes, warm),
			assembleSensitivity(p.Name, e.sizes, base))
		if c := st.Counters(); c.OutcomeMisses != before.OutcomeMisses+1 || c.OutcomeHits != before.OutcomeHits {
			t.Fatalf("stale count %d: counters %+v after %+v, want one outcome miss", stale, c, before)
		}
		if _, n, ok := st.OpenLaneOutcomesUpTo(key, e.llcWays, e.sizes, info.Events); !ok || n != misses {
			t.Fatalf("stale count %d: rewritten sidecar holds %d misses (ok=%v), want %d", stale, n, ok, misses)
		}
		before = st.Counters()
		if _, replayed, err := e.run(ctx, st, p, instructions); err != nil || !replayed {
			t.Fatalf("stale count %d: post-heal pass: replayed=%v err=%v", stale, replayed, err)
		}
		if c := st.Counters(); c.OutcomeHits != before.OutcomeHits+1 || c.OutcomeMisses != before.OutcomeMisses {
			t.Fatalf("stale count %d: post-heal counters %+v after %+v, want one outcome hit", stale, c, before)
		}
	}
}

// TestWarmPassMemoryBounded pins the block fold's memory bound with a
// deterministic proxy: the bytes one sidecar-served warm pass allocates,
// less the sidecar (loaded whole, one bit per miss per lane), stay under a
// fixed bound at two budgets 4x apart. A pass that decoded the whole
// stream would cost 16 B per event and fail at either budget.
func TestWarmPassMemoryBounded(t *testing.T) {
	const bound = 256 << 10
	p, err := workload.SPECByName("mcf_0")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, instructions := range []uint64{100_000, 400_000} {
		st := newTestStore(t, false)
		e := newLaneEngine()
		for range 2 { // cold tee, then a warm pass that sizes the engine's buffers
			if _, _, err := e.run(ctx, st, p, instructions); err != nil {
				t.Fatal(err)
			}
		}
		fi, err := os.Stat(st.LaneOutcomePath(e.key(p, instructions)))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, replayed, err := e.run(ctx, st, p, instructions)
		runtime.ReadMemStats(&after)
		if err != nil || !replayed {
			t.Fatalf("%d instructions: replayed=%v err=%v", instructions, replayed, err)
		}
		if c := st.Counters(); c.OutcomeHits != 2 {
			t.Fatalf("%d instructions: counters %+v, want sidecar-served warm passes", instructions, c)
		}
		extra := int64(after.TotalAlloc-before.TotalAlloc) - fi.Size()
		t.Logf("%d instructions: %d B allocated beyond the %d B sidecar", instructions, extra, fi.Size())
		if extra > bound {
			t.Errorf("%d instructions: warm pass allocated %d B beyond its %d B sidecar, bound %d B",
				instructions, extra, fi.Size(), bound)
		}
	}
}

// TestTraceCacheKeyMismatchFailsLoudly: an entry written under a different
// parameter-table tag occupies the expected path; opening it without the
// rebuild policy must fail naming both keys, never silently regenerate or —
// worse — replay the stale stream.
func TestTraceCacheKeyMismatchFailsLoudly(t *testing.T) {
	const instructions = 5_000
	p, err := workload.SPECByName("mcf_0")
	if err != nil {
		t.Fatal(err)
	}
	st := newTestStore(t, false)
	e := newLaneEngine()
	stale := e.key(p, instructions)
	stale.ParamsTag = "00000000deadbeef"
	w, err := st.Create(stale)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	_, _, err = e.run(context.Background(), st, p, instructions)
	if !errors.Is(err, tracecache.ErrKeyMismatch) {
		t.Fatalf("err = %v, want ErrKeyMismatch", err)
	}
	for _, want := range []string{"00000000deadbeef", cachedParamsTag(), "-fe-cache-rebuild"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("mismatch error %q does not mention %q", err, want)
		}
	}

	// The same entry under the rebuild policy regenerates and then serves.
	rb, err := tracecache.NewStore(st.Dir(), true)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := e.run(context.Background(), nil, p, instructions)
	if err != nil {
		t.Fatal(err)
	}
	got, replayed, err := e.run(context.Background(), rb, p, instructions)
	if err != nil {
		t.Fatal(err)
	}
	if replayed {
		t.Fatal("rebuild pass reported replayed")
	}
	requireBitwiseEqual(t, assembleSensitivity(p.Name, e.sizes, got),
		assembleSensitivity(p.Name, e.sizes, base))
	if c := rb.Counters(); c.Rebuilds != 1 {
		t.Fatalf("rebuilds = %d, want 1", c.Rebuilds)
	}
	if _, replayed, err := e.run(context.Background(), rb, p, instructions); err != nil || !replayed {
		t.Fatalf("post-rebuild pass: replayed=%v err=%v, want replay", replayed, err)
	}
}

// TestTraceCacheCorruptEntry: a bit-flipped entry fails the pass without
// rebuild and regenerates (bitwise equal to cold) with it.
func TestTraceCacheCorruptEntry(t *testing.T) {
	const instructions = 20_000
	p, err := workload.SPECByName("xz_1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	st := newTestStore(t, false)
	e := newLaneEngine()
	base, _, err := e.run(ctx, st, p, instructions)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte mid-file: the structure stays parseable, so the
	// damage is caught by its run's CRC during replay, before any event of
	// that run is decoded.
	path := st.EntryPath(e.key(p, instructions))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := e.run(ctx, st, p, instructions); !errors.Is(err, tracecache.ErrCorrupt) {
		t.Fatalf("corrupt entry: err = %v, want ErrCorrupt", err)
	}

	rb, err := tracecache.NewStore(st.Dir(), true)
	if err != nil {
		t.Fatal(err)
	}
	got, replayed, err := e.run(ctx, rb, p, instructions)
	if err != nil {
		t.Fatal(err)
	}
	if replayed {
		t.Fatal("rebuild of a corrupt entry reported replayed")
	}
	requireBitwiseEqual(t, assembleSensitivity(p.Name, e.sizes, got),
		assembleSensitivity(p.Name, e.sizes, base))
	if c := rb.Counters(); c.Rebuilds == 0 {
		t.Fatal("rebuild counter did not advance")
	}
	// The overwritten entry is intact again.
	if _, replayed, err := e.run(ctx, rb, p, instructions); err != nil || !replayed {
		t.Fatalf("post-rebuild pass: replayed=%v err=%v, want replay", replayed, err)
	}
}

// TestWarmFrontEndCache covers the study's warm path: duplicate names
// single-flight into one generation, a second warm run generates nothing,
// and the entries round-trip through ReadInfo with the engine's key.
func TestWarmFrontEndCache(t *testing.T) {
	const instructions = 5_000
	st := newTestStore(t, false)
	generated, err := WarmFrontEndCache(context.Background(), st,
		[]string{"mcf_0", "mcf_0", "xz_1"}, instructions, 3)
	if err != nil {
		t.Fatal(err)
	}
	if generated != 2 {
		t.Fatalf("generated = %d, want 2 (duplicate benchmark single-flighted)", generated)
	}
	generated, err = WarmFrontEndCache(context.Background(), st, nil, instructions, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(workload.SPECBenchmarks) - 2; generated != want {
		t.Fatalf("second warm generated %d, want %d (two already present)", generated, want)
	}

	e := newLaneEngine()
	p, err := workload.SPECByName("mcf_0")
	if err != nil {
		t.Fatal(err)
	}
	info, err := tracecache.ReadInfo(st.EntryPath(e.key(p, instructions)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Key != e.key(p, instructions) {
		t.Fatalf("entry key = %s, want %s", info.Key, e.key(p, instructions))
	}
	if info.Events == 0 || info.MemOps() == 0 {
		t.Fatalf("warmed entry is empty: %+v", info)
	}

	if _, err := WarmFrontEndCache(context.Background(), st, []string{"no_such_bench"}, instructions, 1); err == nil {
		t.Fatal("unknown benchmark did not error")
	}
	if _, err := WarmFrontEndCache(context.Background(), nil, nil, instructions, 1); err == nil {
		t.Fatal("nil store did not error")
	}
}

package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// clone returns a deep copy of c.
func (c *Cache) clone() *Cache {
	d := *c
	d.tags = slices.Clone(c.tags)
	d.lru = slices.Clone(c.lru)
	d.dirty = slices.Clone(c.dirty)
	return &d
}

// diffState describes the first difference between two caches' complete
// state (geometry, clock, counters and every line), or returns "" if they
// are identical.
func diffState(got, want *Cache) string {
	if got.ways != want.ways || got.sets != want.sets || got.modHi != want.modHi || got.modLo != want.modLo {
		return fmt.Sprintf("geometry %d sets x %d ways, want %d x %d", got.sets, got.ways, want.sets, want.ways)
	}
	if got.tick != want.tick {
		return fmt.Sprintf("tick %d, want %d", got.tick, want.tick)
	}
	if got.stats != want.stats {
		return fmt.Sprintf("stats %+v, want %+v", got.stats, want.stats)
	}
	for i := range want.tags {
		if got.tags[i] != want.tags[i] || got.lru[i] != want.lru[i] || got.dirty[i] != want.dirty[i] {
			return fmt.Sprintf("slot %d (set %d way %d): tag/lru/dirty %d/%d/%v, want %d/%d/%v",
				i, i/want.ways, i%want.ways, got.tags[i], got.lru[i], got.dirty[i], want.tags[i], want.lru[i], want.dirty[i])
		}
	}
	return ""
}

// tickTie returns a description of two valid lines of c that hold the
// same LRU tick, or "" if every valid line's tick is its own. Resize's
// single bucketed path relies on this: with distinct ticks every bucket
// sorts strictly ascending, and no order among equals is left to decide.
func tickTie(c *Cache) string {
	seen := make(map[uint64]int)
	for i, t := range c.tags {
		if t == 0 {
			continue
		}
		if j, ok := seen[c.lru[i]]; ok {
			return fmt.Sprintf("slots %d and %d share LRU tick %d", j, i, c.lru[i])
		}
		seen[c.lru[i]] = i
	}
	return ""
}

// twin drives two identical caches with the same traffic; got resizes with
// Resize and want with referenceResize.
type twin struct{ got, want *Cache }

func newTwin(cfg Config) twin {
	c := MustNew(cfg)
	return twin{got: c, want: c.clone()}
}

func (w twin) access(addr uint64, write bool) {
	w.got.Access(addr, write)
	w.want.Access(addr, write)
}

// resize resizes both caches and fails t unless they agree afterwards and
// the resized cache's valid lines hold pairwise distinct LRU ticks.
func (w twin) resize(t testing.TB, size int64) {
	t.Helper()
	gotErr, wantErr := w.got.Resize(size), w.want.referenceResize(size)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("resize to %d: error %v, reference %v", size, gotErr, wantErr)
	}
	if d := diffState(w.got, w.want); d != "" {
		t.Fatalf("resize to %d: %s", size, d)
	}
	if d := tickTie(w.got); d != "" {
		t.Fatalf("resize to %d: %s", size, d)
	}
}

// run applies n random accesses over a pool of span lines; a quarter are
// writes.
func (w twin) run(rng *rand.Rand, n, span int) {
	for i := 0; i < n; i++ {
		w.access(uint64(rng.Intn(span))*LineBytes, rng.Intn(4) == 0)
	}
}

// TestResizeMatchesReference: the bucketed Resize leaves every tag, LRU
// tick, dirty bit and counter exactly where the original global sort-based
// Resize leaves them, through shrinks, grows and the non-power-of-two 3 MB
// and 6 MB partitions, and no two valid lines share an LRU tick after any
// resize.
func TestResizeMatchesReference(t *testing.T) {
	paper := []int64{4 << 20, 2 << 20, 3 << 20, 6 << 20, 1 << 20, 128 << 10, 3 << 20}
	small := []int64{1 << 10, 3 << 10, 8 << 10, 2 << 10, 6 << 10, 4 << 10, 1 << 10}
	seeds := 40
	if testing.Short() {
		paper = paper[:5]
		seeds = 10
	}
	// The subtest keeps the name it had when the cache also offered other
	// replacement policies and a prefetch fill: LRU, demand fills only.
	t.Run("LRU/prefetch=false", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		w := newTwin(Config{SizeBytes: 2 << 20, Ways: 16})
		for _, size := range paper {
			lines := int(w.got.SizeBytes() / LineBytes)
			w.run(rng, 2*lines, 3*lines)
			w.resize(t, size)
		}
		for seed := 0; seed < seeds; seed++ {
			w := newTwin(Config{SizeBytes: 4 << 10, Ways: 4})
			for _, size := range small {
				w.run(rng, 200, 256)
				w.resize(t, size)
			}
		}
	})
}

// FuzzResize runs a byte-driven script of reads, writes and resizes on a
// small 4-way cache. It checks the bucketed Resize against the reference
// after every resize, and after every operation that no two valid lines
// share an LRU tick. The first byte is ignored, so that the committed
// seeds keep their meaning; each following byte pair is one operation on
// one of 16,384 lines.
func FuzzResize(f *testing.F) {
	f.Add([]byte{0, 0, 1, 4, 2, 8, 3, 3, 1, 2, 5, 7, 0, 3, 1})
	f.Add([]byte{1, 2, 9, 2, 9, 2, 10, 0, 4, 3, 0, 1, 1, 3, 5})
	f.Add([]byte{2, 6, 200, 6, 201, 6, 202, 3, 2, 4, 7, 3, 6})
	sizes := []int64{1 << 10, 2 << 10, 3 << 10, 4 << 10, 6 << 10, 8 << 10}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 || len(script) > 1<<13 {
			return
		}
		w := newTwin(Config{SizeBytes: 4 << 10, Ways: 4})
		for i := 1; i+1 < len(script); i += 2 {
			op, arg := script[i], script[i+1]
			addr := (uint64(op>>2)<<8 | uint64(arg)) * LineBytes
			switch op & 3 {
			case 0, 1, 2:
				w.access(addr, op&3 == 1)
			case 3:
				w.resize(t, sizes[int(arg)%len(sizes)])
			}
			if d := tickTie(w.got); d != "" {
				t.Fatalf("op %d: %s", i/2, d)
			}
		}
	})
}

// TestResizeAllocs pins the resize's memory traffic: a same-size Resize
// allocates nothing, and once the scratch pool is warm a size change
// allocates only the new tag, LRU and dirty arrays.
func TestResizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c := fullCache(256 << 10)
	if n := testing.AllocsPerRun(20, func() { _ = c.Resize(256 << 10) }); n != 0 {
		t.Errorf("same-size Resize: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		_ = c.Resize(128 << 10)
		_ = c.Resize(256 << 10)
	}); n != 6 {
		t.Errorf("shrink+grow: %v allocs, want 6 (tag, LRU, dirty per resize)", n)
	}
}

// fullCache returns a 16-way LRU cache of the given size with every way of
// every set valid and about a quarter of the lines dirty.
func fullCache(size int64) *Cache {
	c := MustNew(Config{SizeBytes: size, Ways: 16})
	lines := uint64(size / LineBytes)
	for a := uint64(0); c.stats.Misses-c.stats.Evictions < lines; a += LineBytes {
		c.Access(a, a%(4*LineBytes) == 0)
	}
	return c
}

func benchmarkResize(b *testing.B, from, to int64) {
	src := fullCache(from)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := src.clone()
		b.StartTimer()
		if err := c.Resize(to); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResizeShrink halves a full 4 MB 16-way partition.
func BenchmarkResizeShrink(b *testing.B) { benchmarkResize(b, 4<<20, 2<<20) }

// BenchmarkResizeGrow doubles a full 2 MB 16-way partition.
func BenchmarkResizeGrow(b *testing.B) { benchmarkResize(b, 2<<20, 4<<20) }

// TestAccessAllocs pins the probe paths run per event at zero
// allocations: the L1s' and LLC's Cache.Access, ShadowSet.Access (every
// tag-only cache: the monitor's shadow arrays and filter L1, the study's
// L1 and nine LLC sizes, the TLB monitor), and the Lane adapter over it
// that perfbench's study re-drive runs.
func TestAccessAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	lane := MustNewLane(Config{SizeBytes: 2 << 20, Ways: 16})
	c := MustNew(Config{SizeBytes: 32 << 10, Ways: 8})
	shadows, err := NewShadowSet(monitorSizes, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for _, probe := range []struct {
		name string
		f    func()
	}{
		{"Lane.Access", func() { lane.Access(uint64(r.Int63n(16 << 20))) }},
		{"Cache.Access", func() { c.Access(uint64(r.Int63n(1<<20)), r.Intn(4) == 0) }},
		{"ShadowSet.Access", func() { shadows.Access(uint64(r.Int63n(16 << 20))) }},
	} {
		if n := testing.AllocsPerRun(1000, probe.f); n != 0 {
			t.Errorf("%s: %v allocs per access, want 0", probe.name, n)
		}
	}
}

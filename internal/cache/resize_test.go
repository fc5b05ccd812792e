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
	d.plru = slices.Clone(c.plru)
	return &d
}

// diffState describes the first difference between two caches' complete
// state (geometry, clock, counters, policy state and every line), or
// returns "" if they are identical.
func diffState(got, want *Cache) string {
	if got.ways != want.ways || got.sets != want.sets || got.modHi != want.modHi || got.modLo != want.modLo {
		return fmt.Sprintf("geometry %d sets x %d ways, want %d x %d", got.sets, got.ways, want.sets, want.ways)
	}
	if got.tick != want.tick || got.rng != want.rng || got.policy != want.policy {
		return fmt.Sprintf("tick/rng/policy %d/%d/%v, want %d/%d/%v",
			got.tick, got.rng, got.policy, want.tick, want.rng, want.policy)
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
	if !slices.Equal(got.plru, want.plru) {
		return "PLRU bits differ"
	}
	return ""
}

// twin drives two identical caches with the same traffic; got resizes with
// Resize and want with referenceResize.
type twin struct{ got, want *Cache }

func newTwin(cfg Config, p Policy) twin {
	c := MustNew(cfg)
	c.SetPolicy(p)
	return twin{got: c, want: c.clone()}
}

func (w twin) access(addr uint64, write bool) {
	w.got.Access(addr, write)
	w.want.Access(addr, write)
}

func (w twin) prefetch(addr uint64) {
	w.got.Prefetch(addr)
	w.want.Prefetch(addr)
}

// resize resizes both caches and fails t unless they agree afterwards.
func (w twin) resize(t testing.TB, size int64) {
	t.Helper()
	gotErr, wantErr := w.got.Resize(size), w.want.referenceResize(size)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("resize to %d: error %v, reference %v", size, gotErr, wantErr)
	}
	if d := diffState(w.got, w.want); d != "" {
		t.Fatalf("resize to %d: %s", size, d)
	}
}

// run applies n random accesses over a pool of span lines; a quarter are
// writes. With prefetch, each access is followed by a next-line Prefetch,
// the NextLinePrefetch pattern that gives two lines the same LRU tick, and
// now and then by a burst of prefetches that all share one tick.
func (w twin) run(rng *rand.Rand, n, span int, prefetch bool) {
	for i := 0; i < n; i++ {
		addr := uint64(rng.Intn(span)) * LineBytes
		w.access(addr, rng.Intn(4) == 0)
		if !prefetch {
			continue
		}
		w.prefetch(addr + LineBytes)
		if rng.Intn(64) == 0 {
			for j := 0; j < 8; j++ {
				w.prefetch(uint64(rng.Intn(span)) * LineBytes)
			}
		}
	}
}

// TestResizeMatchesReference: the bucketed Resize leaves every tag, LRU
// tick, dirty bit, PLRU bit and counter exactly where the original global
// sort-based Resize leaves them, for all three policies, with and without
// prefetch-made tick ties, through shrinks, grows and the non-power-of-two
// 3 MB and 6 MB partitions, and in a built case of tied lines (tieCase).
func TestResizeMatchesReference(t *testing.T) {
	paper := []int64{4 << 20, 2 << 20, 3 << 20, 6 << 20, 1 << 20, 128 << 10, 3 << 20}
	small := []int64{1 << 10, 3 << 10, 8 << 10, 2 << 10, 6 << 10, 4 << 10, 1 << 10}
	seeds := 40
	if testing.Short() {
		paper = paper[:5]
		seeds = 10
	}
	for _, p := range []Policy{LRU, TreePLRU, Random} {
		for _, prefetch := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/prefetch=%v", p, prefetch), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(p)*2 + 1))
				w := newTwin(Config{SizeBytes: 2 << 20, Ways: 16}, p)
				for _, size := range paper {
					lines := int(w.got.SizeBytes() / LineBytes)
					w.run(rng, 2*lines, 3*lines, prefetch)
					w.resize(t, size)
				}
				for seed := 0; seed < seeds; seed++ {
					w := newTwin(Config{SizeBytes: 4 << 10, Ways: 4}, p)
					for _, size := range small {
						w.run(rng, 200, 256, prefetch)
						w.resize(t, size)
					}
				}
			})
		}
		t.Run(fmt.Sprintf("%v/tie", p), func(t *testing.T) { tieCase(t, p) })
	}
}

// tieCase builds the case the tie rule exists for: eight prefetched lines
// share one LRU tick and one set of the new geometry, among thousands of
// other survivors, so a global sort reorders them the way only the
// fallback path reproduces. The order decides which way each tied line
// takes in its new set.
func tieCase(t *testing.T, p Policy) {
	const from, to = 256 << 10, 128 << 10
	rng := rand.New(rand.NewSource(11))
	w := newTwin(Config{SizeBytes: from, Ways: 16}, p)
	w.run(rng, 3*from/LineBytes, 2*from/LineBytes, false)
	probe := MustNew(Config{SizeBytes: to, Ways: 16})
	const target = 5
	var tied []uint64
	for line := uint64(1 << 30); len(tied) < 8; line++ {
		if probe.setIndex(line) == target {
			tied = append(tied, line)
			w.prefetch(line * LineBytes)
		}
	}
	for _, line := range tied {
		base := w.got.setIndex(line) * w.got.ways
		i := slices.Index(w.got.tags[base:base+w.got.ways], line+1)
		if i < 0 || w.got.lru[base+i] != w.got.tick-1 {
			t.Fatalf("prefetched line %#x not resident at tick %d", line, w.got.tick-1)
		}
	}
	w.resize(t, to)
}

// FuzzResize runs a byte-driven script of accesses, writes, prefetches and
// resizes on a small 4-way cache and checks the bucketed Resize against
// the reference after every resize. The first byte picks the policy; each
// following byte pair is one operation on one of 16,384 lines.
func FuzzResize(f *testing.F) {
	f.Add([]byte{0, 0, 1, 4, 2, 8, 3, 3, 1, 2, 5, 7, 0, 3, 1})
	f.Add([]byte{1, 2, 9, 2, 9, 2, 10, 0, 4, 3, 0, 1, 1, 3, 5})
	f.Add([]byte{2, 6, 200, 6, 201, 6, 202, 3, 2, 4, 7, 3, 6})
	sizes := []int64{1 << 10, 2 << 10, 3 << 10, 4 << 10, 6 << 10, 8 << 10}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 || len(script) > 1<<13 {
			return
		}
		w := newTwin(Config{SizeBytes: 4 << 10, Ways: 4}, Policy(script[0]%3))
		for i := 1; i+1 < len(script); i += 2 {
			op, arg := script[i], script[i+1]
			addr := (uint64(op>>2)<<8 | uint64(arg)) * LineBytes
			switch op & 3 {
			case 0, 1:
				w.access(addr, op&1 == 1)
			case 2:
				w.prefetch(addr)
			case 3:
				w.resize(t, sizes[int(arg)%len(sizes)])
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

// TestAccessAllocs pins the three probe paths the simulator runs per event
// at zero allocations: the study L1's Lane.Access, the L1s' and LLC's
// Cache.Access, and ShadowSet.Access (the monitor's, and the study's nine
// LLC sizes).
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

package cache

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// clone returns a deep copy of c.
func (c *Cache) clone() *Cache {
	d := *c
	d.tags = slices.Clone(c.tags)
	d.lru = slices.Clone(c.lru)
	d.spareTags, d.spareLRU = nil, nil
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
		if got.tags[i] != want.tags[i] || got.lru[i] != want.lru[i] {
			return fmt.Sprintf("slot %d (set %d way %d): tag/lru/dirty %d/%d/%v, want %d/%d/%v",
				i, i/want.ways, i%want.ways, got.tags[i]&^dirtyBit, got.lru[i], got.tags[i]&dirtyBit != 0,
				want.tags[i]&^dirtyBit, want.lru[i], want.tags[i]&dirtyBit != 0)
		}
	}
	return ""
}

// tickTie returns a description of two valid lines of c that hold the
// same LRU tick, or "" if every valid line's tick is its own. Resize's
// single bucketed path relies on this: with distinct ticks every bucket
// sorts strictly ascending, and no order among equals is left to decide.
func tickTie(c *Cache) string {
	seen := make(map[uint32]int)
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
// share an LRU tick. A first byte below 0x80 is ignored, so that the
// committed seeds keep their meaning; from 0x80 up, both clocks start
// script[0]−0x80 ticks short of the 32-bit wrap, so that the script runs
// through a renumbering. Each following byte pair is one operation on one
// of 16,384 lines.
func FuzzResize(f *testing.F) {
	f.Add([]byte{0, 0, 1, 4, 2, 8, 3, 3, 1, 2, 5, 7, 0, 3, 1})
	f.Add([]byte{1, 2, 9, 2, 9, 2, 10, 0, 4, 3, 0, 1, 1, 3, 5})
	f.Add([]byte{2, 6, 200, 6, 201, 6, 202, 3, 2, 4, 7, 3, 6})
	f.Add([]byte{0x85, 1, 1, 0, 17, 1, 33, 0, 49, 0, 1, 1, 65, 0, 2, 3, 0, 0, 81, 1, 17, 3, 3, 0, 1})
	sizes := []int64{1 << 10, 2 << 10, 3 << 10, 4 << 10, 6 << 10, 8 << 10}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 || len(script) > 1<<13 {
			return
		}
		w := newTwin(Config{SizeBytes: 4 << 10, Ways: 4})
		if script[0] >= 0x80 {
			w.got.tick = math.MaxUint32 - uint32(script[0]-0x80)
			w.want.tick = w.got.tick
		}
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
// allocates nothing, and neither does a size change once the scratch pool
// is warm and the cache has been at both sizes, because Resize reuses the
// tag and LRU arrays it replaced. Before it did, each resize allocated
// fresh tag, LRU and dirty arrays, and shrink+grow counted 6.
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
	}); n != 0 {
		t.Errorf("shrink+grow: %v allocs, want 0 (the replaced arrays are reused)", n)
	}
}

// TestRenumberMatchesUnwrapped forces the 32-bit LRU clock through its
// wrap. Two 16-way caches run one script of reads, writes and resizes
// through the paper's partition sizes: one clock starts at 0 and never
// wraps; the other starts 1,000 accesses short of 2^32 and is put that
// far short again before each later phase (moving a clock forward keeps
// every tick order), so it renumbers once per phase, on a full cache after
// the first. The two must agree on every tag and dirty bit, on every
// counter, and on the order of the ticks within every set. An access
// changes only its own set unless it renumbers, so that set is compared
// after every access, and every set after every resize and renumbering.
func TestRenumberMatchesUnwrapped(t *testing.T) {
	const short = 1000
	paper := []int64{4 << 20, 2 << 20, 3 << 20, 6 << 20, 1 << 20, 128 << 10, 3 << 20}
	if testing.Short() {
		paper = paper[:3]
	}
	rng := rand.New(rand.NewSource(3))
	plain := MustNew(Config{SizeBytes: 2 << 20, Ways: 16})
	wrapped := plain.clone()
	renumbers := 0
	for phase, size := range append(paper, 0) {
		wrapped.tick = math.MaxUint32 - short
		lines := int(plain.SizeBytes() / LineBytes)
		for i := 0; i < 2*lines; i++ {
			addr, write := uint64(rng.Intn(3*lines))*LineBytes, rng.Intn(4) == 0
			before := wrapped.tick
			if plain.Access(addr, write) != wrapped.Access(addr, write) {
				t.Fatalf("phase %d access %d: hit/miss differs", phase, i)
			}
			set := plain.setIndex(addr / LineBytes)
			if wrapped.tick < before {
				renumbers++
				set = -1
			}
			if d := sameOrder(wrapped, plain, set); d != "" {
				t.Fatalf("phase %d access %d: %s", phase, i, d)
			}
		}
		if size == 0 {
			break
		}
		if err := plain.Resize(size); err != nil {
			t.Fatal(err)
		}
		if err := wrapped.Resize(size); err != nil {
			t.Fatal(err)
		}
		if d := sameOrder(wrapped, plain, -1); d != "" {
			t.Fatalf("resize to %d: %s", size, d)
		}
		if d := tickTie(wrapped); d != "" {
			t.Fatalf("resize to %d: %s", size, d)
		}
	}
	if renumbers != len(paper)+1 {
		t.Errorf("%d renumberings, want one per phase (%d)", renumbers, len(paper)+1)
	}
}

// TestWayPartitionedRenumberMatchesUnwrapped runs one script of reads,
// writes and way regrants on two way-partitioned caches, one clock
// starting at 0 and one 1,000 accesses short of the 32-bit wrap. The
// renumbering must change no hit, miss, tag word (dirty bit included) or
// counter.
func TestWayPartitionedRenumberMatchesUnwrapped(t *testing.T) {
	plain, _ := NewWayPartitioned(Config{SizeBytes: 64 << 10, Ways: 16}, []int{8, 8})
	wrapped, _ := NewWayPartitioned(Config{SizeBytes: 64 << 10, Ways: 16}, []int{8, 8})
	wrapped.tick = math.MaxUint32 - 1000
	r := rand.New(rand.NewSource(9))
	grants := [][]int{{4, 12}, {12, 4}, {8, 8}}
	for i := 0; i < 6000; i++ {
		if i%1500 == 1499 {
			g := grants[(i/1500)%len(grants)]
			if plain.Resize(g) != nil || wrapped.Resize(g) != nil {
				t.Fatalf("regrant %v failed", g)
			}
			continue
		}
		d, addr, write := r.Intn(2), uint64(r.Intn(4096))*LineBytes, r.Intn(4) == 0
		if plain.Access(d, addr, write) != wrapped.Access(d, addr, write) {
			t.Fatalf("access %d: hit/miss differs", i)
		}
	}
	if wrapped.tick > 1<<20 {
		t.Fatalf("clock at %d: the wrapped cache never renumbered", wrapped.tick)
	}
	if !slices.Equal(plain.tags, wrapped.tags) || !slices.Equal(plain.stats, wrapped.stats) {
		t.Error("tag words or counters differ after the renumbering")
	}
}

// sameOrder describes the first difference between got and want in
// geometry, counters, tag words (dirty bits included) or the order of LRU
// ticks among a set's valid lines, looking at one set, or at every set
// when set is negative; it returns "" when there is none.
func sameOrder(got, want *Cache, set int) string {
	if got.sets != want.sets || got.ways != want.ways {
		return fmt.Sprintf("geometry %d sets x %d ways, want %d x %d", got.sets, got.ways, want.sets, want.ways)
	}
	if got.stats != want.stats {
		return fmt.Sprintf("stats %+v, want %+v", got.stats, want.stats)
	}
	lo, hi := 0, want.sets
	if set >= 0 {
		lo, hi = set, set+1
	}
	for s := lo; s < hi; s++ {
		base := s * want.ways
		for i := base; i < base+want.ways; i++ {
			if got.tags[i] != want.tags[i] {
				return fmt.Sprintf("set %d way %d: tag word %#x, want %#x", s, i-base, got.tags[i], want.tags[i])
			}
			for j := base; j < i && want.tags[i] != 0; j++ {
				if want.tags[j] != 0 && (got.lru[j] < got.lru[i]) != (want.lru[j] < want.lru[i]) {
					return fmt.Sprintf("set %d: ways %d and %d hold ticks %d, %d, want %d, %d",
						s, j-base, i-base, got.lru[j], got.lru[i], want.lru[j], want.lru[i])
				}
			}
		}
	}
	return ""
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

package cache

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func small() *Cache {
	// 4 sets x 2 ways x 64 B = 512 B.
	return MustNew(Config{SizeBytes: 512, Ways: 2})
}

func TestConfigSetsAndValidate(t *testing.T) {
	cfg := Config{SizeBytes: 2 << 20, Ways: 16}
	if got := cfg.Sets(); got != 2048 {
		t.Errorf("2MB/16-way sets = %d, want 2048", got)
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
	for _, bad := range []Config{
		{SizeBytes: 0, Ways: 16},
		{SizeBytes: 1000, Ways: 16}, // not a multiple of way capacity
		{SizeBytes: 1 << 20, Ways: 0},
		{SizeBytes: -64, Ways: 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
	// Table 3 geometries must all validate.
	for _, kb := range []int64{128, 256, 512, 1024, 2048, 3072, 4096, 6144, 8192} {
		cfg := Config{SizeBytes: kb << 10, Ways: 16}
		if err := cfg.Validate(); err != nil {
			t.Errorf("supported size %dkB: %v", kb, err)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	c := small()
	if c.Access(0x1000, false) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000, false) {
		t.Error("second access missed")
	}
	if !c.Access(0x103F, false) {
		t.Error("same-line access missed")
	}
	if c.Access(0x1040, false) {
		t.Error("next-line access hit")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats = %+v, want 2 hits 2 misses", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	// Find three addresses in the same set.
	var sameSet []uint64
	set0 := c.setIndex(0x1000 / LineBytes)
	for a := uint64(0x1000); len(sameSet) < 3; a += LineBytes {
		if c.setIndex(a/LineBytes) == set0 {
			sameSet = append(sameSet, a)
		}
	}
	a, b, d := sameSet[0], sameSet[1], sameSet[2]
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU, b is LRU
	c.Access(d, false) // evicts b
	if !c.Contains(a) {
		t.Error("MRU line evicted")
	}
	if c.Contains(b) {
		t.Error("LRU line survived")
	}
	if !c.Contains(d) {
		t.Error("inserted line missing")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := small()
	set0 := c.setIndex(0)
	var sameSet []uint64
	for a := uint64(0); len(sameSet) < 3; a += LineBytes {
		if c.setIndex(a/LineBytes) == set0 {
			sameSet = append(sameSet, a)
		}
	}
	c.Access(sameSet[0], true) // dirty
	c.Access(sameSet[1], false)
	c.Access(sameSet[2], false) // evicts dirty sameSet[0]
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestFlush(t *testing.T) {
	c := small()
	c.Access(0x40, true)
	c.Access(0x80, false)
	c.Flush()
	if c.ValidLines() != 0 {
		t.Error("flush left valid lines")
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1 (one dirty line)", c.Stats().Writebacks)
	}
}

func TestResizeNoopKeepsContents(t *testing.T) {
	c := MustNew(Config{SizeBytes: 128 << 10, Ways: 16})
	for a := uint64(0); a < 64<<10; a += LineBytes {
		c.Access(a, false)
	}
	before := c.ValidLines()
	if err := c.Resize(128 << 10); err != nil {
		t.Fatal(err)
	}
	if c.ValidLines() != before {
		t.Error("no-op resize changed contents")
	}
}

func TestResizeGrowPreservesLines(t *testing.T) {
	c := MustNew(Config{SizeBytes: 128 << 10, Ways: 16})
	var addrs []uint64
	for a := uint64(0); a < 64<<10; a += LineBytes {
		c.Access(a, false)
		addrs = append(addrs, a)
	}
	if err := c.Resize(512 << 10); err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		if !c.Contains(a) {
			t.Fatalf("line %#x lost on grow", a)
		}
	}
	if c.Sets() != (Config{SizeBytes: 512 << 10, Ways: 16}).Sets() {
		t.Error("set count not updated")
	}
}

func TestResizeShrinkBoundsCapacityAndPrefersRecent(t *testing.T) {
	c := MustNew(Config{SizeBytes: 512 << 10, Ways: 16})
	// Fill well beyond the shrink target.
	for a := uint64(0); a < 512<<10; a += LineBytes {
		c.Access(a, false)
	}
	if err := c.Resize(128 << 10); err != nil {
		t.Fatal(err)
	}
	maxLines := int((128 << 10) / LineBytes)
	if got := c.ValidLines(); got > maxLines {
		t.Errorf("valid lines %d exceed shrunk capacity %d", got, maxLines)
	}
}

func TestResizeRejectsInvalid(t *testing.T) {
	c := small()
	if err := c.Resize(0); err == nil {
		t.Error("resize to 0 accepted")
	}
	if err := c.Resize(100); err == nil {
		t.Error("resize to non-multiple accepted")
	}
}

func TestResizeNonPowerOfTwoSizes(t *testing.T) {
	// 3MB and 6MB are supported sizes that are not powers of two.
	c := MustNew(Config{SizeBytes: 3 << 20, Ways: 16})
	for a := uint64(0); a < 1<<20; a += LineBytes {
		c.Access(a, false)
	}
	if err := c.Resize(6 << 20); err != nil {
		t.Fatal(err)
	}
	if err := c.Resize(128 << 10); err != nil {
		t.Fatal(err)
	}
	if got, max := c.ValidLines(), (128<<10)/LineBytes; got > max {
		t.Errorf("lines %d exceed capacity %d", got, max)
	}
}

func TestStatsAddAndRates(t *testing.T) {
	var s Stats
	s.Add(Stats{Hits: 3, Misses: 1, Evictions: 1, Writebacks: 1})
	s.Add(Stats{Hits: 1, Misses: 3})
	if s.Accesses() != 8 {
		t.Errorf("accesses = %d, want 8", s.Accesses())
	}
	if s.HitRate() != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", s.HitRate())
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("empty hit rate should be 0")
	}
}

func TestWorkingSetFitsAfterWarmup(t *testing.T) {
	// A working set smaller than the cache must reach a 100% steady-state
	// hit rate — the property the LLC-sensitivity study depends on.
	c := MustNew(Config{SizeBytes: 256 << 10, Ways: 16})
	ws := uint64(128 << 10)
	for a := uint64(0); a < ws; a += LineBytes {
		c.Access(a, false)
	}
	c.ResetStats()
	for pass := 0; pass < 3; pass++ {
		for a := uint64(0); a < ws; a += LineBytes {
			c.Access(a, false)
		}
	}
	if hr := c.Stats().HitRate(); hr != 1 {
		t.Errorf("steady-state hit rate = %v, want 1", hr)
	}
}

func TestPropertyValidLinesNeverExceedCapacity(t *testing.T) {
	f := func(seed int64, ops uint16) bool {
		c := MustNew(Config{SizeBytes: 8 << 10, Ways: 4})
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < int(ops)%2000; i++ {
			c.Access(uint64(r.Intn(1<<16))*8, r.Intn(4) == 0)
		}
		return c.ValidLines() <= c.Sets()*c.Ways()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyAccessAfterAccessHits(t *testing.T) {
	// Immediately re-accessing an address always hits (LRU makes the line
	// MRU, so it cannot have been evicted).
	f := func(seed int64) bool {
		c := MustNew(Config{SizeBytes: 4 << 10, Ways: 2})
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			a := uint64(r.Intn(1 << 14))
			c.Access(a, false)
			if !c.Access(a, false) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyResizeRoundTripKeepsInvariants(t *testing.T) {
	sizes := []int64{128 << 10, 256 << 10, 512 << 10, 1 << 20, 3 << 20}
	f := func(seed int64, steps uint8) bool {
		c := MustNew(Config{SizeBytes: 512 << 10, Ways: 16})
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < int(steps)%12; i++ {
			for j := 0; j < 300; j++ {
				c.Access(uint64(r.Intn(1<<22)), r.Intn(8) == 0)
			}
			if err := c.Resize(sizes[r.Intn(len(sizes))]); err != nil {
				return false
			}
			if c.ValidLines() > c.Sets()*c.Ways() {
				return false
			}
			// Every resident line must still be findable via Access (hit).
			// Sample a few random probes for liveness of the structure.
			for j := 0; j < 50; j++ {
				a := uint64(r.Intn(1 << 22))
				if c.Contains(a) && !c.Access(a, false) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAccessHot(b *testing.B) {
	c := MustNew(Config{SizeBytes: 2 << 20, Ways: 16})
	for i := 0; b.Loop(); i++ {
		c.Access(uint64(i%1024)*LineBytes, false)
	}
}

func BenchmarkAccessStreaming(b *testing.B) {
	c := MustNew(Config{SizeBytes: 2 << 20, Ways: 16})
	for i := 0; b.Loop(); i++ {
		c.Access(uint64(i)*LineBytes, false)
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Hits: 10, Misses: 5, Evictions: 3, Writebacks: 2}
	a.Sub(Stats{Hits: 4, Misses: 1, Evictions: 1, Writebacks: 1})
	if a != (Stats{Hits: 6, Misses: 4, Evictions: 2, Writebacks: 1}) {
		t.Errorf("Sub = %+v", a)
	}
}

// reachableSets enumerates every set count the simulator can configure: the
// 9 Table-3 LLC partition sizes at 16 ways, the L1 geometries, and the
// monitor's sampled shadow sizes, plus adversarial small counts.
func reachableSets(t *testing.T) []uint64 {
	t.Helper()
	var sets []uint64
	for _, kb := range []int64{128, 256, 512, 1024, 2048, 3072, 4096, 6144, 8192} {
		cfg := Config{SizeBytes: kb << 10, Ways: 16}
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		sets = append(sets, uint64(cfg.Sets()))
	}
	// L1 (32kB/8-way), shadow arrays (down-sampled partitions), tiny caches.
	for _, s := range []uint64{1, 2, 3, 4, 8, 64, 96, 512} {
		sets = append(sets, s)
	}
	return sets
}

func TestFastmodAgreesWithModulo(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, d := range reachableSets(t) {
		mHi, mLo := reciprocal(d)
		// Edge operands plus a random spray of full-width line-address hashes.
		xs := []uint64{0, 1, d - 1, d, d + 1, ^uint64(0), ^uint64(0) - 1, 1 << 63}
		for i := 0; i < 5000; i++ {
			xs = append(xs, r.Uint64())
		}
		for _, x := range xs {
			if got, want := fastmod(x, mHi, mLo, d), x%d; got != want {
				t.Fatalf("fastmod(%#x, d=%d) = %d, want %d", x, d, got, want)
			}
		}
	}
}

func TestSetIndexMatchesModuloThroughResizes(t *testing.T) {
	// The property the simulator actually relies on: after any Resize chain,
	// setIndex still equals the mixed hash reduced by % over the live set
	// count — i.e. the reciprocal is recomputed, never stale.
	c := MustNew(Config{SizeBytes: 2 << 20, Ways: 16})
	r := rand.New(rand.NewSource(7))
	sizes := []int64{128 << 10, 3 << 20, 8 << 20, 256 << 10, 6 << 20, 1 << 20}
	for _, size := range sizes {
		if err := c.Resize(size); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			lineAddr := r.Uint64() >> 6
			h := lineAddr * 0x9E3779B97F4A7C15
			h ^= h >> 32
			if got, want := c.setIndex(lineAddr), int(h%uint64(c.sets)); got != want {
				t.Fatalf("after Resize(%d): setIndex(%#x) = %d, want %d", size, lineAddr, got, want)
			}
		}
	}
}

func TestResizeThenAccessRegression(t *testing.T) {
	// Regression for the reciprocal lifecycle: grow and shrink across
	// non-power-of-two sizes, then verify accesses behave (hit after miss,
	// capacity bounded, Contains consistent with Access).
	c := MustNew(Config{SizeBytes: 512 << 10, Ways: 16})
	r := rand.New(rand.NewSource(11))
	addrs := make([]uint64, 400)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(1 << 24))
	}
	for _, size := range []int64{3 << 20, 128 << 10, 6 << 20, 256 << 10, 8 << 20} {
		if err := c.Resize(size); err != nil {
			t.Fatal(err)
		}
		for _, a := range addrs {
			c.Access(a, false)
			if !c.Access(a, false) {
				t.Fatalf("size %d: immediate re-access of %#x missed", size, a)
			}
			if !c.Contains(a) {
				t.Fatalf("size %d: Contains(%#x) false right after hit", size, a)
			}
		}
		if got, max := c.ValidLines(), c.Sets()*c.Ways(); got > max {
			t.Fatalf("size %d: %d valid lines exceed capacity %d", size, got, max)
		}
	}
}

func BenchmarkSetIndex(b *testing.B) {
	c := MustNew(Config{SizeBytes: 3 << 20, Ways: 16}) // non-power-of-two sets
	var sink int
	for i := 0; b.Loop(); i++ {
		sink = c.setIndex(uint64(i) * 977)
	}
	_ = sink
}

// TestWarmChangesNothing pins Warm and ShadowSet.Warm as pure hints: after
// any number of them, every array, clock and counter is as before.
func TestWarmChangesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	c := MustNew(Config{SizeBytes: 64 << 10, Ways: 16})
	s, err := NewShadowSet(monitorSizes, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	addr := func() uint64 { return uint64(r.Intn(1<<22)) * LineBytes }
	for i := 0; i < 20000; i++ {
		a := addr()
		c.Access(a, i%3 == 0)
		s.Access(a)
	}
	tags, lru, tick, stats := slices.Clone(c.tags), slices.Clone(c.lru), c.tick, c.Stats()
	shadow := make([][]uint64, len(s.arrays))
	for i := range s.arrays {
		shadow[i] = slices.Clone(s.arrays[i].tags)
	}
	for i := 0; i < 20000; i++ {
		a := addr()
		c.Warm(a)
		s.Warm(a)
	}
	if !slices.Equal(c.tags, tags) || !slices.Equal(c.lru, lru) || c.tick != tick || c.Stats() != stats {
		t.Error("Cache.Warm changed the cache")
	}
	for i := range s.arrays {
		if !slices.Equal(s.arrays[i].tags, shadow[i]) {
			t.Errorf("ShadowSet.Warm changed shadow array %d", i)
		}
	}
}

// TestDirtyLineIsTheSameLine: the dirty bit that a write folds into a
// line's tag word changes nothing but the writeback count. Every line of
// one cache is written and every line of its clean twin only read; the
// written lines are still found by Contains and counted by ValidLines,
// rehash through each Resize to the same set and way as their clean
// twins, and each counts one writeback when it is evicted and when it is
// flushed.
func TestDirtyLineIsTheSameLine(t *testing.T) {
	cfg := Config{SizeBytes: 8 << 10, Ways: 4}
	dirty, clean := MustNew(cfg), MustNew(cfg)
	var addrs []uint64
	for a := uint64(0); a < 64*LineBytes; a += LineBytes {
		dirty.Access(a, true)
		clean.Access(a, false)
		addrs = append(addrs, a)
	}
	check := func(when string) {
		t.Helper()
		for i, tag := range dirty.tags {
			if tag != 0 && tag&^dirtyBit <= uint64(len(addrs)) && tag&dirtyBit == 0 {
				t.Fatalf("%s: slot %d holds a written line without its dirty bit", when, i)
			}
			if tag&^dirtyBit != clean.tags[i] || dirty.lru[i] != clean.lru[i] {
				t.Fatalf("%s: slot %d holds tag %#x tick %d, clean twin %#x tick %d",
					when, i, tag&^dirtyBit, dirty.lru[i], clean.tags[i], clean.lru[i])
			}
		}
		if dirty.ValidLines() != clean.ValidLines() {
			t.Fatalf("%s: %d valid lines, clean twin %d", when, dirty.ValidLines(), clean.ValidLines())
		}
		for _, a := range addrs {
			if dirty.Contains(a) != clean.Contains(a) {
				t.Fatalf("%s: Contains(%#x) = %v, clean twin %v", when, a, dirty.Contains(a), clean.Contains(a))
			}
		}
	}
	check("filled")
	if n := dirty.ValidLines(); n != len(addrs) {
		t.Fatalf("%d valid lines, want %d", n, len(addrs))
	}
	for _, size := range []int64{16 << 10, 3 << 10, 1 << 10, 8 << 10} {
		if err := dirty.Resize(size); err != nil {
			t.Fatal(err)
		}
		if err := clean.Resize(size); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("resized to %d", size))
		if d, c := dirty.Stats(), clean.Stats(); d.Writebacks != uint64(len(addrs)-dirty.ValidLines()) || c.Writebacks != 0 {
			t.Fatalf("resized to %d: %d and %d writebacks, want one per dropped written line (%d) and 0",
				size, d.Writebacks, c.Writebacks, len(addrs)-dirty.ValidLines())
		}
	}
	resident := func() (n int) {
		for _, a := range addrs {
			if dirty.Contains(a) {
				n++
			}
		}
		return n
	}
	written, before := resident(), dirty.Stats()
	for a := uint64(1 << 20); resident() > 0; a += LineBytes {
		dirty.Access(a, false)
		clean.Access(a, false)
	}
	check("after evictions")
	if got := dirty.Stats().Writebacks - before.Writebacks; got != uint64(written) {
		t.Errorf("%d writebacks for the eviction of %d written lines", got, written)
	}
	if clean.Stats().Writebacks != 0 {
		t.Errorf("clean twin counted %d writebacks", clean.Stats().Writebacks)
	}
	dirty.Access(0, true)
	before = dirty.Stats()
	dirty.Flush()
	if got := dirty.Stats().Writebacks - before.Writebacks; got != 1 {
		t.Errorf("Flush of one written line counted %d writebacks, want 1", got)
	}
}

// TestLineFootprint pins the line format: a 16 MB, 16-way cache, the
// paper's LLC, keeps 12 B per line (an 8 B tag word that carries the
// dirty bit and a 4 B LRU tick), 3,145,728 B of tag and tick state, and
// that New allocates less than one byte per line besides.
func TestLineFootprint(t *testing.T) {
	const want = 3_145_728
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := MustNew(Config{SizeBytes: 16 << 20, Ways: 16})
	runtime.ReadMemStats(&after)
	lines := c.Sets() * c.Ways()
	state := cap(c.tags)*int(unsafe.Sizeof(c.tags[0])) + cap(c.lru)*int(unsafe.Sizeof(c.lru[0]))
	if lines != 262_144 || state != want {
		t.Fatalf("%d lines hold %d B of tag and tick state, want 262,144 lines and %d B", lines, state, want)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got < want || got >= want+uint64(lines) {
		t.Errorf("New allocated %d B, want the %d B of line state and under %d B more", got, want, lines)
	}
}

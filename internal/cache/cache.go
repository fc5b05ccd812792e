// Package cache implements the set-associative cache models used by the
// simulator: the private L1s, the set-partitioned shared LLC of Section 8,
// and the resize semantics that dynamic partitioning relies on.
//
// Partitioning follows the paper's evaluation: the LLC is set-partitioned
// (following Bespoke/Chunked-cache-style designs [15, 37, 46]), so a domain's
// partition is an independent region of sets and resizing changes the number
// of sets a domain owns. Lines are remapped on resize in one bucketed pass:
// every valid line is hashed to its set in the new geometry, the lines are
// grouped by new set (a histogram and a scatter, as in radix partitioning),
// each small group is sorted oldest-first, and each group is reinserted
// into its set. When a set receives more lines than it has ways, the most
// recently used lines stay and the dropped dirty ones count as writebacks.
//
// The package also holds the utility monitor's shadow-tag arrays
// (ShadowSet, in shadow.go): tag-only, recency-ordered arrays with none of
// Cache's statistics, LRU ticks or dirty bits.
//
// Access is the simulator's hottest Cache method (every simulated memory
// reference passes through an L1, and often an LLC partition), so its
// state is laid out for the scan, not the object model: 12 B per line in
// two packed arrays, the tag words (scanned 8 per host cache line, each
// carrying its line's dirty bit) and the 32-bit LRU ticks (written only on
// the way the access uses); the set index uses a precomputed Lemire
// reciprocal instead of a hardware divide.
package cache

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"untangle/internal/telemetry"
)

// LineBytes is the line size used throughout the simulated hierarchy
// (Table 3: 64 B lines everywhere).
const LineBytes = 64

// Config describes a cache geometry.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int64
	// Ways is the associativity.
	Ways int
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int {
	if c.Ways <= 0 {
		return 0
	}
	return int(c.SizeBytes / int64(LineBytes*c.Ways))
}

// Validate checks the geometry is realizable.
func (c Config) Validate() error {
	if c.Ways <= 0 {
		return fmt.Errorf("cache: ways = %d", c.Ways)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%int64(LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache: size %d not a multiple of way capacity %d", c.SizeBytes, LineBytes*c.Ways)
	}
	return nil
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// Accesses returns total accesses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// HitRate returns the hit fraction, or 0 with no accesses.
func (s Stats) HitRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Hits) / float64(a)
	}
	return 0
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Evictions += other.Evictions
	s.Writebacks += other.Writebacks
}

// Sub subtracts a baseline snapshot from s (interval statistics).
func (s *Stats) Sub(base Stats) {
	s.Hits -= base.Hits
	s.Misses -= base.Misses
	s.Evictions -= base.Evictions
	s.Writebacks -= base.Writebacks
}

// Cache is a set-associative, true-LRU, write-back cache with a resizable
// number of sets. Lines enter only on demand misses (write-allocate); the
// paper's machine has no prefetcher.
//
// State is laid out structure-of-arrays, 12 B per line: tags holds
// lineAddr+1 for valid lines (0 = invalid), so the scan needs no separate
// valid bit, with the write-back flag in bit 63 (dirtyBit), and lru holds
// the per-line 32-bit LRU tick, read only to choose a victim. Both are
// sets*ways, set-major, and each scan — tag match, LRU victim — walks one
// packed array: 8 tags or 16 ticks per host cache line.
type Cache struct {
	ways int
	sets int
	tags []uint64
	lru  []uint32
	// spareTags/spareLRU are the arrays the last Resize replaced; the next
	// Resize clears and reuses them when they are large enough, so resizing
	// back and forth between two sizes allocates nothing.
	spareTags []uint64
	spareLRU  []uint32
	// modHi/modLo form the 128-bit Lemire reciprocal ceil(2^128/sets),
	// recomputed on Resize; setIndex uses it to replace the % divide.
	modHi, modLo uint64
	tick         uint32
	stats        Stats
}

// dirtyBit marks a valid line's tag word as written since it was filled.
// A tag is lineAddr+1 <= 2^58 for any 64-bit address, so bit 63 is free.
const dirtyBit = 1 << 63

// New builds a cache with the given geometry.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{ways: cfg.Ways, sets: cfg.Sets()}
	c.tags = make([]uint64, c.sets*c.ways)
	c.lru = make([]uint32, c.sets*c.ways)
	c.modHi, c.modLo = reciprocal(uint64(c.sets))
	return c, nil
}

// MustNew builds a cache and panics on invalid geometry. For tests and
// static tables whose configs are compile-time constants.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Sets returns the current number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SizeBytes returns the current capacity.
func (c *Cache) SizeBytes() int64 { return int64(c.sets) * int64(c.ways) * LineBytes }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters (used after warmup).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// RegisterMetrics exposes the cache's hit/miss/eviction counters and
// current geometry on a telemetry registry under prefix, as
// lazily-evaluated gauges: Access stays untouched and the counters are
// read only when the registry snapshots (after the run, or at another
// quiescent point).
func (c *Cache) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.GaugeFunc(prefix+".hits", func() float64 { return float64(c.stats.Hits) })
	reg.GaugeFunc(prefix+".misses", func() float64 { return float64(c.stats.Misses) })
	reg.GaugeFunc(prefix+".evictions", func() float64 { return float64(c.stats.Evictions) })
	reg.GaugeFunc(prefix+".writebacks", func() float64 { return float64(c.stats.Writebacks) })
	reg.GaugeFunc(prefix+".size_bytes", func() float64 { return float64(c.SizeBytes()) })
}

// reciprocal computes ceil(2^128/d) as a 128-bit value (hi, lo). With it,
// fastmod reduces any 64-bit value mod d without a divide. d == 1 wraps to
// (0, 0), for which fastmod correctly yields 0 everywhere.
func reciprocal(d uint64) (hi, lo uint64) {
	// floor((2^128 - 1) / d) by schoolbook two-word division, then + 1.
	hi = ^uint64(0) / d
	rem := ^uint64(0) % d
	lo, _ = bits.Div64(rem, ^uint64(0), d)
	lo++
	if lo == 0 {
		hi++
	}
	return hi, lo
}

// fastmod returns x % d given the precomputed reciprocal (mHi, mLo) for d.
// This is the 64-bit variant of Lemire/Kaser/Kurz "Faster Remainder by
// Direct Computation": frac = x * ceil(2^128/d) mod 2^128, result =
// floor(frac * d / 2^128). Exact for every x and every d >= 1 (the error
// term e*x with e < d stays below 2^128), three multiplies instead of a
// 20-40 cycle hardware divide.
func fastmod(x, mHi, mLo, d uint64) uint64 {
	fracHi, fracLo := bits.Mul64(mLo, x)
	fracHi += mHi * x
	aHi, _ := bits.Mul64(fracLo, d)
	bHi, bLo := bits.Mul64(fracHi, d)
	_, carry := bits.Add64(aHi, bLo, 0)
	return bHi + carry
}

// setHash mixes the upper bits of a line address into its set index, so
// strided patterns spread across sets the way physical indexing does. The
// mix must be consistent across resizes only in that it is a pure function
// of the line address.
func setHash(lineAddr uint64) uint64 {
	h := lineAddr * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// setIndex maps a line address to its set.
func (c *Cache) setIndex(lineAddr uint64) int {
	return int(fastmod(setHash(lineAddr), c.modHi, c.modLo, uint64(c.sets)))
}

// Access performs a load or store of the line containing addr. It returns
// true on hit. Misses allocate (write-allocate) and evict the least
// recently used line.
//
// The way scan reads only the packed tag array; the LRU tick is written
// after the scan, on the single way involved, and the ticks are read only
// when a miss finds no empty way.
func (c *Cache) Access(addr uint64, write bool) bool {
	lineAddr := addr / LineBytes
	set := c.setIndex(lineAddr)
	base := set * c.ways
	tags := c.tags[base : base+c.ways]
	tag := lineAddr + 1
	if c.tick == math.MaxUint32 {
		c.tick = renumber(c.tags, c.lru)
	}
	c.tick++
	hit, empty := -1, -1
	for i, t := range tags {
		if t&^dirtyBit == tag {
			hit = i
			break
		}
		if t == 0 && empty < 0 {
			empty = i
		}
	}
	if hit >= 0 {
		c.lru[base+hit] = c.tick
		if write {
			tags[hit] |= dirtyBit
		}
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	slot := empty
	if slot < 0 {
		slot = c.lruVictim(base)
		c.stats.Evictions++
		if tags[slot]&dirtyBit != 0 {
			c.stats.Writebacks++
		}
	}
	if write {
		tag |= dirtyBit
	}
	tags[slot] = tag
	c.lru[base+slot] = c.tick
	return false
}

// lruVictim returns the way of the set at base that holds the smallest LRU
// tick. It stays out of line: inlined into Access, it made
// BenchmarkAccessStreaming, where every access evicts, about 9% slower
// (docs/PERFORMANCE.md).
//
//go:noinline
func (c *Cache) lruVictim(base int) int {
	victim, oldest := 0, uint32(math.MaxUint32)
	for i, v := range c.lru[base : base+c.ways] {
		if v < oldest {
			oldest = v
			victim = i
		}
	}
	return victim
}

// renumber restamps the valid lines' LRU ticks 1..n in their existing
// order and returns n, the clock to continue from. Cache.Access and
// WayPartitioned.Access call it when their 32-bit clock would wrap. Only
// the order of ticks is ever read (a victim is the smallest tick among
// its candidates, and a resize orders lines by tick), so no later hit,
// miss, victim or resize placement changes. Valid lines hold distinct
// ticks, so the order is total.
func renumber(tags []uint64, lru []uint32) uint32 {
	sc := resizePool.Get().(*resizeScratch)
	defer resizePool.Put(sc)
	keys := sc.keys[:0]
	for i, t := range tags {
		if t != 0 {
			keys = append(keys, resizeKey{tick: lru[i], slot: uint32(i)})
		}
	}
	slices.SortFunc(keys, func(a, b resizeKey) int { return cmp.Compare(a.tick, b.tick) })
	for i, k := range keys {
		lru[k.slot] = uint32(i + 1)
	}
	sc.keys = keys
	return uint32(len(keys))
}

// Warm asks the host to load the set that holds addr's line, tags and LRU
// ticks, without changing any state, so that a later Access finds it in
// the host's caches. It prefetches the lines holding the set's first and
// last tag and its first tick: for the 16-way LLC, both tag lines and the
// one 64 B tick row.
func (c *Cache) Warm(addr uint64) {
	base := c.setIndex(addr/LineBytes) * c.ways
	lines := [3]uintptr{
		uintptr(unsafe.Pointer(&c.tags[base])),
		uintptr(unsafe.Pointer(&c.tags[base+c.ways-1])),
		uintptr(unsafe.Pointer(&c.lru[base])),
	}
	prefetchLines(lines[:])
}

// Contains reports whether the line holding addr is present, without
// touching LRU state or statistics (a "probe" for tests and attackers).
func (c *Cache) Contains(addr uint64) bool {
	lineAddr := addr / LineBytes
	base := c.setIndex(lineAddr) * c.ways
	tag := lineAddr + 1
	for _, t := range c.tags[base : base+c.ways] {
		if t&^dirtyBit == tag {
			return true
		}
	}
	return false
}

// ValidLines returns the number of valid lines (for invariant checks).
func (c *Cache) ValidLines() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}

// Reset returns the cache to its freshly-constructed state at the current
// geometry: all lines invalid and the LRU clock and statistics zeroed.
// Unlike Flush it counts nothing — it exists so long-running studies
// can reuse one allocation across independent runs, and the contract is that
// a Reset cache behaves bit-identically to a new one.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.lru)
	c.tick = 0
	c.stats = Stats{}
}

// Flush invalidates everything, counting writebacks for dirty lines.
func (c *Cache) Flush() {
	for _, t := range c.tags {
		if t&dirtyBit != 0 {
			c.stats.Writebacks++
		}
	}
	clear(c.tags)
	clear(c.lru)
}

// Resize changes the number of sets to match newSize, preserving lines
// whose new set has room. Resizing to the current size is a no-op so
// Maintain actions cost nothing.
//
// The survivors are reinserted as if one by one, oldest first: a line
// fills the first empty way of its new set, or, in a full set, replaces
// the least recently used occupant if that occupant is strictly older. A
// line that does not fit is dropped, and each dropped dirty line counts as
// a writeback. A line's dirty bit travels with its tag word.
//
// No sort runs over the whole partition. A histogram pass hashes each
// valid line once, keeping its new set, and counts the lines per new set;
// a scatter groups their (LRU tick, old slot) keys into one bucket per new
// set; and each bucket is insertion-sorted by tick. Insertions into
// different sets never interact, and within a set a strictly ascending
// bucket of b lines leaves line k at way k mod ways with the first
// b−ways lines dropped, so placeBucket writes that state directly.
//
// Every bucket is strictly ascending because no two valid lines share an
// LRU tick: Access stamps the one line it touches with a fresh tick,
// Resize moves ticks without changing them, renumber keeps them distinct,
// and Flush and Reset invalidate every line.
//
// The new arrays are the ones the previous size change replaced, cleared,
// when they are large enough; the replaced arrays become the next spares.
func (c *Cache) Resize(newSize int64) error {
	cfg := Config{SizeBytes: newSize, Ways: c.ways}
	if err := cfg.Validate(); err != nil {
		return err
	}
	newSets := cfg.Sets()
	if newSets == c.sets {
		return nil
	}
	oldTags, oldLRU := c.tags, c.lru
	c.sets = newSets
	c.modHi, c.modLo = reciprocal(uint64(newSets))
	c.tags = grow(c.spareTags, newSets*c.ways)
	c.lru = grow(c.spareLRU, newSets*c.ways)
	clear(c.tags)
	clear(c.lru)
	c.spareTags, c.spareLRU = oldTags, oldLRU

	sc := resizePool.Get().(*resizeScratch)
	defer resizePool.Put(sc)
	// Histogram: sets[i] is old slot i's new set, end[s+1] counts the lines
	// bound for new set s.
	end := grow(sc.end, newSets+1)
	clear(end)
	sets := grow(sc.sets, len(oldTags))
	n := 0
	for i, t := range oldTags {
		if t != 0 {
			s := uint32(c.setIndex(t&^dirtyBit - 1))
			sets[i] = s
			end[s+1]++
			n++
		}
	}
	for s := 1; s <= newSets; s++ {
		end[s] += end[s-1]
	}
	// Scatter: end[s] walks bucket s and finishes at its end, which is
	// where bucket s+1 begins.
	keys := grow(sc.keys, n)
	for i, t := range oldTags {
		if t != 0 {
			s := sets[i]
			keys[end[s]] = resizeKey{tick: oldLRU[i], slot: uint32(i)}
			end[s]++
		}
	}
	sc.keys, sc.end, sc.sets = keys, end, sets

	for s, lo := 0, uint32(0); s < newSets; s++ {
		b := keys[lo:end[s]]
		lo = end[s]
		sortByTick(b)
		c.placeBucket(s, b, oldTags)
	}
	return nil
}

// sortByTick insertion-sorts a bucket by LRU tick.
func sortByTick(b []resizeKey) {
	for i := 1; i < len(b); i++ {
		k := b[i]
		j := i
		for j > 0 && b[j-1].tick > k.tick {
			b[j] = b[j-1]
			j--
		}
		b[j] = k
	}
}

// placeBucket installs new set s's strictly ascending bucket b: line k at
// way k mod ways, which leaves the last ways lines, and a writeback for
// each dirty line among the first len(b)−ways, which the later ones
// displace.
func (c *Cache) placeBucket(s int, b []resizeKey, oldTags []uint64) {
	drop := max(0, len(b)-c.ways)
	for _, k := range b[:drop] {
		if oldTags[k.slot]&dirtyBit != 0 {
			c.stats.Writebacks++
		}
	}
	base := s * c.ways
	for k := drop; k < len(b); k++ {
		way := base + k%c.ways
		c.tags[way], c.lru[way] = oldTags[b[k].slot], b[k].tick
	}
}

// resizeKey is one valid line's ordering key, for Resize and renumber: its
// LRU tick and its slot in the arrays being read.
type resizeKey struct {
	tick uint32
	slot uint32
}

// resizeScratch holds one Resize's transient buffers: the keys (8 B per
// valid line), the per-new-set bucket ends (4 B per set) and each old
// slot's new set (4 B per old slot). They are pooled, and the cache keeps
// its replaced arrays as spares, so that resizing between sizes already
// seen allocates nothing.
type resizeScratch struct {
	keys []resizeKey
	end  []uint32
	sets []uint32
}

var resizePool = sync.Pool{New: func() any { return new(resizeScratch) }}

// grow returns buf resized to n elements, reusing its storage when the
// capacity suffices. Reused elements keep their old values.
func grow[E any](buf []E, n int) []E {
	if cap(buf) < n {
		return make([]E, n)
	}
	return buf[:n]
}

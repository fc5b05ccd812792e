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
// state is laid out for the scan, not the object model: tags live in a
// packed []uint64 scanned 8-per-cache-line, LRU/dirty metadata is only
// touched on the way that hits, and the set index uses a precomputed
// Lemire reciprocal instead of a hardware divide.
package cache

import (
	"cmp"
	"fmt"
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
	// Prefetches counts lines installed by Prefetch (not demand traffic).
	Prefetches uint64
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
	s.Prefetches += other.Prefetches
}

// Sub subtracts a baseline snapshot from s (interval statistics).
func (s *Stats) Sub(base Stats) {
	s.Hits -= base.Hits
	s.Misses -= base.Misses
	s.Evictions -= base.Evictions
	s.Writebacks -= base.Writebacks
	s.Prefetches -= base.Prefetches
}

// Cache is a set-associative, true-LRU, write-back cache with a resizable
// number of sets.
//
// State is laid out structure-of-arrays: tags holds lineAddr+1 for valid
// lines (0 = invalid) so the scan needs no separate valid bit, lru holds
// the per-line LRU tick (scanned only on eviction), and dirty the
// write-back flag (read only for the evicted way). All are sets*ways,
// set-major, and each scan — tag match, LRU victim — walks one packed
// array: 8 entries per cache line instead of the 2⅔ the old
// array-of-structs layout gave.
type Cache struct {
	ways  int
	sets  int
	tags  []uint64
	lru   []uint64
	dirty []bool
	// modHi/modLo form the 128-bit Lemire reciprocal ceil(2^128/sets),
	// recomputed on Resize; setIndex uses it to replace the % divide.
	modHi, modLo uint64
	tick         uint64
	stats        Stats
	// replacement-policy state (see policy.go); LRU needs none beyond the
	// per-line tick.
	policy Policy
	plru   []uint32
	rng    uint64
}

// New builds a cache with the given geometry.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{ways: cfg.Ways, sets: cfg.Sets()}
	c.tags = make([]uint64, c.sets*c.ways)
	c.lru = make([]uint64, c.sets*c.ways)
	c.dirty = make([]bool, c.sets*c.ways)
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
	reg.GaugeFunc(prefix+".prefetches", func() float64 { return float64(c.stats.Prefetches) })
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
// true on hit. Misses allocate (write-allocate policy) and evict LRU.
//
// The way scan reads only the packed tag array; LRU/dirty updates and the
// replacement-policy branches happen after the scan, on the single way
// involved.
func (c *Cache) Access(addr uint64, write bool) bool {
	lineAddr := addr / LineBytes
	set := c.setIndex(lineAddr)
	base := set * c.ways
	tags := c.tags[base : base+c.ways]
	tag := lineAddr + 1
	c.tick++
	hit, empty := -1, -1
	for i, t := range tags {
		if t == tag {
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
			c.dirty[base+hit] = true
		}
		if c.policy == TreePLRU {
			c.plruTouch(set, hit, c.ways)
		}
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	slot := empty
	if slot < 0 {
		slot = c.victimFor(set, base)
		c.stats.Evictions++
		if c.dirty[base+slot] {
			c.stats.Writebacks++
		}
	}
	c.tags[base+slot] = tag
	c.lru[base+slot] = c.tick
	c.dirty[base+slot] = write
	if c.policy == TreePLRU {
		c.plruTouch(set, slot, c.ways)
	}
	return false
}

// Warm asks the host to load the set that holds addr's line, tags and LRU
// ticks, without changing any state, so that a later Access finds it in
// the host's caches.
func (c *Cache) Warm(addr uint64) {
	base := c.setIndex(addr/LineBytes) * c.ways
	sets := [2]uintptr{uintptr(unsafe.Pointer(&c.tags[base])), uintptr(unsafe.Pointer(&c.lru[base]))}
	prefetchSets(sets[:])
}

// Prefetch installs the line containing addr if absent, inserting it in LRU
// position below the most-recent line (conservative insertion, so useless
// prefetches are evicted first). It does not touch demand hit/miss counters.
func (c *Cache) Prefetch(addr uint64) {
	lineAddr := addr / LineBytes
	set := c.setIndex(lineAddr)
	base := set * c.ways
	tags := c.tags[base : base+c.ways]
	tag := lineAddr + 1
	var victim, empty = -1, -1
	var oldest uint64 = ^uint64(0)
	for i, t := range tags {
		if t == tag {
			return // already resident; leave LRU state alone
		}
		if t == 0 {
			if empty < 0 {
				empty = i
			}
			continue
		}
		if m := c.lru[base+i]; m < oldest {
			oldest = m
			victim = i
		}
	}
	slot := empty
	if slot < 0 {
		slot = victim
		c.stats.Evictions++
		if c.dirty[base+slot] {
			c.stats.Writebacks++
		}
	}
	c.stats.Prefetches++
	// Insert one tick below the current time so a demand access dominates.
	lru := c.tick
	if lru > 0 {
		lru--
	}
	c.tags[base+slot] = tag
	c.lru[base+slot] = lru
	c.dirty[base+slot] = false
}

// Contains reports whether the line holding addr is present, without
// touching LRU state or statistics (a "probe" for tests and attackers).
func (c *Cache) Contains(addr uint64) bool {
	lineAddr := addr / LineBytes
	base := c.setIndex(lineAddr) * c.ways
	tag := lineAddr + 1
	for _, t := range c.tags[base : base+c.ways] {
		if t == tag {
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
// geometry: all lines invalid, the LRU clock and statistics zeroed, and any
// replacement-policy state (PLRU tree bits, random seed) back to its initial
// value. Unlike Flush it counts nothing — it exists so long-running studies
// can reuse one allocation across independent runs, and the contract is that
// a Reset cache behaves bit-identically to a new one.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.lru)
	clear(c.dirty)
	clear(c.plru)
	c.tick = 0
	c.rng = 0
	c.stats = Stats{}
}

// Flush invalidates everything, counting writebacks for dirty lines.
func (c *Cache) Flush() {
	for i := range c.tags {
		if c.tags[i] != 0 && c.dirty[i] {
			c.stats.Writebacks++
		}
		c.tags[i] = 0
		c.lru[i] = 0
		c.dirty[i] = false
	}
}

// Resize changes the number of sets to match newSize, preserving lines
// whose new set has room. Resizing to the current size is a no-op so
// Maintain actions cost nothing.
//
// The survivors are reinserted as if one by one, oldest first: a line
// fills the first empty way of its new set, or, in a full set, replaces
// the least recently used occupant if that occupant is strictly older. A
// line that does not fit is dropped, and each dropped dirty line counts as
// a writeback. The rule does not depend on the replacement policy;
// TreePLRU bits start cleared.
//
// No sort runs over the whole partition. A histogram pass hashes each
// valid line once, keeping its new set, and counts the lines per new set;
// a scatter groups their (LRU tick, old slot) keys into one bucket per new
// set; and each bucket is insertion-sorted by tick. Insertions into
// different sets never interact, and within a set a strictly ascending
// bucket of b lines leaves line k at way k mod ways with the first
// b−ways lines dropped, so placeBucket writes that state directly.
//
// Equal ticks arise only from Prefetch, which inserts one tick below the
// clock, and there the order among equal ticks decides which way each
// takes. If any bucket holds a tie, the keys are instead laid out in
// old-slot order, sorted once globally with slices.SortFunc and reinserted
// one by one (reinsert). That is the pdqsort sort.Slice runs (both are
// generated from one template), so equal ticks keep the relative order a
// global sort.Slice over the old slots gives them.
func (c *Cache) Resize(newSize int64) error {
	cfg := Config{SizeBytes: newSize, Ways: c.ways}
	if err := cfg.Validate(); err != nil {
		return err
	}
	newSets := cfg.Sets()
	if newSets == c.sets {
		return nil
	}
	oldTags, oldLRU, oldDirty := c.tags, c.lru, c.dirty
	c.sets = newSets
	c.modHi, c.modLo = reciprocal(uint64(newSets))
	c.tags = make([]uint64, newSets*c.ways)
	c.lru = make([]uint64, newSets*c.ways)
	c.dirty = make([]bool, newSets*c.ways)
	if c.plru != nil {
		c.plru = make([]uint32, newSets)
	}

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
			s := uint32(c.setIndex(t - 1))
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
			keys[end[s]] = resizeKey{tick: oldLRU[i], slot: uint32(i), set: s}
			end[s]++
		}
	}
	sc.keys, sc.end, sc.sets = keys, end, sets

	writebacks := c.stats.Writebacks
	for s, lo := 0, uint32(0); s < newSets; s++ {
		b := keys[lo:end[s]]
		lo = end[s]
		if sortByTick(b) {
			// A tie: undo the buckets placed so far and take the global sort.
			clear(c.tags)
			clear(c.lru)
			clear(c.dirty)
			c.stats.Writebacks = writebacks
			k := 0
			for i, t := range oldTags {
				if t != 0 {
					keys[k] = resizeKey{tick: oldLRU[i], slot: uint32(i), set: sets[i]}
					k++
				}
			}
			slices.SortFunc(keys, byTick)
			c.reinsert(keys, oldTags, oldDirty)
			return nil
		}
		c.placeBucket(s, b, oldTags, oldDirty)
	}
	return nil
}

// sortByTick insertion-sorts a bucket by LRU tick. It stops and reports
// true at the first tick it finds twice.
func sortByTick(b []resizeKey) bool {
	for i := 1; i < len(b); i++ {
		k := b[i]
		j := i
		for j > 0 && b[j-1].tick > k.tick {
			b[j] = b[j-1]
			j--
		}
		b[j] = k
		if j > 0 && b[j-1].tick == k.tick {
			return true
		}
	}
	return false
}

// placeBucket installs new set s's strictly ascending bucket b: line k at
// way k mod ways, which leaves the last ways lines, and a writeback for
// each dirty line among the first len(b)−ways, which the later ones
// displace.
func (c *Cache) placeBucket(s int, b []resizeKey, oldTags []uint64, oldDirty []bool) {
	drop := max(0, len(b)-c.ways)
	for _, k := range b[:drop] {
		if oldDirty[k.slot] {
			c.stats.Writebacks++
		}
	}
	base := s * c.ways
	for k := drop; k < len(b); k++ {
		way := base + k%c.ways
		c.tags[way], c.lru[way], c.dirty[way] = oldTags[b[k].slot], b[k].tick, oldDirty[b[k].slot]
	}
}

// reinsert installs keys, oldest first, one by one: a line fills the first
// empty way of its set, or replaces the set's least recently used occupant
// if that occupant is strictly older.
func (c *Cache) reinsert(keys []resizeKey, oldTags []uint64, oldDirty []bool) {
	for _, k := range keys {
		base := int(k.set) * c.ways
		tags, lru, dirty := c.tags[base:base+c.ways], c.lru[base:base+c.ways], c.dirty[base:base+c.ways]
		tag, isDirty := oldTags[k.slot], oldDirty[k.slot]
		placed := false
		slot, oldest := -1, ^uint64(0)
		for i, t := range tags {
			if t == 0 {
				tags[i], lru[i], dirty[i] = tag, k.tick, isDirty
				placed = true
				break
			}
			if lru[i] < oldest {
				oldest = lru[i]
				slot = i
			}
		}
		if placed {
			continue
		}
		// Set over-full after a shrink: replace the LRU occupant only if it
		// is strictly older (lines arrive oldest-first). The displaced or
		// refused line is dropped; count its writeback if dirty.
		if oldest < k.tick {
			if dirty[slot] {
				c.stats.Writebacks++
			}
			tags[slot], lru[slot], dirty[slot] = tag, k.tick, isDirty
		} else if isDirty {
			c.stats.Writebacks++
		}
	}
}

// resizeKey is one surviving line's reinsertion key: its LRU tick, its
// slot in the pre-resize arrays, and its set in the post-resize geometry.
// It packs into 16 bytes.
type resizeKey struct {
	tick uint64
	slot uint32
	set  uint32
}

func byTick(a, b resizeKey) int { return cmp.Compare(a.tick, b.tick) }

// resizeScratch holds one Resize's transient buffers: the keys (16 B per
// valid line), the per-new-set bucket ends (4 B per set) and each old
// slot's new set (4 B per old slot). They are pooled so that a resize at a
// steady partition size allocates only the new tag, LRU and dirty arrays.
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

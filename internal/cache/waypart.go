package cache

import (
	"fmt"
	"math"
)

// WayPartitioned is the classic way-partitioned shared cache (Catalyst [28],
// Intel CAT style): every set's ways are divided into contiguous per-domain
// regions, so a domain's partition size moves in increments of one way
// (1 MB for the Table 3 LLC). The evaluation uses set partitioning because
// its 9 supported sizes go down to 128 kB; this type exists as the
// comparison point for the granularity ablation — same total capacity,
// coarser resizing alphabet.
//
// State shares the resizable Cache's line format and hot-path layout: 12 B
// per line, packed tag words (lineAddr+1, 0 = invalid, dirtyBit for a
// written line) scanned apart from the 32-bit LRU ticks, the same
// order-preserving renumber when the clock would wrap, and a precomputed
// Lemire reciprocal in place of the set-index divide. The access
// semantics — scan order, empty-way preference, min-LRU first-index-wins
// victims, and the Resize migration's most-recently-used selection — are
// those of the original array-of-structs implementation.
type WayPartitioned struct {
	sets int
	ways int
	tags []uint64 // sets*ways, set-major
	lru  []uint32
	// modHi/modLo form the 128-bit Lemire reciprocal ceil(2^128/sets); the
	// set count never changes, so it is computed once.
	modHi, modLo uint64
	tick         uint32
	// wayStart/wayCount give each domain its contiguous way range.
	wayStart []int
	wayCount []int
	stats    []Stats
	// scratch marks selected source ways during a Resize migration; one
	// allocation reused across every set × domain instead of one per call.
	scratch []bool
}

// NewWayPartitioned builds the shared structure and grants each domain an
// initial number of ways; the grants must fit the associativity.
func NewWayPartitioned(cfg Config, initialWays []int) (*WayPartitioned, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	total := 0
	for d, w := range initialWays {
		if w < 1 {
			return nil, fmt.Errorf("cache: domain %d granted %d ways", d, w)
		}
		total += w
	}
	if total > cfg.Ways {
		return nil, fmt.Errorf("cache: %d ways granted, only %d exist", total, cfg.Ways)
	}
	w := &WayPartitioned{
		sets:     cfg.Sets(),
		ways:     cfg.Ways,
		wayStart: make([]int, len(initialWays)),
		wayCount: append([]int(nil), initialWays...),
		stats:    make([]Stats, len(initialWays)),
	}
	w.tags = make([]uint64, w.sets*w.ways)
	w.lru = make([]uint32, w.sets*w.ways)
	w.modHi, w.modLo = reciprocal(uint64(w.sets))
	w.layout()
	return w, nil
}

// layout recomputes contiguous way ranges from the counts, packing domains
// in index order. Lines that fall outside their domain's new range are
// invalidated by Resize before calling layout.
func (w *WayPartitioned) layout() {
	start := 0
	for d := range w.wayCount {
		w.wayStart[d] = start
		start += w.wayCount[d]
	}
}

// Ways returns the number of ways currently granted to a domain.
func (w *WayPartitioned) Ways(domain int) int { return w.wayCount[domain] }

// SizeBytes returns a domain's partition size.
func (w *WayPartitioned) SizeBytes(domain int) int64 {
	return int64(w.wayCount[domain]) * int64(w.sets) * LineBytes
}

// Stats returns a domain's counters.
func (w *WayPartitioned) Stats(domain int) Stats { return w.stats[domain] }

// setBase returns the index of addr's set-major row and the line tag.
func (w *WayPartitioned) setBase(addr uint64) (base int, tag uint64) {
	lineAddr := addr / LineBytes
	h := lineAddr * 0x9E3779B97F4A7C15
	h ^= h >> 32
	return int(fastmod(h, w.modHi, w.modLo, uint64(w.sets))) * w.ways, lineAddr + 1
}

// Access performs a load/store for a domain, confined to its ways.
func (w *WayPartitioned) Access(domain int, addr uint64, write bool) bool {
	row, tag := w.setBase(addr)
	base := row + w.wayStart[domain]
	count := w.wayCount[domain]
	tags := w.tags[base : base+count]
	if w.tick == math.MaxUint32 {
		w.tick = renumber(w.tags, w.lru)
	}
	w.tick++
	st := &w.stats[domain]
	empty := -1
	for i, t := range tags {
		if t&^dirtyBit == tag {
			w.lru[base+i] = w.tick
			if write {
				tags[i] |= dirtyBit
			}
			st.Hits++
			return true
		}
		if t == 0 && empty < 0 {
			empty = i
		}
	}
	st.Misses++
	slot := empty
	if slot < 0 {
		// No empty way, so every entry is valid: the plain min-LRU scan
		// (first index wins ties) matches the valid-only scan it replaces.
		lru := w.lru[base : base+count]
		victim, oldest := 0, uint32(math.MaxUint32)
		for i, v := range lru {
			if v < oldest {
				oldest = v
				victim = i
			}
		}
		slot = victim
		st.Evictions++
		if tags[slot]&dirtyBit != 0 {
			st.Writebacks++
		}
	}
	if write {
		tag |= dirtyBit
	}
	tags[slot] = tag
	w.lru[base+slot] = w.tick
	return false
}

// Contains probes a domain's partition without side effects.
func (w *WayPartitioned) Contains(domain int, addr uint64) bool {
	row, tag := w.setBase(addr)
	base := row + w.wayStart[domain]
	for _, t := range w.tags[base : base+w.wayCount[domain]] {
		if t&^dirtyBit == tag {
			return true
		}
	}
	return false
}

// Resize changes every domain's way grant at once (way repartitioning is a
// global operation: ranges shift). Each domain keeps the most-recently-used
// lines that fit its new range; the rest are invalidated, with dirty victims
// counted as writebacks against their owner.
func (w *WayPartitioned) Resize(newWays []int) error {
	if len(newWays) != len(w.wayCount) {
		return fmt.Errorf("cache: %d grants for %d domains", len(newWays), len(w.wayCount))
	}
	total := 0
	for d, n := range newWays {
		if n < 1 {
			return fmt.Errorf("cache: domain %d granted %d ways", d, n)
		}
		total += n
	}
	if total > w.ways {
		return fmt.Errorf("cache: %d ways granted, only %d exist", total, w.ways)
	}
	same := true
	for d, n := range newWays {
		if n != w.wayCount[d] {
			same = false
			break
		}
	}
	if same {
		// Maintain: nothing moves, skip the migration entirely.
		return nil
	}
	// Compute new starts, then migrate set by set: for each domain, copy the
	// most-recently-used lines of its old range into its new range.
	oldStart := append([]int(nil), w.wayStart...)
	oldCount := append([]int(nil), w.wayCount...)
	w.wayCount = append(w.wayCount[:0], newWays...)
	w.layout()
	newTags := make([]uint64, len(w.tags))
	newLRU := make([]uint32, len(w.lru))
	if w.scratch == nil {
		w.scratch = make([]bool, w.ways)
	}
	for set := 0; set < w.sets; set++ {
		base := set * w.ways
		for d := range newWays {
			w.migrate(base+oldStart[d], oldCount[d],
				newTags, newLRU, base+w.wayStart[d], w.wayCount[d],
				&w.stats[d])
		}
	}
	w.tags, w.lru = newTags, newLRU
	return nil
}

// migrate copies the most-recently-used valid lines of the source range
// (srcN ways at srcBase in the current arrays) into the destination range,
// charging writebacks for dropped dirty lines. Selection is by repeated max
// with first-index tie wins — way counts are at most the associativity, so
// the quadratic scan is trivial.
func (w *WayPartitioned) migrate(srcBase, srcN int, dstTags []uint64, dstLRU []uint32, dstBase, dstN int, st *Stats) {
	used := w.scratch[:srcN]
	for i := range used {
		used[i] = false
	}
	for slot := 0; slot < dstN; slot++ {
		best, bestLRU := -1, uint32(0)
		for i := 0; i < srcN; i++ {
			if used[i] || w.tags[srcBase+i] == 0 {
				continue
			}
			if best < 0 || w.lru[srcBase+i] > bestLRU {
				best, bestLRU = i, w.lru[srcBase+i]
			}
		}
		if best < 0 {
			break
		}
		dstTags[dstBase+slot] = w.tags[srcBase+best]
		dstLRU[dstBase+slot] = w.lru[srcBase+best]
		used[best] = true
	}
	for i := 0; i < srcN; i++ {
		if !used[i] && w.tags[srcBase+i]&dirtyBit != 0 {
			st.Writebacks++
		}
	}
}

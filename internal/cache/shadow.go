package cache

import (
	"fmt"
	"unsafe"
)

// maxShadows is the number of shadow arrays a ShadowSet can hold: one bit
// of Access's hit mask each.
const maxShadows = 16

// ShadowSet is the utility monitor's shadow-tag state: one true-LRU,
// tag-only array per candidate partition size, all probed by one access.
// Shadow arrays have no lower level and no statistics, so an array keeps
// nothing but tags. Each set holds its valid tags most-recent-first, with
// the empty ways (tag 0) at the end: a hit moves its tag to the front, and
// a miss shifts the set down by one way, dropping the last, and puts the
// new tag at the front. Under true LRU a set always holds the
// min(ways, distinct) most recently used distinct lines that map to it,
// whichever ways they occupy, so this order gives every access the same
// hit or miss as a tick-LRU Cache of the same geometry.
type ShadowSet struct {
	ways   int
	arrays []shadowArray
}

// shadowArray is one size's tags, sets*ways, set-major, holding lineAddr+1
// for valid lines, with the Lemire reciprocal of its set count (as in
// Cache).
type shadowArray struct {
	tags         []uint64
	sets         uint64
	modHi, modLo uint64
}

// NewShadowSet builds one shadow array per candidate size in sizes (bytes),
// each with the given associativity. sampleLog2 is the monitor's set
// sampling: every array is shrunk by 2^sampleLog2, but never below four
// sets.
func NewShadowSet(sizes []int64, ways int, sampleLog2 uint) (*ShadowSet, error) {
	if len(sizes) > maxShadows {
		return nil, fmt.Errorf("cache: %d shadow arrays exceed the %d-bit hit mask", len(sizes), maxShadows)
	}
	s := &ShadowSet{ways: ways, arrays: make([]shadowArray, len(sizes))}
	for i, size := range sizes {
		cfg := Config{SizeBytes: max(size>>sampleLog2, int64(ways*LineBytes*4)), Ways: ways}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("shadow for size %d: %w", size, err)
		}
		a := &s.arrays[i]
		a.sets = uint64(cfg.Sets())
		a.tags = make([]uint64, cfg.Sets()*ways)
		a.modHi, a.modLo = reciprocal(a.sets)
	}
	return s, nil
}

// Sets returns the number of sets of shadow array i.
func (s *ShadowSet) Sets(i int) int { return int(s.arrays[i].sets) }

// Ways returns the associativity of every shadow array.
func (s *ShadowSet) Ways() int { return s.ways }

// Reset empties every shadow array, restoring the freshly-constructed
// state without reallocating.
func (s *ShadowSet) Reset() {
	for i := range s.arrays {
		clear(s.arrays[i].tags)
	}
}

// Warm asks the host to load the set holding addr's line in every shadow
// array, without changing any state, so that a later Access finds them in
// the host's caches.
func (s *ShadowSet) Warm(addr uint64) {
	h := setHash(addr / LineBytes)
	var sets [maxShadows]uintptr
	for i := range s.arrays {
		a := &s.arrays[i]
		base := int(fastmod(h, a.modHi, a.modLo, a.sets)) * s.ways
		sets[i] = uintptr(unsafe.Pointer(&a.tags[base]))
	}
	prefetchSets(sets[:len(s.arrays)])
}

// Access probes the line holding addr in every shadow array, updating each
// array's recency order, and returns the hit mask: bit i is set when array
// i hit.
//
// At the monitor's sizes most probes miss the host's caches, so the probes
// are issued together. A first pass hashes the line once, finds
// each array's set, and reads the set's most recent tag. Those loads
// depend on nothing but the hash, so they overlap. A second pass then
// scans and reorders each set, which is by now in the host's cache.
func (s *ShadowSet) Access(addr uint64) uint16 {
	lineAddr := addr / LineBytes
	tag := lineAddr + 1
	h := setHash(lineAddr)
	ways := s.ways
	arrays := s.arrays
	var bases [maxShadows]int
	var mru [maxShadows]uint64
	for i := range arrays {
		a := &arrays[i]
		base := int(fastmod(h, a.modHi, a.modLo, a.sets)) * ways
		bases[i] = base
		mru[i] = a.tags[base]
	}
	var mask uint16
	for i := range arrays {
		if mru[i] == tag {
			mask |= 1 << i
			continue
		}
		set := arrays[i].tags[bases[i] : bases[i]+ways]
		// w ends on the hit, on the first empty way, or on the last way
		// of a full set: the way the shift below overwrites.
		w := 0
		for w < ways-1 && set[w] != tag && set[w] != 0 {
			w++
		}
		if set[w] == tag {
			mask |= 1 << i
		}
		for ; w > 0; w-- {
			set[w] = set[w-1]
		}
		set[0] = tag
	}
	return mask
}

package cache

// Lane is a stripped-down set-associative LRU cache: the Figure 11 study's
// private L1, and the per-size LLC lanes of perfbench's re-drive of that
// study (the study itself resolves its LLC sizes through one ShadowSet,
// which gives every access the same outcome as a Lane per size). It keeps
// only the state that can influence hit/miss outcomes on the Static
// single-domain path — packed tags, per-line LRU ticks, and the fastmod
// reciprocal — and drops everything a full Cache carries that cannot
// (dirty/writeback bookkeeping, statistics, telemetry).
// Dropping dirty state is exact, not an approximation: LRU victim selection
// never consults dirty bits, so the hit/miss sequence of a Lane is bitwise
// the sequence a Cache produces for the same accesses.
//
// Lane intentionally has no Resize: a sweep fixes each lane's geometry up
// front and Reset()s it between runs.
type Lane struct {
	ways         int
	sets         int
	tags         []uint64
	lru          []uint64
	modHi, modLo uint64
	tick         uint64
}

// NewLane builds a lane with the given geometry.
func NewLane(cfg Config) (*Lane, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := &Lane{ways: cfg.Ways, sets: cfg.Sets()}
	l.tags = make([]uint64, l.sets*l.ways)
	l.lru = make([]uint64, l.sets*l.ways)
	l.modHi, l.modLo = reciprocal(uint64(l.sets))
	return l, nil
}

// MustNewLane builds a lane and panics on invalid geometry.
func MustNewLane(cfg Config) *Lane {
	l, err := NewLane(cfg)
	if err != nil {
		panic(err)
	}
	return l
}

// SizeBytes returns the lane's capacity.
func (l *Lane) SizeBytes() int64 { return int64(l.sets) * int64(l.ways) * LineBytes }

// Reset invalidates every line and rewinds the LRU clock, restoring the
// freshly-constructed state without reallocating.
func (l *Lane) Reset() {
	clear(l.tags)
	clear(l.lru)
	l.tick = 0
}

// Access performs an access to the line containing addr and reports hit.
// It mirrors Cache.Access exactly — same set
// index (same hash and fastmod reciprocal), same tag encoding, same
// empty-way preference, and the same min-LRU first-index-wins victim scan —
// so the returned hit/miss sequence is bit-for-bit what a Cache would give.
func (l *Lane) Access(addr uint64) bool {
	lineAddr := addr / LineBytes
	h := lineAddr * 0x9E3779B97F4A7C15
	h ^= h >> 32
	base := int(fastmod(h, l.modHi, l.modLo, uint64(l.sets))) * l.ways
	tags := l.tags[base : base+l.ways]
	tag := lineAddr + 1
	l.tick++
	empty := -1
	for i, t := range tags {
		if t == tag {
			l.lru[base+i] = l.tick
			return true
		}
		if t == 0 && empty < 0 {
			empty = i
		}
	}
	slot := empty
	if slot < 0 {
		lru := l.lru[base : base+l.ways]
		victim, oldest := 0, ^uint64(0)
		for i, v := range lru {
			if v < oldest {
				oldest = v
				victim = i
			}
		}
		slot = victim
	}
	l.tags[base+slot] = tag
	l.lru[base+slot] = l.tick
	return false
}

package cache

// Lane is one tag-only true-LRU cache behind a hit-or-miss Access: a thin
// adapter over a one-array ShadowSet, which gives every access the hit or
// miss a Cache of the same geometry gives. Its only caller is perfbench's
// re-drive of the Figure 11 study (its private L1 and per-size LLC
// lanes), and it goes when that re-drive resolves its sizes through a
// ShadowSet directly.
type Lane struct{ set *ShadowSet }

// NewLane builds a lane with the given geometry.
func NewLane(cfg Config) (*Lane, error) {
	set, err := NewShadowSet([]int64{cfg.SizeBytes}, cfg.Ways, 0)
	if err != nil {
		return nil, err
	}
	return &Lane{set: set}, nil
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
func (l *Lane) SizeBytes() int64 { return int64(l.set.Sets(0)*l.set.Ways()) * LineBytes }

// Reset invalidates every line, restoring the freshly-constructed state
// without reallocating.
func (l *Lane) Reset() { l.set.Reset() }

// Access performs an access to the line containing addr and reports hit.
func (l *Lane) Access(addr uint64) bool { return l.set.Access(addr) != 0 }

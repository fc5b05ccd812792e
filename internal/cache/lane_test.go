package cache

import (
	"math/rand"
	"testing"
)

// randTrace builds a deterministic pseudo-random access trace that mixes
// hot reuse (small address pool) with streaming (fresh addresses), so both
// the hit path and the victim scan are exercised.
func randTrace(rng *rand.Rand, n int) []uint64 {
	trace := make([]uint64, n)
	for i := range trace {
		if rng.Intn(3) == 0 {
			trace[i] = uint64(rng.Intn(512)) * LineBytes // hot pool
		} else {
			trace[i] = rng.Uint64() >> 8
		}
	}
	return trace
}

// TestLaneMatchesCache: a Lane must produce the exact hit/miss sequence of a
// Cache with the same geometry — including the non-power-of-two set counts
// of the 3MB/6MB partition sizes.
func TestLaneMatchesCache(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 32 << 10, Ways: 8},   // the L1 geometry
		{SizeBytes: 3 << 20, Ways: 16},   // non-power-of-two sets
		{SizeBytes: 128 << 10, Ways: 16}, // smallest partition size
	} {
		c := MustNew(cfg)
		l := MustNewLane(cfg)
		if l.SizeBytes() != c.SizeBytes() {
			t.Fatalf("geometry %+v: lane size %d != cache size %d", cfg, l.SizeBytes(), c.SizeBytes())
		}
		rng := rand.New(rand.NewSource(7))
		for i, addr := range randTrace(rng, 40_000) {
			write := rng.Intn(4) == 0
			if ch, lh := c.Access(addr, write), l.Access(addr); ch != lh {
				t.Fatalf("geometry %+v, access %d (addr %#x): cache hit=%v, lane hit=%v", cfg, i, addr, ch, lh)
			}
		}
	}
}

// TestCacheResetEquivalentToFresh is the Reset contract: after Reset, a
// cache must behave bit-identically to a freshly constructed one on an
// arbitrary trace — hit sequence, statistics, and residency.
func TestCacheResetEquivalentToFresh(t *testing.T) {
	cfg := Config{SizeBytes: 64 << 10, Ways: 8}
	used := MustNew(cfg)
	// Dirty the state thoroughly, then reset.
	rng := rand.New(rand.NewSource(11))
	for _, addr := range randTrace(rng, 30_000) {
		used.Access(addr, rng.Intn(2) == 0)
	}
	used.Reset()

	fresh := MustNew(cfg)
	if used.ValidLines() != 0 || used.Stats() != (Stats{}) {
		t.Fatalf("Reset left %d valid lines, stats %+v", used.ValidLines(), used.Stats())
	}
	rng = rand.New(rand.NewSource(13))
	for i, addr := range randTrace(rng, 30_000) {
		write := rng.Intn(3) == 0
		if uh, fh := used.Access(addr, write), fresh.Access(addr, write); uh != fh {
			t.Fatalf("access %d (addr %#x): reset cache hit=%v, fresh hit=%v", i, addr, uh, fh)
		}
	}
	if used.Stats() != fresh.Stats() {
		t.Errorf("reset cache stats %+v != fresh %+v", used.Stats(), fresh.Stats())
	}
}

// TestLaneResetEquivalentToFresh: same property for the lean Lane.
func TestLaneResetEquivalentToFresh(t *testing.T) {
	cfg := Config{SizeBytes: 3 << 20, Ways: 16}
	used := MustNewLane(cfg)
	rng := rand.New(rand.NewSource(17))
	for _, addr := range randTrace(rng, 30_000) {
		used.Access(addr)
	}
	used.Reset()

	fresh := MustNewLane(cfg)
	rng = rand.New(rand.NewSource(19))
	for i, addr := range randTrace(rng, 30_000) {
		if uh, fh := used.Access(addr), fresh.Access(addr); uh != fh {
			t.Fatalf("access %d (addr %#x): reset lane hit=%v, fresh hit=%v", i, addr, uh, fh)
		}
	}
}

func TestNewLaneRejectsBadGeometry(t *testing.T) {
	if _, err := NewLane(Config{SizeBytes: 1000, Ways: 16}); err == nil {
		t.Error("NewLane accepted a size that is not a multiple of way capacity")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewLane with invalid geometry did not panic")
		}
	}()
	MustNewLane(Config{SizeBytes: 0, Ways: 0})
}

package isa_test

import (
	"math/rand"
	"testing"

	"untangle/internal/isa"
	"untangle/internal/workload"
)

// randStream is an endless deterministic op stream with varied op sizes
// (so Loop and the Limited wrappers split ops at their boundaries), memory
// and non-memory ops, and an occasional secret-progress op.
type randStream struct {
	r *rand.Rand
	i uint64
}

func newRandStream(seed int64) *randStream { return &randStream{r: rand.New(rand.NewSource(seed))} }

func (s *randStream) Fill(buf []isa.Op) int {
	for k := range buf {
		op := isa.Op{NonMem: uint32(s.r.Intn(24)), Addr: s.i * 64}
		if s.r.Intn(4) != 0 {
			op.Flags |= isa.FlagMem
		}
		if s.r.Intn(16) == 0 {
			op.Flags |= isa.FlagSecretProgress
		}
		buf[k] = op
		s.i++
	}
	return len(buf)
}

// drain reads up to maxOps ops from s, each Fill sized by size().
func drain(s isa.Stream, size func() int, maxOps int) []isa.Op {
	var out []isa.Op
	buf := make([]isa.Op, 4096)
	for len(out) < maxOps {
		n := s.Fill(buf[:size()])
		if n == 0 {
			break
		}
		out = append(out, buf[:n]...)
	}
	return out[:min(len(out), maxOps)]
}

// The op sequence a stream emits does not depend on how its Fill calls are
// sized: draining with random fill sizes gives the sequence 4096-op fills
// give, for Loop, Limited, LimitedPublic and Concat, alone and nested the
// way the workloads nest them. The engines rely on this, since they read
// the same streams in different chunk sizes.
func TestFillSizeIndependence(t *testing.T) {
	builds := map[string]func(seed int64, lenA, lenB uint64) isa.Stream{
		"Loop": func(seed int64, lenA, lenB uint64) isa.Stream {
			return isa.NewLoop(newRandStream(seed), lenA, newRandStream(seed+1), lenB)
		},
		"Limited(Loop)": func(seed int64, lenA, lenB uint64) isa.Stream {
			return isa.NewLimited(isa.NewLoop(newRandStream(seed), lenA, newRandStream(seed+1), lenB), 40*(lenA+lenB)+7)
		},
		"LimitedPublic(Loop)": func(seed int64, lenA, lenB uint64) isa.Stream {
			return isa.NewLimitedPublic(isa.NewLoop(newRandStream(seed), lenA, newRandStream(seed+1), lenB), 40*(lenA+lenB)+7)
		},
		"Concat": func(seed int64, lenA, lenB uint64) isa.Stream {
			return &isa.Concat{Streams: []isa.Stream{
				isa.NewLimited(newRandStream(seed), 50*lenA),
				isa.NewLimitedPublic(isa.NewLoop(newRandStream(seed+1), lenA, newRandStream(seed+2), lenB), 50*lenB),
				isa.NewLimited(newRandStream(seed+3), 50*lenB),
			}}
		},
	}
	const maxOps = 40_000
	for name, build := range builds {
		for seed := int64(1); seed <= 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			lenA, lenB := uint64(1+r.Intn(2000)), uint64(1+r.Intn(2000))
			want := drain(build(seed, lenA, lenB), func() int { return 4096 }, maxOps)
			got := drain(build(seed, lenA, lenB), func() int { return 1 + r.Intn(1024) }, maxOps)
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("%s seed %d (lenA %d, lenB %d): random fills diverge from 4096-op fills at op %d of %d/%d",
					name, seed, lenA, lenB, i, len(got), len(want))
			}
		}
	}
}

// A mix domain's stream is Fill-size independent end to end.
func TestPairStreamFillSizeIndependence(t *testing.T) {
	pair := workload.Pair{SPEC: "blender_0", Crypto: "AES-128"}
	build := func() isa.Stream {
		s, err := pair.PairStream(2000, 20000, 1_100_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	r := rand.New(rand.NewSource(1))
	want := drain(build(), func() int { return 4096 }, 1<<30)
	got := drain(build(), func() int { return 1 + r.Intn(4096) }, 1<<30)
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("random fills diverge from 4096-op fills at op %d of %d/%d", i, len(got), len(want))
	}
}

// firstDiff is the index of the first op where a and b differ, counting a
// length mismatch, or -1 when they are equal.
func firstDiff(a, b []isa.Op) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

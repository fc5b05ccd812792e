package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the method
// the benchmark's acceptance spread is defined with. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		// statistics.quantiles, method="exclusive": m = n+1, j = i*m//4
		// clamped to [1, n-1], delta = i*m - 4*j,
		// result = (s[j-1]*(4-delta) + s[j]*delta)/4.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// relSpread is the interquartile distance of xs as a share of its median.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// failedFrac is units failed over units attempted; 0 when nothing ran.
func failedFrac(failed, attempted int) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// digester accumulates the exact bits of a unit's results: every float is
// hashed as its IEEE-754 bit pattern, so any simulated-bit change alters
// the digest.
type digester struct{ buf []byte }

func (d *digester) str(s string) {
	d.u64(uint64(len(s)))
	d.buf = append(d.buf, s...)
}

func (d *digester) u64(v uint64) { d.buf = binary.LittleEndian.AppendUint64(d.buf, v) }

func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }

// sum returns the digest as 16 bytes of hex.
func (d *digester) sum() string {
	h := sha256.Sum256(d.buf)
	return hex.EncodeToString(h[:16])
}

// bytesDigest digests raw output bytes in the same format.
func bytesDigest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:16])
}

// checkDigests compares each unit's digest against the golden set and
// returns how many units were attempted and how many failed: a unit fails
// when its digest is missing, differs, or the unit errored (errored holds
// those keys).
func checkDigests(got map[string]string, golden map[string]string, want []string, errored map[string]bool) (attempted, failed int, bad []string) {
	for _, key := range want {
		attempted++
		g, ok := got[key]
		if errored[key] || !ok || g != golden[key] || golden[key] == "" {
			failed++
			bad = append(bad, key)
		}
	}
	return attempted, failed, bad
}

// span is one traced call into a layer: [start, end) on the host clock,
// the span that caused it, and the work it did (events, probes, ...).
type span struct {
	id, parent int
	layer      string
	start, end time.Duration
	count      uint64
}

// selfTimes returns each layer's self time: the sum over its spans of the
// span's duration minus the part of that interval covered by its direct
// children. Children of one parent may overlap each other (concurrent
// workers); the covered part is the length of the union of their
// intervals, clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		d := s.end - s.start
		d -= covered(s.start, s.end, children[s.id])
		if d < 0 {
			d = 0
		}
		out[s.layer] += d
	}
	return out
}

// covered is the length of the union of the spans' intervals within
// [lo, hi).
func covered(lo, hi time.Duration, spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	curA, curB := time.Duration(-1), time.Duration(-1)
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// coverage is the share of the untraced run's worker time that the traced
// layers' self time accounts for: Σ self ÷ (untraced wall × workers).
func coverage(self map[string]time.Duration, layers []string, untracedWall time.Duration, workers int) float64 {
	if untracedWall <= 0 || workers <= 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range layers {
		sum += self[l]
	}
	return sum.Seconds() / (untracedWall.Seconds() * float64(workers))
}

// idleFrac is 1 − Σ unit busy ÷ (workers × wall): the share of the
// worker pool's time no unit was running.
func idleFrac(busy []time.Duration, workers int, wall time.Duration) float64 {
	if workers <= 0 || wall <= 0 {
		return 0
	}
	var sum time.Duration
	for _, b := range busy {
		sum += b
	}
	return 1 - sum.Seconds()/(float64(workers)*wall.Seconds())
}

// perUnit divides a busy time by a work count, in nanoseconds; 0 for no
// work.
func perUnit(busy time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(busy.Nanoseconds()) / float64(n)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

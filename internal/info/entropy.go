// Package info implements the information-theoretic primitives of Section 2.2
// of the Untangle paper: entropy, joint and conditional entropy, and mutual
// information over discrete distributions (Equations 2.1-2.4).
//
// All quantities are measured in bits (logarithms to base 2). Probabilities
// are plain float64 values; a Dist is a dense probability vector and a Joint
// is a dense matrix p(x, y). Zero-probability outcomes contribute zero to
// every sum, following the standard convention 0 log 0 = 0.
package info

import (
	"errors"
	"fmt"
	"math"
)

// Tolerance used when validating that probabilities sum to one.
const probSumTolerance = 1e-9

// ErrNotDistribution is returned when a probability vector is negative or
// does not sum to one within tolerance.
var ErrNotDistribution = errors.New("info: not a probability distribution")

// Log2 returns the base-2 logarithm of x. It exists so that all entropy code
// in the repository uses one definition, and so callers do not accidentally
// mix natural-log entropies with bit entropies.
func Log2(x float64) float64 { return math.Log2(x) }

// Dist is a dense probability distribution over outcomes 0..len-1.
type Dist []float64

// NewUniform returns the uniform distribution over n outcomes.
func NewUniform(n int) Dist {
	if n <= 0 {
		return nil
	}
	d := make(Dist, n)
	p := 1.0 / float64(n)
	for i := range d {
		d[i] = p
	}
	return d
}

// NewPoint returns the point-mass distribution over n outcomes that puts all
// probability on outcome i.
func NewPoint(n, i int) Dist {
	d := make(Dist, n)
	d[i] = 1
	return d
}

// Validate reports whether d is a well-formed probability distribution:
// every entry non-negative and the total within tolerance of one.
func (d Dist) Validate() error {
	sum := 0.0
	for i, p := range d {
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("%w: entry %d is %v", ErrNotDistribution, i, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > probSumTolerance {
		return fmt.Errorf("%w: sums to %v", ErrNotDistribution, sum)
	}
	return nil
}

// Normalize scales d in place so it sums to one. It returns d for chaining.
// Normalizing an all-zero vector leaves it unchanged.
func (d Dist) Normalize() Dist {
	sum := 0.0
	for _, p := range d {
		sum += p
	}
	if sum <= 0 {
		return d
	}
	for i := range d {
		d[i] /= sum
	}
	return d
}

// Clone returns a copy of d.
func (d Dist) Clone() Dist {
	c := make(Dist, len(d))
	copy(c, d)
	return c
}

// Entropy returns H(X) = -sum p(x) log2 p(x) (Equation 2.1), in bits. It
// is never negative: a distribution whose mass rounds to just above 1 (one
// outcome at 1.0000000000000002, say) would otherwise sum to a tiny
// negative value, and that rounding is clamped to 0.
func (d Dist) Entropy() float64 {
	h := 0.0
	for _, p := range d {
		if p > 0 {
			h -= p * math.Log2(p)
		}
	}
	if h < 0 {
		return 0
	}
	return h
}

// Entropy is a convenience wrapper over a raw probability slice.
func Entropy(p []float64) float64 { return Dist(p).Entropy() }

// EntropyOfCounts returns the empirical entropy of a histogram of counts.
// It is the entropy of the maximum-likelihood distribution counts/total.
func EntropyOfCounts(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	ft := float64(total)
	for _, c := range counts {
		if c > 0 {
			p := float64(c) / ft
			h -= p * math.Log2(p)
		}
	}
	return h
}

// Joint is a dense joint distribution p(x, y): Joint[x][y].
type Joint [][]float64

// NewJoint allocates an nx-by-ny zero joint distribution.
func NewJoint(nx, ny int) Joint {
	j := make(Joint, nx)
	cells := make([]float64, nx*ny)
	for i := range j {
		j[i], cells = cells[:ny], cells[ny:]
	}
	return j
}

// Validate reports whether j is a well-formed joint distribution.
func (j Joint) Validate() error {
	sum := 0.0
	for x, row := range j {
		for y, p := range row {
			if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				return fmt.Errorf("%w: entry (%d,%d) is %v", ErrNotDistribution, x, y, p)
			}
			sum += p
		}
	}
	if math.Abs(sum-1) > probSumTolerance {
		return fmt.Errorf("%w: sums to %v", ErrNotDistribution, sum)
	}
	return nil
}

// MarginalX returns p(x) = sum_y p(x, y).
func (j Joint) MarginalX() Dist {
	d := make(Dist, len(j))
	for x, row := range j {
		for _, p := range row {
			d[x] += p
		}
	}
	return d
}

// MarginalY returns p(y) = sum_x p(x, y).
func (j Joint) MarginalY() Dist {
	if len(j) == 0 {
		return nil
	}
	d := make(Dist, len(j[0]))
	for _, row := range j {
		for y, p := range row {
			d[y] += p
		}
	}
	return d
}

// Entropy returns the joint entropy H(X, Y) (Equation 2.2), in bits.
func (j Joint) Entropy() float64 {
	h := 0.0
	for _, row := range j {
		for _, p := range row {
			if p > 0 {
				h -= p * math.Log2(p)
			}
		}
	}
	return h
}

// ConditionalXGivenY returns H(X|Y) (Equation 2.3), in bits.
func (j Joint) ConditionalXGivenY() float64 {
	return j.Entropy() - j.MarginalY().Entropy()
}

// ConditionalYGivenX returns H(Y|X), in bits.
func (j Joint) ConditionalYGivenX() float64 {
	return j.Entropy() - j.MarginalX().Entropy()
}

// MutualInformation returns I(X;Y) (Equation 2.4), in bits. It is computed
// as H(X) + H(Y) - H(X,Y), which is exactly Equation 2.4 rearranged and is
// numerically robust for sparse joints.
func (j Joint) MutualInformation() float64 {
	mi := j.MarginalX().Entropy() + j.MarginalY().Entropy() - j.Entropy()
	if mi < 0 && mi > -1e-12 {
		// Clamp tiny negative values caused by floating-point rounding;
		// mutual information is mathematically non-negative.
		mi = 0
	}
	return mi
}

// JointFromConditional builds p(x, y) = p(x) * p(y|x) from a prior over x and
// a conditional kernel where kernel[x] is the distribution of Y given X=x.
func JointFromConditional(px Dist, kernel []Dist) (Joint, error) {
	if len(px) != len(kernel) {
		return nil, fmt.Errorf("info: prior has %d outcomes but kernel has %d rows", len(px), len(kernel))
	}
	if len(kernel) == 0 {
		return nil, errors.New("info: empty kernel")
	}
	ny := len(kernel[0])
	j := NewJoint(len(px), ny)
	for x := range kernel {
		if len(kernel[x]) != ny {
			return nil, fmt.Errorf("info: kernel row %d has %d outcomes, want %d", x, len(kernel[x]), ny)
		}
		for y, pyx := range kernel[x] {
			j[x][y] = px[x] * pyx
		}
	}
	return j, nil
}

// KLDivergence returns D(p || q) in bits, or +Inf when p puts mass where q
// does not.
func KLDivergence(p, q Dist) float64 {
	if len(p) != len(q) {
		return math.Inf(1)
	}
	d := 0.0
	for i := range p {
		if p[i] == 0 {
			continue
		}
		if q[i] == 0 {
			return math.Inf(1)
		}
		d += p[i] * math.Log2(p[i]/q[i])
	}
	if d < 0 && d > -1e-12 {
		d = 0
	}
	return d
}

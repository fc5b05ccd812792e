package covert

import "math"

// channelKey identifies one discretized covert channel and the solver
// settings it is solved with: input durations First, First+Step, ..., Last
// time units under uniform random delay over Noise time units. The channel
// bound depends only on these integers (DESIGN.md "Scaling"), so one key
// covers every time unit and every simulation scale that discretizes to it.
type channelKey struct {
	First, Last, Step, Noise int
	Solver                   SolverConfig
}

// durations lists the channel's candidate input durations.
func (k channelKey) durations() []int {
	var ds []int
	for d := k.First; d <= k.Last; d += k.Step {
		ds = append(ds, d)
	}
	return ds
}

// solve runs the Dinkelbach computation of Appendix A on the channel.
func (k channelKey) solve() (Result, error) {
	ch, err := NewChannel(k.durations(), UniformNoise(k.Noise))
	if err != nil {
		return Result{}, err
	}
	return ch.MaxRate(k.Solver), nil
}

// memoEntry holds the IEEE-754 bits of the Result fields a RateEntry is
// derived from.
type memoEntry struct {
	UpperBound, BitsPerTransmission, AvgTime uint64
	Verified                                 bool
}

// memoized returns the offline solution for k, if rateMemo holds one. Only
// UpperBound, BitsPerTransmission, AvgTime and Verified are set. Section 7
// precomputes the Rmax table offline; rateMemo is that precomputation for
// the channels the simulator's default schemes discretize to, so no process
// pays the multi-second solve for them. TestRateMemo re-solves every entry
// with the live solver and regenerates memo_gen.go under -update.
func (k channelKey) memoized() (Result, bool) {
	e, ok := rateMemo[k]
	if !ok {
		return Result{}, false
	}
	return Result{
		UpperBound:          math.Float64frombits(e.UpperBound),
		BitsPerTransmission: math.Float64frombits(e.BitsPerTransmission),
		AvgTime:             math.Float64frombits(e.AvgTime),
		Verified:            e.Verified,
	}, true
}

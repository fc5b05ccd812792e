package covert

import (
	"fmt"
	"sync"
	"time"
)

// TableConfig describes the discretization of the covert channel used to
// precompute the leakage-rate table of Section 7. All durations are expressed
// in Unit granularity; the paper's evaluation uses Tc = 1 ms and
// δ ~ U[0, 1ms).
type TableConfig struct {
	// Unit is the time resolution at which the attacker measures durations.
	Unit time.Duration
	// Cooldown is Tc, the minimum wait between assessments (Mechanism 1).
	Cooldown time.Duration
	// DelayWidth is the width of the uniform random delay (Mechanism 2);
	// zero disables the random delay.
	DelayWidth time.Duration
	// MaxSpreadUnits bounds the input alphabet: candidate durations range
	// from the cooldown to cooldown + MaxSpreadUnits time units. Zero picks
	// a default of 16x the delay width (the optimizer's mass is negligible
	// beyond a few delay widths).
	MaxSpreadUnits int
	// GridStep is the spacing between candidate durations in time units;
	// zero picks a default that keeps the alphabet near 128 symbols.
	GridStep int
	// MaxMaintains is the table capacity: the largest run of consecutive
	// Maintain actions with a dedicated entry (Section 7). Runs beyond the
	// capacity conservatively reuse the last entry.
	MaxMaintains int
	// Solver configures the Dinkelbach iteration.
	Solver SolverConfig
}

// DefaultTableConfig mirrors the paper's evaluation parameters (Tc = 1 ms,
// δ ~ U[0, 1ms)) at a 25 µs resolution, which keeps table precomputation
// fast while remaining faithful to the model.
func DefaultTableConfig() TableConfig {
	return TableConfig{
		Unit:         25 * time.Microsecond,
		Cooldown:     time.Millisecond,
		DelayWidth:   time.Millisecond,
		MaxMaintains: 16,
		Solver:       DefaultSolverConfig(),
	}
}

func (cfg TableConfig) withDefaults() TableConfig {
	if cfg.Unit <= 0 {
		cfg.Unit = 25 * time.Microsecond
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = time.Millisecond
	}
	if cfg.MaxMaintains < 0 {
		cfg.MaxMaintains = 0
	}
	if cfg.Solver.MaxDinkelbachRounds <= 0 {
		cfg.Solver = DefaultSolverConfig()
	}
	return cfg
}

// units converts a duration to integer time units, rounding up so bounds
// remain conservative.
func (cfg TableConfig) units(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	u := int((d + cfg.Unit - 1) / cfg.Unit)
	if u < 1 {
		u = 1
	}
	return u
}

// RateEntry is one row of the precomputed table: the channel bound for a run
// of m consecutive Maintains (i.e., an effective cooldown of (m+1)Tc).
type RateEntry struct {
	// Maintains is m.
	Maintains int
	// RatePerSecond is R'max in bits per second.
	RatePerSecond float64
	// BitsPerTransmission is the per-visible-resize information at the
	// rate-optimal input distribution.
	BitsPerTransmission float64
	// AvgTime is the optimal Tavg.
	AvgTime time.Duration
	// Verified reports whether F(q') <= 0 was confirmed for this entry.
	Verified bool
}

// RateTable is the precomputed leakage-rate table of Section 7: entry i
// stores Rmax_i, the maximum channel rate when i consecutive Maintains
// precede a visible resize, which is equivalent to a cooldown of (i+1)Tc
// (Figure 8).
type RateTable struct {
	cfg     TableConfig
	entries []RateEntry
}

// NewRateTable precomputes entries 0..cfg.MaxMaintains. It is
// deterministic. Channels in the offline memo cost a map lookup; any other
// channel is solved, which takes a fraction of a second per entry, so share
// one table per configuration (see Shared).
func NewRateTable(cfg TableConfig) (*RateTable, error) {
	cfg = cfg.withDefaults()
	t := &RateTable{cfg: cfg}
	t.entries = make([]RateEntry, cfg.MaxMaintains+1)
	for m := 0; m <= cfg.MaxMaintains; m++ {
		e, err := cfg.solveEntry(m)
		if err != nil {
			return nil, fmt.Errorf("covert: table entry %d: %w", m, err)
		}
		t.entries[m] = e
	}
	return t, nil
}

// solveEntry computes the table row for m consecutive Maintains: from the
// offline memo when the discretized channel has been solved before (see
// memo.go), otherwise with the Dinkelbach solver.
func (cfg TableConfig) solveEntry(m int) (RateEntry, error) {
	key := cfg.channel(m)
	res, ok := key.memoized()
	if !ok {
		var err error
		if res, err = key.solve(); err != nil {
			return RateEntry{}, err
		}
	}
	perSecond := res.UpperBound / cfg.Unit.Seconds()
	return RateEntry{
		Maintains:           m,
		RatePerSecond:       perSecond,
		BitsPerTransmission: res.BitsPerTransmission,
		AvgTime:             time.Duration(res.AvgTime * float64(cfg.Unit)),
		Verified:            res.Verified,
	}, nil
}

// channel discretizes the channel for m consecutive Maintains: candidate
// durations from the effective cooldown (m+1)Tc over the configured spread
// at the grid step, under uniform noise of the delay width, all in time
// units.
func (cfg TableConfig) channel(m int) channelKey {
	cooldownUnits := cfg.units(cfg.Cooldown) * (m + 1)
	noiseUnits := cfg.units(cfg.DelayWidth)
	if cfg.DelayWidth <= 0 {
		noiseUnits = 1
	}
	spread := cfg.MaxSpreadUnits
	if spread <= 0 {
		spread = 16 * noiseUnits
		if spread < 64 {
			spread = 64
		}
	}
	step := cfg.GridStep
	if step <= 0 {
		step = spread / 128
		if step < 1 {
			step = 1
		}
	}
	return channelKey{
		First:  cooldownUnits,
		Last:   cooldownUnits + spread/step*step,
		Step:   step,
		Noise:  noiseUnits,
		Solver: cfg.Solver,
	}
}

// Entry returns the table row for m consecutive Maintains, clamping to the
// table capacity as Section 7 prescribes.
func (t *RateTable) Entry(m int) RateEntry {
	if m < 0 {
		m = 0
	}
	if m >= len(t.entries) {
		m = len(t.entries) - 1
	}
	return t.entries[m]
}

// Len returns the number of table rows (capacity + 1).
func (t *RateTable) Len() int { return len(t.entries) }

// Config returns the configuration the table was built with.
func (t *RateTable) Config() TableConfig { return t.cfg }

// LeakagePerResize returns the bits charged for one visible resize that
// arrives after m consecutive Maintains: the per-transmission information of
// the rate-optimal covert channel whose cooldown is the effective (m+1)Tc
// (Section 7: "use the rate Rmax_m to compute the leakage for that
// resizing"). Maintains themselves are invisible and charge nothing.
func (t *RateTable) LeakagePerResize(m int) float64 {
	return t.Entry(m).BitsPerTransmission
}

// LeakageForGap returns the bits accrued by the rate-budget view of the
// channel: Rmax_m applied over a wall-clock gap (Section 6.2 uses this form
// to accumulate leakage across victim replays). The gap is clamped below at
// the schedule's guaranteed minimum (m+1)Tc so rounding can never
// under-charge.
func (t *RateTable) LeakageForGap(m int, gap time.Duration) float64 {
	e := t.Entry(m)
	g := gap.Seconds()
	min := (time.Duration(m+1) * t.cfg.Cooldown).Seconds()
	if g < min {
		g = min
	}
	return e.RatePerSecond * g
}

var (
	sharedMu     sync.Mutex
	sharedTables = map[TableConfig]*RateTable{}
)

// Shared returns a process-wide cached table for cfg, computing it on first
// use. The zero-iteration cost of reuse matters because every simulated
// domain consults the table.
func Shared(cfg TableConfig) (*RateTable, error) {
	cfg = cfg.withDefaults()
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if t, ok := sharedTables[cfg]; ok {
		return t, nil
	}
	t, err := NewRateTable(cfg)
	if err != nil {
		return nil, err
	}
	sharedTables[cfg] = t
	return t, nil
}

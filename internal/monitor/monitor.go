// Package monitor implements the timing-independent LLC utilization metric
// of Sections 5.2 and 7 of the Untangle paper.
//
// The mechanism follows UMON [36] adapted to set partitioning: for each
// supported partition size, a sampled shadow-tag array simulates what the
// domain's memory accesses would do with that size, and counts the hits.
// During a resizing assessment the scheme reads, for every candidate size,
// the number of hits the domain would have enjoyed over the last Mw retired
// public memory instructions.
//
// Principle 1 compliance: the monitor observes only retired memory accesses,
// in program order, and the caller excludes accesses annotated as data- or
// control-dependent on secrets (isa.Op.SecretUse). The metric is therefore a
// pure function of the retired public instruction sequence — no timing
// enters it.
package monitor

import (
	"fmt"

	"untangle/internal/cache"
	"untangle/internal/telemetry"
)

// Config describes a monitor.
type Config struct {
	// Sizes are the candidate partition sizes in bytes, strictly increasing
	// (Table 3: 128 kB .. 8 MB).
	Sizes []int64
	// Ways is the LLC associativity simulated by the shadow arrays.
	Ways int
	// Window is Mw: the number of retired public memory instructions the
	// metric covers (Table 3: 1M).
	Window uint64
	// SampleLog2 is the set-sampling factor: only lines whose address hash
	// falls in a 1/2^SampleLog2 sample are simulated, and each shadow array
	// is scaled down by the same factor, to no fewer than four sets. 0
	// disables sampling.
	SampleLog2 uint
	// Buckets subdivides the window for aging; the window slides in
	// Window/Buckets increments. Defaults to 8.
	Buckets int
	// SkipShadows builds the monitor without its cache.ShadowSet, for
	// domains fed exclusively through ObserveMask (replay lanes whose hit
	// vectors a recorder precomputed). Observe and HitMask must not be
	// called on such a monitor.
	SkipShadows bool
}

// DefaultSizes returns the paper's 9 supported partition sizes.
func DefaultSizes() []int64 {
	return []int64{
		128 << 10, 256 << 10, 512 << 10, 1 << 20,
		2 << 20, 3 << 20, 4 << 20, 6 << 20, 8 << 20,
	}
}

// Monitor tracks, per candidate size, the hits the domain would see.
type Monitor struct {
	cfg     Config
	shadows *cache.ShadowSet
	// ring of hit counters: ring[b][s] counts sampled hits for size s in
	// bucket b. bucketLen is the number of observed (unsampled) accesses
	// per bucket.
	ring      [][]uint64
	bucketLen uint64
	cur       int
	curCount  uint64
	// totalObserved counts all public accesses ever observed.
	totalObserved uint64
	// rotations counts bucket advances; every len(ring) rotations the
	// sliding window has been fully replaced — one "window closed" in the
	// monitor's lifecycle telemetry.
	rotations  uint64
	sampleMask uint64
}

// New builds a monitor.
func New(cfg Config) (*Monitor, error) {
	if len(cfg.Sizes) == 0 {
		return nil, fmt.Errorf("monitor: no candidate sizes")
	}
	if len(cfg.Sizes) > 16 {
		return nil, fmt.Errorf("monitor: %d candidate sizes exceed HitMask's 16-bit vector", len(cfg.Sizes))
	}
	for i := 1; i < len(cfg.Sizes); i++ {
		if cfg.Sizes[i] <= cfg.Sizes[i-1] {
			return nil, fmt.Errorf("monitor: sizes must be strictly increasing")
		}
	}
	if cfg.Window == 0 {
		return nil, fmt.Errorf("monitor: zero window")
	}
	if cfg.Buckets <= 0 {
		cfg.Buckets = 8
	}
	m := &Monitor{cfg: cfg}
	m.sampleMask = (uint64(1) << cfg.SampleLog2) - 1
	if !cfg.SkipShadows {
		shadows, err := cache.NewShadowSet(cfg.Sizes, cfg.Ways, cfg.SampleLog2)
		if err != nil {
			return nil, fmt.Errorf("monitor: %w", err)
		}
		m.shadows = shadows
	}
	m.ring = make([][]uint64, cfg.Buckets)
	for i := range m.ring {
		m.ring[i] = make([]uint64, len(cfg.Sizes))
	}
	m.bucketLen = cfg.Window / uint64(cfg.Buckets)
	if m.bucketLen == 0 {
		m.bucketLen = 1
	}
	return m, nil
}

// sampleHash decides membership in the simulated sample. It must be a pure
// function of the line address (timing independence) and uncorrelated with
// set indexing.
func sampleHash(lineAddr uint64) uint64 {
	h := lineAddr * 0xBF58476D1CE4E5B9
	h ^= h >> 31
	return h
}

// Observe records one retired public memory access, in program order.
// Callers must not pass secret-annotated accesses; that exclusion is what
// removes Edge 1 of Figure 2. The write bit is part of the retired-access
// record but does not affect the metric: the shadow arrays
// (cache.ShadowSet) keep tags only and count hits, with no dirty state.
func (m *Monitor) Observe(addr uint64, write bool) {
	m.ObserveMask(m.HitMask(addr, write))
}

// HitMask simulates the shadow arrays for one observed access and returns
// the per-size hit vector (bit s set = the size-s shadow hit, as
// cache.ShadowSet.Access computes it) without touching the window
// counters. Because the shadow state — like every monitor quantity — is a
// pure function of the observed public access sequence, a recorder can
// compute each access's mask once and feed it to any number of monitors
// via ObserveMask; Observe(a, w) is exactly ObserveMask(HitMask(a, w)).
// Unsampled accesses return 0, which ObserveMask cannot distinguish from
// an all-miss sampled access — the two have identical window effects.
func (m *Monitor) HitMask(addr uint64, write bool) uint16 {
	lineAddr := addr / cache.LineBytes
	if sampleHash(lineAddr)&m.sampleMask != 0 {
		return 0
	}
	return m.shadows.Access(addr)
}

// ObserveMask records one retired public memory access whose shadow
// resolution was precomputed by HitMask on a recorder monitor with the same
// Sizes, Ways, and SampleLog2. Window bookkeeping (bucket rotation, counts)
// is identical to Observe's; this monitor's own shadow arrays stay unused.
func (m *Monitor) ObserveMask(mask uint16) {
	m.totalObserved++
	m.curCount++
	if m.curCount >= m.bucketLen {
		m.cur = (m.cur + 1) % len(m.ring)
		for s := range m.ring[m.cur] {
			m.ring[m.cur][s] = 0
		}
		m.curCount = 0
		m.rotations++
	}
	row := m.ring[m.cur]
	for s := 0; mask != 0; s++ {
		if mask&1 != 0 {
			row[s]++
		}
		mask >>= 1
	}
}

// Utility is the monitored value for one candidate size.
type Utility struct {
	// SizeBytes is the candidate partition size.
	SizeBytes int64
	// Hits is the estimated number of LLC hits the domain would have had
	// with this size over the window (scaled back up by the sample factor).
	Hits float64
}

// Utilities returns the per-size estimated hits over the current window.
// The slice is ordered like cfg.Sizes and freshly allocated.
func (m *Monitor) Utilities() []Utility {
	out := make([]Utility, len(m.cfg.Sizes))
	scale := float64(uint64(1) << m.cfg.SampleLog2)
	for s := range out {
		var hits uint64
		for b := range m.ring {
			hits += m.ring[b][s]
		}
		out[s] = Utility{SizeBytes: m.cfg.Sizes[s], Hits: float64(hits) * scale}
	}
	return out
}

// Observed returns the total number of public accesses observed.
func (m *Monitor) Observed() uint64 { return m.totalObserved }

// WindowsClosed returns how many full monitor windows have completed: the
// window lifecycle counter behind the MonitorWindowClosed telemetry event.
// Like every monitor quantity it is a pure function of the observed public
// access sequence.
func (m *Monitor) WindowsClosed() uint64 { return m.rotations / uint64(len(m.ring)) }

// Window returns the configured window length Mw.
func (m *Monitor) Window() uint64 { return m.cfg.Window }

// RegisterMetrics exposes the monitor's lifecycle counters on a telemetry
// registry as lazily-evaluated gauges, so observation stays off the
// Observe hot path.
func (m *Monitor) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.GaugeFunc(prefix+".observed", func() float64 { return float64(m.totalObserved) })
	reg.GaugeFunc(prefix+".windows_closed", func() float64 { return float64(m.WindowsClosed()) })
	reg.GaugeFunc(prefix+".bucket_rotations", func() float64 { return float64(m.rotations) })
}

// Sizes returns the candidate size list.
func (m *Monitor) Sizes() []int64 { return m.cfg.Sizes }

// Reset clears the window (used after warmup so the first assessment sees
// only post-warmup behaviour; shadow tag contents are retained, matching
// hardware whose tag arrays are not flushed).
func (m *Monitor) Reset() {
	for b := range m.ring {
		for s := range m.ring[b] {
			m.ring[b][s] = 0
		}
	}
	m.cur, m.curCount = 0, 0
}

// Package sim is the multicore simulation driver standing in for the
// paper's gem5 setup (Table 3): 8 domains, private L1s, a 16MB shared LLC
// under one of the four Table 4 partitioning schemes, UMON-style monitoring,
// Untangle's progress-based schedule with cooldown and random action delay,
// and runtime leakage accounting.
//
// The simulator is trace-driven and deterministic: given a configuration and
// the domain streams, every run produces the identical resizing trace. All
// timing comes from the cpu package's cycle accounting; the global loop
// advances domains in fixed wall-clock quanta so cross-domain interactions
// (allocation decisions, the Time scheme's synchronous assessments, shared-
// cache interference) happen at a bounded time skew.
package sim

import (
	"fmt"
	"time"

	"untangle/internal/cache"
	"untangle/internal/core"
	"untangle/internal/covert"
	"untangle/internal/cpu"
	"untangle/internal/isa"
	"untangle/internal/monitor"
	"untangle/internal/partition"
	"untangle/internal/telemetry"
	"untangle/internal/tracecache"
)

// domainAddrShift separates domain address spaces in the shared LLC.
const domainAddrShift = 44

// DomainAddrOffset returns the address-space offset the simulator adds to
// domain i's accesses before they reach the caches. Exported so replay
// engines that reproduce a simulation outside the driver (the multi-lane
// sensitivity engine) hash the exact addresses the driver would.
func DomainAddrOffset(i int) uint64 { return uint64(i+1) << domainAddrShift }

// Config describes one simulation.
type Config struct {
	// LLCBytes and LLCWays give the shared LLC geometry (Table 3: 16MB,
	// 16-way).
	LLCBytes int64
	LLCWays  int
	// L1Bytes and L1Ways give each private L1D (Table 3: 32kB, 8-way).
	L1Bytes int64
	L1Ways  int
	// Scheme selects and parameterizes the partitioning scheme.
	Scheme partition.SchemeConfig
	// Sizes are the supported partition sizes (Table 3's 9 sizes).
	Sizes []int64
	// MonitorWindow is Mw in retired public memory instructions.
	MonitorWindow uint64
	// MonitorSampleLog2 is the monitor's set-sampling factor.
	MonitorSampleLog2 uint
	// Warmup is simulated time before statistics collection starts.
	Warmup time.Duration
	// WarmupInstructions additionally delays measurement until every domain
	// has retired this many instructions — the right warmup notion for
	// single-domain steady-state studies such as the Figure 11 sensitivity
	// sweep, where cold caches would otherwise mask LLC demand.
	WarmupInstructions uint64
	// SampleEvery is the partition-size sampling period (paper: 100 µs) and
	// also the simulator's scheduling quantum.
	SampleEvery time.Duration
	// WayPartitioned switches the LLC from set partitioning (the paper's
	// evaluation) to classic way partitioning: partition sizes move in
	// whole-way (1MB) steps and Sizes must be Config.WaySizes(). It exists
	// for the granularity ablation.
	WayPartitioned bool
	// MemBandwidth, when positive, models a finite shared memory bandwidth
	// in bytes per simulated second: all domains' LLC misses draw from one
	// DRAM channel pool, and when a quantum's demand exceeds the pool the
	// overflow turns into queueing stalls distributed proportionally to
	// each domain's traffic. Zero (the default, and the paper's
	// configuration) leaves bandwidth unmodeled. The stall is pure timing,
	// so Untangle's action-sequence guarantees are unaffected.
	MemBandwidth float64
	// OptimizeMaintain enables the Section 5.3.4 accounting optimization.
	OptimizeMaintain bool
	// Budget is the per-domain leakage budget in bits (0 = unlimited).
	Budget float64
	// Tiers, when non-nil, assigns each domain a Section 6.4 security tier
	// (indexes must match the DomainSpec order): a domain's visible resizes
	// are free of charge when every co-located domain is strictly
	// higher-tiered (information may flow upward). Nil means the paper's
	// default peer model.
	Tiers []core.Tier
	// Seed drives the random action delays.
	Seed uint64
	// Tracer, when non-nil, receives structured telemetry events
	// (assessments, resizes, monitor window closures, leakage charges,
	// per-quantum progress). Telemetry observes and never participates:
	// events are stamped with simulated time and a traced run's outcome —
	// and its trace — are byte-identical to an untraced run's. Nil (the
	// default) costs one nil-check per emission site.
	Tracer *telemetry.Tracer
	// Metrics, when non-nil, receives the run's counters, gauges and
	// histograms (cache hit/miss totals, allocator decision outcomes,
	// quantum IPC distribution). Snapshot it after Run returns.
	Metrics *telemetry.Registry
}

// DefaultConfig returns the Table 3 machine at full scale for the given
// scheme.
func DefaultConfig(scheme partition.SchemeConfig) Config {
	return Config{
		LLCBytes:          16 << 20,
		LLCWays:           16,
		L1Bytes:           32 << 10,
		L1Ways:            8,
		Scheme:            scheme,
		Sizes:             monitor.DefaultSizes(),
		MonitorWindow:     1_000_000,
		MonitorSampleLog2: 4,
		Warmup:            5 * time.Millisecond,
		SampleEvery:       100 * time.Microsecond,
		OptimizeMaintain:  true,
		Seed:              1,
	}
}

// Scaled shrinks a full-scale configuration by scale (0 < scale <= 1): all
// time quantities, the progress quantum, and the monitor window shrink
// together, so the number of assessments per run — and, because the covert
// channel is scale-invariant when Unit, cooldown and delay scale together,
// the leakage per assessment — are preserved while runs get proportionally
// cheaper. Cache geometry and latencies are never scaled.
func Scaled(scheme partition.SchemeConfig, scale float64) Config {
	cfg := DefaultConfig(scheme)
	if scale <= 0 || scale > 1 {
		return cfg
	}
	scaleDur := func(d time.Duration) time.Duration {
		s := time.Duration(float64(d) * scale)
		if s < time.Microsecond {
			s = time.Microsecond
		}
		return s
	}
	cfg.Scheme.Interval = scaleDur(cfg.Scheme.Interval)
	cfg.Scheme.Cooldown = scaleDur(cfg.Scheme.Cooldown)
	cfg.Scheme.DelayWidth = scaleDur(cfg.Scheme.DelayWidth)
	cfg.Scheme.ProgressN = uint64(float64(cfg.Scheme.ProgressN) * scale)
	if cfg.Scheme.ProgressN == 0 {
		cfg.Scheme.ProgressN = 1
	}
	cfg.MonitorWindow = uint64(float64(cfg.MonitorWindow) * scale)
	if cfg.MonitorWindow < 256 {
		cfg.MonitorWindow = 256
	}
	cfg.Warmup = scaleDur(cfg.Warmup)
	cfg.SampleEvery = scaleDur(cfg.SampleEvery)
	switch {
	case scale >= 0.05:
		cfg.MonitorSampleLog2 = 3
	case scale >= 0.005:
		cfg.MonitorSampleLog2 = 1
	default:
		cfg.MonitorSampleLog2 = 0
	}
	return cfg
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Scheme.Validate(); err != nil {
		return err
	}
	if err := (cache.Config{SizeBytes: c.LLCBytes, Ways: c.LLCWays}).Validate(); err != nil {
		return fmt.Errorf("sim: LLC: %w", err)
	}
	if err := (cache.Config{SizeBytes: c.L1Bytes, Ways: c.L1Ways}).Validate(); err != nil {
		return fmt.Errorf("sim: L1: %w", err)
	}
	if len(c.Sizes) == 0 {
		return fmt.Errorf("sim: no supported sizes")
	}
	if c.Scheme.Dynamic() && c.MonitorWindow == 0 {
		return fmt.Errorf("sim: dynamic scheme needs a monitor window")
	}
	if c.SampleEvery <= 0 {
		return fmt.Errorf("sim: non-positive sampling quantum")
	}
	return nil
}

// rateTableConfig derives the covert table configuration from the scheme's
// cooldown and delay width.
func (c Config) rateTableConfig() covert.TableConfig {
	// 1/40th of the cooldown keeps the discretization identical across
	// scales (the channel bound depends only on the ratios).
	unit := c.Scheme.Cooldown / 40
	if unit <= 0 {
		unit = time.Microsecond
	}
	return covert.TableConfig{
		Cooldown:     c.Scheme.Cooldown,
		DelayWidth:   c.Scheme.DelayWidth,
		Unit:         unit,
		MaxMaintains: 16,
	}
}

// NewAccountant builds the leakage accountant a run of this configuration
// over the given number of domains charges: Time's fixed per-assessment
// rate, Untangle's rate table, or nothing for the static schemes, wrapped in
// the Section 6.4 tier rule when Tiers is set. New builds its accountant
// here, so replaying a run's assessment trace through a fresh one gives the
// same charges whenever no budget froze a domain.
func (c Config) NewAccountant(domains int) (core.Accountant, error) {
	var acct core.Accountant
	var err error
	switch c.Scheme.Kind {
	case partition.TimeBased:
		acct, err = core.NewTimeAccountant(core.AccountantConfig{
			Domains: domains,
			Actions: len(c.Sizes),
			Budget:  c.Budget,
		})
	case partition.Untangle:
		var tbl *covert.RateTable
		if tbl, err = covert.Shared(c.rateTableConfig()); err != nil {
			return nil, err
		}
		acct, err = core.NewUntangleAccountant(core.AccountantConfig{
			Domains:          domains,
			Table:            tbl,
			OptimizeMaintain: c.OptimizeMaintain,
			Budget:           c.Budget,
		})
	default:
		acct = core.NewNullAccountant(domains)
	}
	if err != nil {
		return nil, err
	}
	if c.Tiers == nil {
		return acct, nil
	}
	if len(c.Tiers) != domains {
		return nil, fmt.Errorf("sim: %d tiers for %d domains", len(c.Tiers), domains)
	}
	if acct, err = core.NewTieredAccountant(acct, c.Tiers); err != nil {
		return nil, err
	}
	return acct, nil
}

// WarmRateTables builds the process-wide covert rate table this
// configuration's Untangle accountant consults (covert.Shared). For the
// default schemes at any scale the table comes from covert's offline memo
// and costs microseconds; a table outside the memo (another delay width,
// cooldown or time unit) is solved here, which takes seconds.
func (c Config) WarmRateTables() error {
	_, err := covert.Shared(c.rateTableConfig())
	return err
}

// MonitorConfig is the utility monitor a dynamic scheme runs under this
// configuration. Its shadow arrays live in the domain's FrontEnd, which
// records their hit vectors into the events; an engine that replays events
// it resolved itself must record them under this configuration.
func (c Config) MonitorConfig() monitor.Config {
	return monitor.Config{
		Sizes:      c.Sizes,
		Ways:       c.LLCWays,
		Window:     c.MonitorWindow,
		SampleLog2: c.MonitorSampleLog2,
	}
}

// DomainSpec describes one security domain's workload. Every domain runs
// from a ReplaySource: either Replay, or the live source New builds from
// Stream and Pressure over the domain's own FrontEnd.
type DomainSpec struct {
	// Name labels the domain in results.
	Name string
	// Stream provides the retired instruction stream, the live source's
	// first input. The simulator drains it once for the measured run; when
	// it ends, the domain is finished.
	Stream isa.Stream
	// Pressure, if non-nil, supplies a stream that keeps pressure on the
	// LLC after Stream finishes ("the finished workload maintains its
	// pressure on the LLC, but does not update the statistics"), the live
	// source's second input. It is normally endless; a finite one that
	// drains leaves the domain idling forward, as a nil Pressure does.
	Pressure isa.Stream
	// Replay, if non-nil, feeds the domain a pre-resolved post-L1 event
	// stream of the caller's (see ReplaySource), e.g. one front-end pass
	// shared by several back ends. Mutually exclusive with Stream and
	// Pressure.
	Replay ReplaySource
	// CPU parameterizes the timing model for this workload.
	CPU cpu.Params
}

// DomainResult reports one domain's measured behaviour.
type DomainResult struct {
	Name string
	// Instructions and Cycles cover the measured (post-warmup, pre-finish)
	// region; IPC is their ratio.
	Instructions uint64
	Cycles       float64
	IPC          float64
	// FinishTime is when the stream ended (simulated time).
	FinishTime time.Duration
	// Trace is the domain's resizing trace (post-warmup).
	Trace partition.Trace
	// Leakage is the accountant's view of the domain.
	Leakage core.DomainLeakage
	// PartitionSamples are the partition sizes observed every SampleEvery
	// during the measured region.
	PartitionSamples []int64
	// IPCSamples is the per-quantum IPC timeline over the measured region,
	// aligned with PartitionSamples; it lets experiments correlate
	// performance with partition adaptation over time.
	IPCSamples []float64
	// LLC are the domain's LLC stats over the measured region (for Shared,
	// the per-domain breakdown is not available and the shared totals are
	// reported on every domain).
	LLC cache.Stats
	// L1 are the domain's private L1 stats over the measured region.
	L1 cache.Stats
}

// Result is a full simulation outcome.
type Result struct {
	Scheme  partition.SchemeConfig
	Domains []DomainResult
	// Duration is the total simulated time.
	Duration time.Duration
}

// domain is the runtime state of one security domain.
type domain struct {
	spec DomainSpec
	core *cpu.Core
	part *cache.Cache // nil when the scheme is Shared
	// mon holds the monitor's window counters; its shadow-array hit
	// vectors arrive precomputed in the events (ReplaySource).
	mon *monitor.Monitor

	// The event cursor, and the private-L1 counters accumulated from the
	// event kinds and flags.
	replay  ReplaySource
	rbatch  []tracecache.Event
	rpos    int
	l1Stats cache.Stats

	idx int // this domain's index

	// progress counters
	retired       uint64
	publicRetired uint64
	nextAssessAt  uint64

	// committed partition size (capacity bookkeeping) and the pending
	// physical resize.
	committed int64
	// lastTarget debounces the action heuristic: a resize is only enacted
	// when two consecutive assessments agree on the same non-current
	// target, so one noisy monitor window cannot trigger a visible action.
	// The debounce is a pure function of the metric history, so it keeps
	// the action sequence timing-independent.
	lastTarget   int64
	pendingSize  int64
	pendingAt    time.Duration
	havePending  bool
	lastAssessAt time.Duration

	// dramInQuantum counts this domain's DRAM accesses in the current
	// scheduling quantum (bandwidth model).
	dramInQuantum uint64

	// measurement baselines and state
	base         cpu.Snapshot
	baseLLC      cache.Stats
	baseL1       cache.Stats
	finished     bool
	finishTime   time.Duration
	finishCore   cpu.Snapshot
	finishLLC    cache.Stats
	finishL1     cache.Stats
	trace        partition.Trace
	samples      []int64
	ipcSamples   []float64
	lastSample   cpu.Snapshot
	rng          uint64
	assessedOnce bool

	// telemetry bookkeeping: monitor windows already reported as closed,
	// and the last physically-granted partition size (for ResizeGranted's
	// prev field, which works across all three LLC backends).
	monWindows      uint64
	lastGrantedSize int64
}

func (d *domain) nextRand() uint64 {
	d.rng += 0x9E3779B97F4A7C15
	z := d.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Sim is a configured simulation, ready to Run.
type Sim struct {
	cfg     Config
	domains []*domain
	shared  *cache.Cache          // only for the Shared scheme
	wayLLC  *cache.WayPartitioned // only when Config.WayPartitioned is set
	alloc   *partition.Allocator
	acct    core.Accountant
	warm    bool // true once warmup ended
	now     time.Duration
	metrics *simMetrics // nil unless Config.Metrics is set

	steps          int           // quanta stepped
	nextTimeAssess time.Duration // TimeBased: the next assessment instant
}

// simMetrics are the driver-level registry instruments.
type simMetrics struct {
	quanta      *telemetry.Counter
	assessments *telemetry.Counter
	resizes     *telemetry.Counter
	ipcHist     *telemetry.Histogram
}

// trace returns the tracer for a domain's scheme events, or nil while the
// domain is outside its measured region — the same gate the resizing trace
// and the accountant use, so the event stream and internal/report agree.
func (s *Sim) trace(d *domain) *telemetry.Tracer {
	if s.warm && !d.finished {
		return s.cfg.Tracer
	}
	return nil
}

// wayBytes is the capacity of one LLC way (Table 3: 16MB/16 ways = 1MB).
func (c Config) wayBytes() int64 { return c.LLCBytes / int64(c.LLCWays) }

// WaySizes returns the supported partition sizes under way partitioning:
// whole ways, from 1 to half the associativity (so a single domain cannot
// monopolize the LLC, mirroring the 8MB cap of the set-partitioned list).
func (c Config) WaySizes() []int64 {
	out := make([]int64, 0, c.LLCWays/2)
	for w := 1; w <= c.LLCWays/2; w++ {
		out = append(out, int64(w)*c.wayBytes())
	}
	return out
}

// New builds a simulation over the given domains.
func New(cfg Config, specs []DomainSpec) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("sim: no domains")
	}
	s := &Sim{cfg: cfg}
	var err error
	s.alloc, err = partition.NewAllocator(cfg.Sizes, cfg.LLCBytes)
	if err != nil {
		return nil, err
	}
	if cfg.Scheme.Kind == partition.Shared {
		s.shared, err = cache.New(cache.Config{SizeBytes: cfg.LLCBytes, Ways: cfg.LLCWays})
		if err != nil {
			return nil, err
		}
	}
	startSize := s.alloc.FloorSize(cfg.Scheme.StartSize)
	if int64(len(specs))*startSize > cfg.LLCBytes {
		return nil, fmt.Errorf("sim: %d domains at start size %d exceed the %d LLC", len(specs), startSize, cfg.LLCBytes)
	}
	if cfg.WayPartitioned && cfg.Scheme.Kind != partition.Shared {
		wb := cfg.wayBytes()
		for _, sz := range cfg.Sizes {
			if sz%wb != 0 {
				return nil, fmt.Errorf("sim: way partitioning needs whole-way sizes; %d is not a multiple of %d", sz, wb)
			}
		}
		grants := make([]int, len(specs))
		for i := range grants {
			grants[i] = int(startSize / wb)
		}
		s.wayLLC, err = cache.NewWayPartitioned(cache.Config{SizeBytes: cfg.LLCBytes, Ways: cfg.LLCWays}, grants)
		if err != nil {
			return nil, err
		}
	}
	for i, spec := range specs {
		if spec.Stream == nil && spec.Replay == nil {
			return nil, fmt.Errorf("sim: domain %d has no stream", i)
		}
		if spec.Replay != nil && (spec.Stream != nil || spec.Pressure != nil) {
			return nil, fmt.Errorf("sim: domain %d mixes Replay with Stream/Pressure", i)
		}
		d := &domain{
			spec:   spec,
			core:   cpu.New(spec.CPU),
			replay: spec.Replay,
			idx:    i,
			rng:    cfg.Seed*0x9E3779B97F4A7C15 + uint64(i+1),
		}
		if d.replay == nil {
			fe, err := NewFrontEnd(cfg, i)
			if err != nil {
				return nil, err
			}
			d.replay = &liveSource{fe: fe, stream: spec.Stream, pressure: spec.Pressure,
				ops: make([]isa.Op, liveChunk), events: make([]tracecache.Event, liveChunk)}
		}
		if cfg.Scheme.Kind != partition.Shared {
			if s.wayLLC == nil {
				d.part, err = cache.New(cache.Config{SizeBytes: startSize, Ways: cfg.LLCWays})
				if err != nil {
					return nil, err
				}
			}
			d.committed = startSize
			d.lastGrantedSize = startSize
		}
		if cfg.Scheme.Dynamic() {
			monCfg := cfg.MonitorConfig()
			monCfg.SkipShadows = true
			if d.mon, err = monitor.New(monCfg); err != nil {
				return nil, err
			}
			d.nextAssessAt = cfg.Scheme.ProgressN
		}
		s.domains = append(s.domains, d)
	}
	if s.acct, err = cfg.NewAccountant(len(specs)); err != nil {
		return nil, err
	}
	// Telemetry wiring. The tracer's fallback clock is the global simulated
	// time; per-domain events stamp their own (cycle-derived) times.
	if cfg.Tracer != nil {
		cfg.Tracer.SetClock(telemetry.ClockFunc(func() time.Duration { return s.now }))
	}
	if reg := cfg.Metrics; reg != nil {
		s.registerMetrics(reg)
	}
	if cfg.Scheme.Kind == partition.TimeBased {
		s.nextTimeAssess = cfg.Scheme.Interval
	}
	if cfg.Warmup == 0 && cfg.WarmupInstructions == 0 {
		s.beginMeasurement()
	}
	return s, nil
}

// registerMetrics hooks every layer's counters into the registry. Gauges
// are lazily evaluated at snapshot time, so nothing here adds work to the
// access hot paths; the driver-level counters fire at quantum/assessment
// granularity.
func (s *Sim) registerMetrics(reg *telemetry.Registry) {
	s.alloc.Metrics = partition.NewDecisionMetrics(reg, "partition.alloc")
	s.metrics = &simMetrics{
		quanta:      reg.Counter("sim.quanta"),
		assessments: reg.Counter("sim.assessments"),
		resizes:     reg.Counter("sim.resizes_applied"),
		ipcHist:     reg.Histogram("sim.quantum_ipc", telemetry.LinearBuckets(0.25, 0.25, 16)),
	}
	if s.shared != nil {
		s.shared.RegisterMetrics(reg, "cache.llc.shared")
	}
	for _, d := range s.domains {
		d := d
		// The private-L1 gauges carry cache.Cache.RegisterMetrics' names
		// over the counters accumulated from the events. The geometry is
		// fixed, so size_bytes reports the configured L1 size.
		prefix := fmt.Sprintf("cache.l1.d%d", d.idx)
		reg.GaugeFunc(prefix+".hits", func() float64 { return float64(d.l1Stats.Hits) })
		reg.GaugeFunc(prefix+".misses", func() float64 { return float64(d.l1Stats.Misses) })
		reg.GaugeFunc(prefix+".evictions", func() float64 { return float64(d.l1Stats.Evictions) })
		reg.GaugeFunc(prefix+".writebacks", func() float64 { return float64(d.l1Stats.Writebacks) })
		reg.GaugeFunc(prefix+".size_bytes", func() float64 { return float64(s.cfg.L1Bytes) })
		if d.part != nil {
			d.part.RegisterMetrics(reg, fmt.Sprintf("cache.llc.d%d", d.idx))
		}
		if s.wayLLC != nil {
			p := fmt.Sprintf("cache.llc.d%d", d.idx)
			reg.GaugeFunc(p+".hits", func() float64 { return float64(s.wayLLC.Stats(d.idx).Hits) })
			reg.GaugeFunc(p+".misses", func() float64 { return float64(s.wayLLC.Stats(d.idx).Misses) })
			reg.GaugeFunc(p+".evictions", func() float64 { return float64(s.wayLLC.Stats(d.idx).Evictions) })
		}
		if d.mon != nil {
			d.mon.RegisterMetrics(reg, fmt.Sprintf("monitor.d%d", d.idx))
		}
	}
}

// llcLookahead is how many events ahead runDomainUntil warms the LLC set
// of an upcoming L1 miss. The LLC arrays of the four lanes of a fused mix
// and of its front end do not fit the host's last-level cache together,
// so without the prefetch each probe waits on memory.
const llcLookahead = 16

// llcWarm prefetches the LLC set an upcoming miss will probe (cache.Warm).
func (s *Sim) llcWarm(d *domain, addr uint64) {
	switch {
	case s.shared != nil:
		s.shared.Warm(addr)
	case d.part != nil:
		d.part.Warm(addr)
	}
}

// llcAccess sends one L1 miss to the domain's share of the LLC.
func (s *Sim) llcAccess(d *domain, addr uint64, write bool) bool {
	switch {
	case s.shared != nil:
		return s.shared.Access(addr, write)
	case s.wayLLC != nil:
		return s.wayLLC.Access(d.idx, addr, write)
	default:
		return d.part.Access(addr, write)
	}
}

// llcStats returns the domain's LLC counters.
func (s *Sim) llcStats(d *domain) cache.Stats {
	switch {
	case s.shared != nil:
		return s.shared.Stats()
	case s.wayLLC != nil:
		return s.wayLLC.Stats(d.idx)
	default:
		return d.part.Stats()
	}
}

// runDomainUntil advances one domain until its local clock reaches horizon,
// consuming its events (ReplaySource): the measured stream, the finish at
// its end, then the pressure tail while there is one, and idling forward
// after that.
func (s *Sim) runDomainUntil(d *domain, horizon time.Duration) {
	cfg := &s.cfg
	horizonCycles := d.core.DurationToCycles(horizon)
	for d.core.Cycles() < horizonCycles {
		if d.rpos >= len(d.rbatch) {
			d.rbatch = d.replay.NextEvents()
			d.rpos = 0
			if len(d.rbatch) == 0 {
				if !d.finished {
					s.finishDomain(d)
					continue // the pressure tail, if any, follows
				}
				d.core.AdvanceTo(horizon)
				return
			}
		}
		ev := d.rbatch[d.rpos]
		if j := d.rpos + llcLookahead; j < len(d.rbatch) && d.rbatch[j].Kind == tracecache.KindL1Miss {
			s.llcWarm(d, d.rbatch[j].Addr)
		}
		d.rpos++

		d.core.RetireNonMem(ev.NonMem)
		instr := uint64(ev.NonMem)
		if ev.Kind != tracecache.KindNoMem {
			instr++
			write := ev.Flags&tracecache.FlagWrite != 0
			if ev.Kind == tracecache.KindL1Hit {
				d.core.RetireMem(cpu.L1Hit)
				d.l1Stats.Hits++
			} else {
				d.l1Stats.Misses++
				if ev.Flags&tracecache.FlagL1Evict != 0 {
					d.l1Stats.Evictions++
				}
				if ev.Flags&tracecache.FlagL1Writeback != 0 {
					d.l1Stats.Writebacks++
				}
				if s.llcAccess(d, ev.Addr, write) {
					d.core.RetireMem(cpu.LLCHit)
				} else {
					d.core.RetireMem(cpu.Memory)
					d.dramInQuantum++
				}
			}
			// The front end applied the Principle 1 gate and resolved the
			// shadow arrays; the monitor only updates its window counters.
			if d.mon != nil && ev.Flags&tracecache.FlagMonObserve != 0 {
				d.mon.ObserveMask(ev.MonMask)
			}
		}
		d.retired += instr
		// The front end applied the Principle 2 gate.
		if ev.Flags&tracecache.FlagPublic != 0 {
			d.publicRetired += instr
		}
		// Apply a pending resize the moment its delay elapses.
		if d.havePending && d.core.Now() >= d.pendingAt {
			s.applyResize(d)
		}
		// Untangle's progress-based schedule.
		if cfg.Scheme.Kind == partition.Untangle && d.publicRetired >= d.nextAssessAt {
			s.assessUntangle(d)
		}
	}
}

// finishDomain freezes a domain's measured statistics.
func (s *Sim) finishDomain(d *domain) {
	d.finished = true
	d.finishTime = d.core.Now()
	d.finishCore = d.core.Snapshot()
	d.finishLLC = s.llcStats(d)
	d.finishL1 = d.l1Stats
}

// applyResize performs the physical partition resize.
func (s *Sim) applyResize(d *domain) {
	d.havePending = false
	if d.pendingSize != d.lastGrantedSize {
		if tr := s.trace(d); tr != nil {
			tr.Emit(&telemetry.ResizeGranted{
				Header:    telemetry.Header{AtNs: d.core.Now().Nanoseconds(), Domain: d.idx},
				PrevBytes: d.lastGrantedSize,
				SizeBytes: d.pendingSize,
			})
		}
		if s.metrics != nil {
			s.metrics.resizes.Inc()
		}
		d.lastGrantedSize = d.pendingSize
	}
	if s.wayLLC != nil {
		// Way repartitioning is a global operation: reshape with every
		// domain's currently-committed grant (pending peers reshape again
		// when their own delays elapse).
		grants := make([]int, len(s.domains))
		wb := s.cfg.wayBytes()
		for i, dom := range s.domains {
			grants[i] = int(dom.committed / wb)
			if dom == d {
				grants[i] = int(d.pendingSize / wb)
			}
		}
		if err := s.wayLLC.Resize(grants); err != nil {
			panic(err)
		}
		return
	}
	if d.part == nil {
		return
	}
	// The committed bookkeeping changed at decision time; the tag array
	// reshapes now.
	if err := d.part.Resize(d.pendingSize); err != nil {
		// Sizes come from the allocator's validated list; failure here is a
		// programming error.
		panic(err)
	}
}

// utilitiesAll snapshots every domain's monitored utilities.
func (s *Sim) utilitiesAll() [][]float64 {
	out := make([][]float64, len(s.domains))
	for i, d := range s.domains {
		u := d.mon.Utilities()
		row := make([]float64, len(u))
		for j, v := range u {
			row[j] = v.Hits
		}
		out[i] = row
	}
	return out
}

// committedSizes returns every domain's committed partition size.
func (s *Sim) committedSizes() []int64 {
	out := make([]int64, len(s.domains))
	for i, d := range s.domains {
		out[i] = d.committed
	}
	return out
}

// assessUntangle performs one progress-triggered resizing assessment for a
// domain (Section 5.2 Principle 2 plus the Section 5.3.2 mechanisms).
func (s *Sim) assessUntangle(d *domain) {
	cfg := &s.cfg
	tr := s.trace(d)
	// The metric snapshot happens at the progress boundary — a pure
	// function of the retired public instruction sequence. The assessment
	// itself cannot occur before the cooldown since the last one.
	at := d.core.Now()
	if earliest := d.lastAssessAt + cfg.Scheme.Cooldown; d.assessedOnce && at < earliest {
		at = earliest
	}
	if tr != nil && d.assessedOnce && cfg.Scheme.Cooldown > 0 {
		tr.Emit(&telemetry.CooldownExpired{Header: telemetry.Header{
			AtNs: (d.lastAssessAt + cfg.Scheme.Cooldown).Nanoseconds(), Domain: d.idx,
		}})
	}
	idx := d.idx
	prev := d.committed
	size := prev
	if !s.acct.Frozen(idx) {
		raw := s.alloc.Decide(idx, s.committedSizes(), s.utilitiesAll(),
			cfg.Scheme.MaintainFraction, float64(cfg.MonitorWindow))
		size = d.debounce(raw)
		if tr != nil && raw != prev {
			tr.Emit(&telemetry.ResizeRequested{
				Header:    telemetry.Header{AtNs: at.Nanoseconds(), Domain: idx},
				PrevBytes: prev, TargetBytes: raw,
			})
			if size == prev {
				tr.Emit(&telemetry.ResizeDenied{
					Header:    telemetry.Header{AtNs: at.Nanoseconds(), Domain: idx},
					PrevBytes: prev, TargetBytes: raw, Reason: telemetry.DenyDebounce,
				})
			}
		}
	} else if tr != nil {
		tr.Emit(&telemetry.ResizeDenied{
			Header:    telemetry.Header{AtNs: at.Nanoseconds(), Domain: idx},
			PrevBytes: prev, TargetBytes: prev, Reason: telemetry.DenyFrozen,
		})
	}
	// Mechanism 2: delay the action by a uniform random delay.
	delay := time.Duration(0)
	if cfg.Scheme.DelayWidth > 0 {
		delay = time.Duration(d.nextRand() % uint64(cfg.Scheme.DelayWidth))
	}
	applyAt := at + delay
	visible := size != prev
	d.committed = size
	d.pendingSize = size
	d.pendingAt = applyAt
	d.havePending = true
	d.lastAssessAt = at
	d.assessedOnce = true
	if s.metrics != nil {
		s.metrics.assessments.Inc()
	}
	// Progress toward the next assessment starts counting now (Figure 6).
	d.nextAssessAt = d.publicRetired + cfg.Scheme.ProgressN
	if s.warm && !d.finished {
		before := s.acct.Domain(idx)
		s.acct.RecordAssessment(idx, visible, applyAt)
		d.trace = append(d.trace, partition.Assessment{
			Domain: idx, At: at, ApplyAt: applyAt,
			Prev: prev, Size: size, Visible: visible,
		})
		if tr != nil {
			tr.Emit(&telemetry.SchemeAssessment{
				Header:    telemetry.Header{AtNs: at.Nanoseconds(), Domain: idx},
				PrevBytes: prev, SizeBytes: size, Visible: visible,
				ApplyAtNs: applyAt.Nanoseconds(),
			})
			if cfg.Scheme.Cooldown > 0 {
				tr.Emit(&telemetry.CooldownStarted{
					Header:     telemetry.Header{AtNs: at.Nanoseconds(), Domain: idx},
					DurationNs: cfg.Scheme.Cooldown.Nanoseconds(),
				})
			}
			if dl := s.acct.Domain(idx); dl.TotalBits > before.TotalBits {
				tr.Emit(&telemetry.LeakageBitCharged{
					Header: telemetry.Header{AtNs: applyAt.Nanoseconds(), Domain: idx},
					Bits:   dl.TotalBits - before.TotalBits, TotalBits: dl.TotalBits,
					MaintainRun: before.MaintainRun,
				})
			}
		}
	}
}

// assessTimeBased performs the synchronous fixed-interval assessment of the
// Time scheme for all domains.
func (s *Sim) assessTimeBased(at time.Duration) {
	cfg := &s.cfg
	current := s.committedSizes()
	raw := s.alloc.DecideAll(current, s.utilitiesAll(),
		cfg.Scheme.MaintainFraction, float64(cfg.MonitorWindow))
	next := make([]int64, len(raw))
	for i, d := range s.domains {
		next[i] = d.debounce(raw[i])
		if s.acct.Frozen(i) {
			next[i] = current[i]
		}
	}
	// The debounce may veto a shrink another domain's growth relied on;
	// re-establish the capacity invariant by applying shrinks first and
	// clamping growths to what is actually free.
	final := append([]int64(nil), current...)
	for i := range final {
		if next[i] < final[i] {
			final[i] = next[i]
		}
	}
	for i := range final {
		if next[i] > final[i] {
			var others int64
			for j, v := range final {
				if j != i {
					others += v
				}
			}
			free := s.cfg.LLCBytes - others
			target := next[i]
			if target > free {
				target = s.alloc.FloorSize(free)
			}
			if target > final[i] {
				final[i] = target
			}
		}
	}
	for i, d := range s.domains {
		size := final[i]
		prev := d.committed
		visible := size != prev
		d.committed = size
		d.pendingSize = size
		d.pendingAt = at
		d.havePending = true
		d.lastAssessAt = at
		if s.metrics != nil {
			s.metrics.assessments.Inc()
		}
		if s.warm && !d.finished {
			before := s.acct.Domain(i)
			s.acct.RecordAssessment(i, visible, at)
			d.trace = append(d.trace, partition.Assessment{
				Domain: i, At: at, ApplyAt: at,
				Prev: prev, Size: size, Visible: visible,
			})
			if tr := s.trace(d); tr != nil {
				if raw[i] != prev {
					tr.Emit(&telemetry.ResizeRequested{
						Header:    telemetry.Header{AtNs: at.Nanoseconds(), Domain: i},
						PrevBytes: prev, TargetBytes: raw[i],
					})
					if size == prev {
						// Work out which stage vetoed the request: the
						// frozen budget, the two-agreeing-assessments
						// debounce, or the capacity re-fit after shrinks.
						reason := telemetry.DenyCapacity
						switch {
						case s.acct.Frozen(i):
							reason = telemetry.DenyFrozen
						case next[i] == prev:
							reason = telemetry.DenyDebounce
						}
						tr.Emit(&telemetry.ResizeDenied{
							Header:    telemetry.Header{AtNs: at.Nanoseconds(), Domain: i},
							PrevBytes: prev, TargetBytes: raw[i], Reason: reason,
						})
					}
				}
				tr.Emit(&telemetry.SchemeAssessment{
					Header:    telemetry.Header{AtNs: at.Nanoseconds(), Domain: i},
					PrevBytes: prev, SizeBytes: size, Visible: visible,
					ApplyAtNs: at.Nanoseconds(),
				})
				if dl := s.acct.Domain(i); dl.TotalBits > before.TotalBits {
					tr.Emit(&telemetry.LeakageBitCharged{
						Header: telemetry.Header{AtNs: at.Nanoseconds(), Domain: i},
						Bits:   dl.TotalBits - before.TotalBits, TotalBits: dl.TotalBits,
						MaintainRun: before.MaintainRun,
					})
				}
			}
		}
	}
}

// debounce passes a decided target through the two-agreeing-assessments
// filter.
func (d *domain) debounce(target int64) int64 {
	prev := d.lastTarget
	d.lastTarget = target
	if target != d.committed && target != prev {
		return d.committed
	}
	return target
}

// applyBandwidthStalls charges queueing delay when the quantum's aggregate
// DRAM traffic exceeds the shared channel capacity: the overflow's service
// time is distributed across domains in proportion to their traffic.
func (s *Sim) applyBandwidthStalls(quantum time.Duration) {
	var total uint64
	for _, d := range s.domains {
		total += d.dramInQuantum
	}
	capLines := s.cfg.MemBandwidth * quantum.Seconds() / float64(cache.LineBytes)
	if total > 0 && float64(total) > capLines && capLines > 0 {
		// Aggregate queue growth this quantum, as wall-clock time.
		overflow := (float64(total) - capLines) / capLines * float64(quantum)
		for _, d := range s.domains {
			if d.dramInQuantum == 0 {
				continue
			}
			share := float64(d.dramInQuantum) / float64(total)
			d.core.AdvanceTo(s.now + time.Duration(overflow*share))
		}
	}
	for _, d := range s.domains {
		d.dramInQuantum = 0
	}
}

// beginMeasurement resets statistics at the end of warmup.
func (s *Sim) beginMeasurement() {
	s.warm = true
	for _, d := range s.domains {
		d.base = d.core.Snapshot()
		d.baseLLC = s.llcStats(d)
		d.baseL1 = d.l1Stats
		d.trace = nil
		d.samples = nil
		d.ipcSamples = nil
		d.lastSample = d.core.Snapshot()
		// Windows closed during warmup are not reported; the event stream
		// covers the measured region, like the resizing trace.
		if d.mon != nil {
			d.monWindows = d.mon.WindowsClosed()
		}
	}
}

// maxSteps is a defensive bound on quanta against runaway configs.
const maxSteps = 100_000_000

// Run executes the simulation until every domain has finished its stream,
// then assembles the results: a loop over Step.
func (s *Sim) Run() (*Result, error) {
	for {
		done, err := s.Step()
		if err != nil {
			return nil, err
		}
		if done {
			return s.Result(), nil
		}
	}
}

// Step advances the simulation by one quantum (Config.SampleEvery): every
// domain runs to the new instant, then the quantum's bandwidth stalls,
// warmup exit, time-based assessments and samples apply. done reports
// that every domain has finished its stream; Result then assembles the
// results. Stepping several simulations in turn is how a caller runs them
// at equal simulated time (the fused mix engine's rounds).
func (s *Sim) Step() (done bool, err error) {
	cfg := &s.cfg
	if s.steps > maxSteps {
		return false, fmt.Errorf("sim: exceeded %d steps without finishing", maxSteps)
	}
	s.steps++
	step := cfg.SampleEvery
	s.now += step
	for _, d := range s.domains {
		s.runDomainUntil(d, s.now)
	}
	if cfg.MemBandwidth > 0 {
		s.applyBandwidthStalls(step)
	}
	if !s.warm && s.now >= cfg.Warmup {
		ready := true
		for _, d := range s.domains {
			if d.retired < cfg.WarmupInstructions {
				ready = false
				break
			}
		}
		if ready {
			s.beginMeasurement()
		}
	}
	if cfg.Scheme.Kind == partition.TimeBased {
		for s.now >= s.nextTimeAssess {
			s.assessTimeBased(s.nextTimeAssess)
			s.nextTimeAssess += cfg.Scheme.Interval
		}
	}
	if s.metrics != nil {
		s.metrics.quanta.Inc()
	}
	if s.warm {
		for _, d := range s.domains {
			if d.finished {
				continue
			}
			if d.part != nil || s.wayLLC != nil {
				d.samples = append(d.samples, d.committed)
			}
			ipc := d.core.IPCSince(d.lastSample)
			d.ipcSamples = append(d.ipcSamples, ipc)
			if tr := s.cfg.Tracer; tr != nil {
				snap := d.core.Snapshot()
				tr.Emit(&telemetry.DomainQuantum{
					Header:  telemetry.Header{AtNs: s.now.Nanoseconds(), Domain: d.idx},
					Retired: snap.Retired - d.lastSample.Retired,
					IPC:     ipc, CommittedBytes: d.committed,
				})
				// Monitor window closures are detected at quantum
				// granularity; the timestamp is the quantum boundary.
				if d.mon != nil {
					for w := d.mon.WindowsClosed(); d.monWindows < w; {
						d.monWindows++
						tr.Emit(&telemetry.MonitorWindowClosed{
							Header:   telemetry.Header{AtNs: s.now.Nanoseconds(), Domain: d.idx},
							Window:   d.mon.Window(),
							Windows:  d.monWindows,
							Observed: d.mon.Observed(),
						})
					}
				}
			}
			if s.metrics != nil {
				s.metrics.ipcHist.Observe(ipc)
			}
			d.lastSample = d.core.Snapshot()
		}
	}
	for _, d := range s.domains {
		if !d.finished {
			return false, nil
		}
	}
	return true, nil
}

// Result assembles the results of a simulation whose Step reported done.
func (s *Sim) Result() *Result {
	res := &Result{Scheme: s.cfg.Scheme, Duration: s.now}
	for i, d := range s.domains {
		end, endLLC, endL1 := d.finishCore, d.finishLLC, d.finishL1
		if !d.finished {
			end, endLLC, endL1 = d.core.Snapshot(), s.llcStats(d), d.l1Stats
		}
		instr := end.Retired - d.base.Retired
		cycles := end.Cycles - d.base.Cycles
		ipc := 0.0
		if cycles > 0 {
			ipc = float64(instr) / cycles
		}
		llc := endLLC
		llc.Sub(d.baseLLC)
		l1 := endL1
		l1.Sub(d.baseL1)
		res.Domains = append(res.Domains, DomainResult{
			Name:             d.spec.Name,
			Instructions:     instr,
			Cycles:           cycles,
			IPC:              ipc,
			FinishTime:       d.finishTime,
			Trace:            d.trace,
			Leakage:          s.acct.Domain(i),
			PartitionSamples: d.samples,
			IPCSamples:       d.ipcSamples,
			LLC:              llc,
			L1:               l1,
		})
	}
	return res
}

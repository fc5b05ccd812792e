package monitor

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"untangle/internal/cache"
)

func testConfig() Config {
	return Config{
		Sizes:      DefaultSizes(),
		Ways:       16,
		Window:     1 << 16,
		SampleLog2: 3,
		Buckets:    8,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Ways: 16, Window: 100}); err == nil {
		t.Error("empty sizes accepted")
	}
	if _, err := New(Config{Sizes: []int64{2 << 20, 1 << 20}, Ways: 16, Window: 100}); err == nil {
		t.Error("decreasing sizes accepted")
	}
	if _, err := New(Config{Sizes: DefaultSizes(), Ways: 16}); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := New(testConfig()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestDefaultSizesMatchTable3(t *testing.T) {
	s := DefaultSizes()
	if len(s) != 9 {
		t.Fatalf("len = %d, want 9 supported sizes", len(s))
	}
	if s[0] != 128<<10 || s[8] != 8<<20 {
		t.Errorf("range = [%d, %d], want [128kB, 8MB]", s[0], s[8])
	}
}

func TestUtilitiesMonotoneInSize(t *testing.T) {
	// Hits under a bigger candidate size can only be >= hits under a
	// smaller one for the same access stream (LRU stack property holds
	// approximately under sampling; with a fixed seed it must hold here).
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	ws := uint64(3 << 20) // 3MB working set
	for i := 0; i < 400000; i++ {
		m.Observe(uint64(r.Int63n(int64(ws))), false)
	}
	u := m.Utilities()
	for i := 1; i < len(u); i++ {
		// Allow tiny sampling noise (1% of window).
		if u[i].Hits+float64(m.cfg.Window)/100 < u[i-1].Hits {
			t.Errorf("hits decreased with size: %v -> %v", u[i-1], u[i])
		}
	}
}

func TestSmallWorkingSetSaturatesEarly(t *testing.T) {
	// A 64kB working set must already achieve near-max hits at the 128kB
	// candidate: the utility curve saturates at the working-set size.
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300000; i++ {
		m.Observe(uint64(r.Int63n(64<<10)), false)
	}
	u := m.Utilities()
	if u[0].Hits < 0.9*u[len(u)-1].Hits {
		t.Errorf("128kB hits %v should be within 10%% of 8MB hits %v for a 64kB working set",
			u[0].Hits, u[len(u)-1].Hits)
	}
}

func TestLargeWorkingSetBenefitsFromSize(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 600000; i++ {
		m.Observe(uint64(r.Int63n(6<<20)), false)
	}
	u := m.Utilities()
	if u[8].Hits <= 2*u[0].Hits {
		t.Errorf("a 6MB working set should hit far more at 8MB (%v) than at 128kB (%v)",
			u[8].Hits, u[0].Hits)
	}
}

func TestWindowSlides(t *testing.T) {
	cfg := testConfig()
	cfg.Window = 8000
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: hot 32kB loop -> high hits at every size.
	for i := 0; i < 50000; i++ {
		m.Observe(uint64(i%(32<<10)/64)*64, false)
	}
	hot := m.Utilities()[0].Hits
	// Phase 2: pure streaming (never reused) -> hits must decay away once
	// the window has slid past the hot phase.
	for i := 0; i < 50000; i++ {
		m.Observe(uint64(1<<30)+uint64(i)*64, false)
	}
	cold := m.Utilities()[0].Hits
	if cold > hot/4 {
		t.Errorf("window did not slide: hot %v, cold %v", hot, cold)
	}
}

func TestObservedCounts(t *testing.T) {
	m, _ := New(testConfig())
	for i := 0; i < 1234; i++ {
		m.Observe(uint64(i)*64, false)
	}
	if m.Observed() != 1234 {
		t.Errorf("observed = %d, want 1234", m.Observed())
	}
}

func TestResetClearsWindowOnly(t *testing.T) {
	m, _ := New(testConfig())
	for i := 0; i < 100000; i++ {
		m.Observe(uint64(i%(64<<10)), false)
	}
	m.Reset()
	for _, u := range m.Utilities() {
		if u.Hits != 0 {
			t.Errorf("size %d has %v hits after Reset", u.SizeBytes, u.Hits)
		}
	}
	// Shadow tags survive: the very next access to a recently-touched line
	// still hits, so utilities ramp immediately.
	m.Observe(0, false)
	if u := m.Utilities(); u[len(u)-1].Hits == 0 {
		t.Error("shadow tags were flushed by Reset")
	}
}

func TestTimingIndependenceSameStreamSameUtilities(t *testing.T) {
	// The metric is a pure function of the observed access sequence: two
	// monitors fed the identical sequence report identical utilities.
	// (This is the package-level statement of Principle 1.)
	mk := func() []Utility {
		m, _ := New(testConfig())
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 200000; i++ {
			m.Observe(uint64(r.Int63n(2<<20)), r.Intn(8) == 0)
		}
		return m.Utilities()
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("utilities diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSecretExclusionChangesNothingWhenExcluded(t *testing.T) {
	// Feeding only the public subsequence is the caller's job; verify that
	// a monitor fed public-only ops is unaffected by however many secret
	// accesses the program also performed (they are simply never passed).
	public := func(m *Monitor) {
		for i := 0; i < 100000; i++ {
			m.Observe(uint64(i%(256<<10)), false)
		}
	}
	m1, _ := New(testConfig())
	public(m1)
	m2, _ := New(testConfig())
	public(m2) // identical public stream; "secret" accesses omitted
	u1, u2 := m1.Utilities(), m2.Utilities()
	for i := range u1 {
		if u1[i] != u2[i] {
			t.Fatal("public-only metric differed")
		}
	}
}

func TestPropertyUtilitiesBoundedByWindow(t *testing.T) {
	f := func(seed int64) bool {
		cfg := testConfig()
		cfg.Window = 4096
		m, err := New(cfg)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 20000; i++ {
			m.Observe(uint64(r.Int63n(1<<21)), false)
		}
		for _, u := range m.Utilities() {
			// Scaled hits cannot exceed the window length by more than
			// sampling variance allows; use a generous 3x bound to catch
			// gross accounting bugs without flaking.
			if u.Hits > 3*float64(cfg.Window) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestShadowGeometryRespectsMinimum(t *testing.T) {
	cfg := testConfig()
	cfg.SampleLog2 = 10 // extreme sampling
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.Sizes {
		if sets := m.shadows.Sets(i); sets < 4 {
			t.Errorf("shadow %d has %d sets, want >= 4", i, sets)
		}
	}
	if ways := m.shadows.Ways(); ways != 16 {
		t.Errorf("shadow ways = %d, want 16", ways)
	}
}

// unsampledConfig is the monitor of the bench-scale simulations
// (sim.Config.Scale below 0.005): every access simulated, so the shadow
// arrays are full-size, 8 MB for the largest candidate.
func unsampledConfig() Config {
	cfg := testConfig()
	cfg.SampleLog2 = 0
	return cfg
}

// shadowLines is the number of lines the shadow arrays of cfg model.
func shadowLines(cfg Config) int64 {
	var n int64
	for _, size := range cfg.Sizes {
		n += size / cache.LineBytes
	}
	return n
}

func TestHitMaskAllocs(t *testing.T) {
	m, err := New(unsampledConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	if n := testing.AllocsPerRun(1000, func() { m.HitMask(uint64(r.Int63n(16<<20)), false) }); n != 0 {
		t.Errorf("HitMask: %v allocs per access, want 0", n)
	}
}

// TestMonitorShadowBytes pins the shadow arrays' footprint: tags only, at
// most 8 bytes per modelled line plus a fixed overhead. (Full caches with
// LRU ticks and dirty bits cost 17.)
func TestMonitorShadowBytes(t *testing.T) {
	cfg := unsampledConfig()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := New(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(m)
	const overhead = 16 << 10
	lines := shadowLines(cfg)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*lines+overhead); got > limit {
		t.Errorf("New allocated %d B for %d shadow lines (%.2f B/line), want <= %d", got, lines, float64(got)/float64(lines), limit)
	}
}

// BenchmarkHitMask measures one observed access on the unsampled monitor
// over a working set twice the largest shadow array, so most probes miss
// the host's caches, as they do in a bench-scale mix.
func BenchmarkHitMask(b *testing.B) {
	m, err := New(unsampledConfig())
	if err != nil {
		b.Fatal(err)
	}
	const workingSet = 16 << 20
	x := uint64(1)
	next := func() uint64 { // xorshift64: cheap next to a probe
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x & (workingSet - 1)
	}
	for i := 0; i < 1<<20; i++ { // warm: fill every set
		m.HitMask(next(), false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hitMaskSink = m.HitMask(next(), false)
	}
}

var hitMaskSink uint16

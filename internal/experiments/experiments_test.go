package experiments

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"untangle/internal/core"
	"untangle/internal/partition"
	"untangle/internal/sim"
	"untangle/internal/workload"
)

// testScale keeps the mix tests quick; the shapes asserted here are robust
// down to this scale (the bench harness runs larger).
const testScale = 0.003

func runMix1(t *testing.T) *MixResult {
	t.Helper()
	mix, err := workload.MixByID(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMix(mix, Options{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

var mix1Cache *MixResult

func mix1(t *testing.T) *MixResult {
	t.Helper()
	if mix1Cache == nil {
		mix1Cache = runMix1(t)
	}
	return mix1Cache
}

func TestBuildDomains(t *testing.T) {
	mix, _ := workload.MixByID(1)
	specs, err := BuildDomains(mix, 0.001, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 8 {
		t.Fatalf("%d domains, want 8", len(specs))
	}
	for i, s := range specs {
		if s.Stream == nil || s.Pressure == nil {
			t.Errorf("domain %d missing streams", i)
		}
		if s.Name != mix.Pairs[i].String() {
			t.Errorf("domain %d name %q", i, s.Name)
		}
		if err := s.CPU.Validate(); err != nil {
			t.Errorf("domain %d: %v", i, err)
		}
	}
	bad := mix
	bad.Pairs[0].SPEC = "nope"
	if _, err := BuildDomains(bad, 0.001, 0); err == nil {
		t.Error("bad mix accepted")
	}
}

// TestAssembleSensitivityUnmeasured: a curve whose 8MB IPC is zero or not
// finite cannot be normalized, so its row is unmeasured — adequate 0 and
// not LLC-sensitive — instead of falling through to 8MB and a star.
func TestAssembleSensitivityUnmeasured(t *testing.T) {
	sizes := []int64{1 << 20, 2 << 20, 8 << 20}
	for _, ipcs := range [][]float64{
		{0, 0, 0},
		{0.5, 0.7, 0},
		{math.NaN(), math.NaN(), math.NaN()},
		{0.5, 0.7, math.Inf(1)},
	} {
		r := assembleSensitivity("exchange2_0", sizes, ipcs)
		if r.Adequate != 0 || r.Sensitive {
			t.Errorf("IPCs %v: adequate %d, sensitive %v; want an unmeasured row (0, false)", ipcs, r.Adequate, r.Sensitive)
		}
	}
	if r := assembleSensitivity("mcf_0", sizes, []float64{0.2, 0.5, 1.0}); r.Adequate != 8<<20 || !r.Sensitive {
		t.Errorf("measured curve: adequate %d, sensitive %v; want 8MB, true", r.Adequate, r.Sensitive)
	}
}

func TestScaleCountFloor(t *testing.T) {
	if got := scaleCount(1_000_000, 0.000001); got != 1000 {
		t.Errorf("scaleCount floor = %d, want 1000", got)
	}
	if got := scaleCount(1_000_000, 0.5); got != 500_000 {
		t.Errorf("scaleCount = %d", got)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if len(o.kinds()) != 4 {
		t.Errorf("default kinds = %v", o.kinds())
	}
	if o.scale() != 1 {
		t.Errorf("default scale = %v", o.scale())
	}
	o.Scale = 2 // invalid, falls back to 1
	if o.scale() != 1 {
		t.Errorf("invalid scale not clamped: %v", o.scale())
	}
	o.Kinds = []partition.Kind{partition.Untangle}
	if len(o.kinds()) != 1 {
		t.Error("explicit kinds ignored")
	}
}

func TestMix1Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations; skipped in -short mode")
	}
	res := mix1(t)

	// Both dynamic schemes must beat Static system-wide (Figure 10 Mix 1).
	for _, kind := range []partition.Kind{partition.TimeBased, partition.Untangle} {
		speed, err := res.SystemSpeedup(kind)
		if err != nil {
			t.Fatal(err)
		}
		if speed < 1.02 {
			t.Errorf("%v system speedup = %v, want clearly above Static", kind, speed)
		}
	}

	// The two LLC-sensitive workloads (gcc_2, parest_0 at indexes 3 and 6)
	// must attain high speedups under the dynamic schemes.
	norm, err := res.NormalizedIPC(partition.Untangle)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{3, 6} {
		if norm[idx] < 1.2 {
			t.Errorf("sensitive workload %s speedup = %v, want > 1.2",
				res.Mix.Pairs[idx], norm[idx])
		}
	}
	// Insensitive workloads must not collapse.
	for _, idx := range []int{0, 1, 2, 4, 5, 7} {
		if norm[idx] < 0.85 {
			t.Errorf("insensitive workload %s normalized IPC = %v, want >= 0.85",
				res.Mix.Pairs[idx], norm[idx])
		}
	}
}

func TestMix1Leakage(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations; skipped in -short mode")
	}
	res := mix1(t)
	timeLeak, err := res.LeakagePerAssessment(partition.TimeBased)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range timeLeak {
		if math.Abs(v-math.Log2(9)) > 1e-9 {
			t.Errorf("Time leakage[%d] = %v, want log2 9", i, v)
		}
	}
	unLeak, err := res.LeakagePerAssessment(partition.Untangle)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range unLeak {
		if v >= math.Log2(9) {
			t.Errorf("Untangle leakage[%d] = %v, not below Time", i, v)
		}
	}
	row, err := res.Table6()
	if err != nil {
		t.Fatal(err)
	}
	if row.ReductionPerAssessment < 0.5 {
		t.Errorf("reduction = %v, paper reports 78%% on average", row.ReductionPerAssessment)
	}
	if row.UntangleAvgTotal >= row.TimeAvgTotal {
		t.Error("Untangle total leakage not below Time")
	}
	mf, err := res.MaintainFraction(partition.Untangle)
	if err != nil {
		t.Fatal(err)
	}
	if mf < 0.7 {
		t.Errorf("Maintain fraction = %v, paper reports ~90%%", mf)
	}
}

func TestMix1PartitionSummaries(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations; skipped in -short mode")
	}
	res := mix1(t)
	sums, err := res.PartitionSummaries(partition.Untangle)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 8 {
		t.Fatalf("%d summaries", len(sums))
	}
	// The sensitive workloads' median partitions must exceed the static 2MB;
	// at least one insensitive workload must sit below it.
	if sums[6].Median <= float64(2<<20) {
		t.Errorf("parest_0 median partition %v, want above 2MB", sums[6].Median)
	}
	below := false
	for _, idx := range []int{0, 1, 2, 4, 5, 7} {
		if sums[idx].Median < float64(2<<20) {
			below = true
		}
	}
	if !below {
		t.Error("no insensitive workload gave back capacity")
	}
}

func TestWorstCaseAccountingRaisesLeakage(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations; skipped in -short mode")
	}
	mix, _ := workload.MixByID(1)
	normal := mix1(t)
	worst, err := RunMix(mix, Options{
		Scale:               testScale,
		Kinds:               []partition.Kind{partition.Untangle},
		WorstCaseAccounting: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	nl, _ := normal.LeakagePerAssessment(partition.Untangle)
	wl, _ := worst.LeakagePerAssessment(partition.Untangle)
	derived, err := normal.Reaccount(partition.Untangle, Options{WorstCaseAccounting: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range nl {
		if wl[i] <= nl[i] {
			t.Errorf("workload %d: worst-case %v not above optimized %v", i, wl[i], nl[i])
		}
		if dl := derived[i].PerAssessment(); math.Float64bits(dl) != math.Float64bits(wl[i]) {
			t.Errorf("workload %d: re-accounted worst case %v, rerun %v", i, dl, wl[i])
		}
	}
}

// TestReaccountMatchesRerun pins MixResult.Reaccount to the simulations it
// stands in for. Worst-case accounting re-accounted from a mix's Untangle
// trace equals a WorstCaseAccounting rerun's leakage bit for bit, and every
// scheme's trace re-accounted under its own config reproduces the leakage
// its run charged.
func TestReaccountMatchesRerun(t *testing.T) {
	for _, id := range []int{1, 2, 3, 4} {
		id := id
		t.Run(fmt.Sprintf("mix%d", id), func(t *testing.T) {
			t.Parallel()
			mix, err := workload.MixByID(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, jobs := range fusionTestJobs {
				res, err := RunMix(mix, Options{Scale: fusionTestScale, Jobs: jobs})
				if err != nil {
					t.Fatal(err)
				}
				worst, err := RunMix(mix, Options{
					Scale:               fusionTestScale,
					Kinds:               []partition.Kind{partition.Untangle},
					WorstCaseAccounting: true,
					Jobs:                jobs,
				})
				if err != nil {
					t.Fatal(err)
				}
				derived, err := res.Reaccount(partition.Untangle, Options{WorstCaseAccounting: true})
				if err != nil {
					t.Fatal(err)
				}
				requireLeakageEqual(t, fmt.Sprintf("jobs=%d worst case", jobs), derived, worst.PerScheme[partition.Untangle])
				for kind, r := range res.PerScheme {
					own, err := res.Reaccount(kind, Options{})
					if err != nil {
						t.Fatal(err)
					}
					requireLeakageEqual(t, fmt.Sprintf("jobs=%d %v", jobs, kind), own, r)
				}
			}
		})
	}
}

// requireLeakageEqual asserts got is want's per-domain leakage, bit for bit.
func requireLeakageEqual(t *testing.T, label string, got []core.DomainLeakage, want *sim.Result) {
	t.Helper()
	if len(got) != len(want.Domains) {
		t.Fatalf("%s: %d domains, want %d", label, len(got), len(want.Domains))
	}
	for i, d := range want.Domains {
		if math.Float64bits(got[i].TotalBits) != math.Float64bits(d.Leakage.TotalBits) || !reflect.DeepEqual(got[i], d.Leakage) {
			t.Errorf("%s: domain %d (%s) re-accounted %+v, run charged %+v", label, i, d.Name, got[i], d.Leakage)
		}
	}
}

func TestMissingSchemeErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations; skipped in -short mode")
	}
	mix, _ := workload.MixByID(1)
	res, err := RunMix(mix, Options{Scale: testScale, Kinds: []partition.Kind{partition.Untangle}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.NormalizedIPC(partition.Untangle); err == nil {
		t.Error("normalization without Static baseline accepted")
	}
	if _, err := res.LeakagePerAssessment(partition.TimeBased); err == nil {
		t.Error("missing scheme accepted")
	}
	if _, err := res.Table6(); err == nil {
		t.Error("Table6 without Time run accepted")
	}
	if _, err := res.PartitionSummaries(partition.Shared); err == nil {
		t.Error("missing scheme accepted")
	}
	if _, err := res.MaintainFraction(partition.TimeBased); err == nil {
		t.Error("missing scheme accepted")
	}
}

func TestSensitivityClassification(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations; skipped in -short mode")
	}
	// A cheap two-benchmark check: one known-sensitive, one known-
	// insensitive benchmark classify correctly even at modest fidelity.
	sens := sensitivityOf(t, "mcf_0", 800_000)
	if !sens.Sensitive {
		t.Errorf("mcf_0 classified insensitive (adequate %d)", sens.Adequate)
	}
	insens := sensitivityOf(t, "imagick_0", 800_000)
	if insens.Sensitive {
		t.Errorf("imagick_0 classified sensitive (adequate %d)", insens.Adequate)
	}
	// Normalized IPC must be monotone-ish and end at 1.
	last := insens.NormIPC[len(insens.NormIPC)-1]
	if math.Abs(last-1) > 1e-9 {
		t.Errorf("final normalized IPC = %v, want 1", last)
	}
	if _, _, err := RunSensitivityUnit(context.Background(), SensitivityKey("nope"), 1000); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// sensitivityOf runs one benchmark's Figure 11 pass — the body a
// campaign's "sens/<name>" unit runs.
func sensitivityOf(t *testing.T, name string, instructions uint64) SensitivityResult {
	t.Helper()
	p, err := workload.SPECByName(name)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := runSensitivityPass(context.Background(), p, instructions)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTotalLLCDemand(t *testing.T) {
	study := []SensitivityResult{
		{Name: "mcf_0", Adequate: 6 << 20},
		{Name: "imagick_0", Adequate: 256 << 10},
	}
	mix := workload.Mix{Pairs: [8]workload.Pair{
		{SPEC: "mcf_0"}, {SPEC: "imagick_0"}, {SPEC: "mcf_0"}, {SPEC: "mcf_0"},
		{SPEC: "mcf_0"}, {SPEC: "mcf_0"}, {SPEC: "mcf_0"}, {SPEC: "mcf_0"},
	}}
	want := int64(7*(6<<20) + 256<<10)
	if got := TotalLLCDemand(mix, study); got != want {
		t.Errorf("demand = %d, want %d", got, want)
	}
}

func TestAdaptationDynamicBeatsStaticOnBurstyWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations; skipped in -short mode")
	}
	results, err := Adaptation(0.003, 1_500_000)
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[partition.Kind]AdaptationResult{}
	for _, r := range results {
		byKind[r.Kind] = r
	}
	static, ok := byKind[partition.Static]
	if !ok {
		t.Fatal("missing Static result")
	}
	if static.PartitionSwing != 0 {
		t.Errorf("Static partition swung by %d bytes", static.PartitionSwing)
	}
	for _, kind := range []partition.Kind{partition.TimeBased, partition.Untangle} {
		r := byKind[kind]
		if r.PartitionSwing <= 0 {
			t.Errorf("%v: no partition adaptation on a bursty workload", kind)
		}
		if r.BurstyIPC <= static.BurstyIPC {
			t.Errorf("%v: bursty IPC %v not above Static %v — dynamic adaptation broken",
				kind, r.BurstyIPC, static.BurstyIPC)
		}
	}
	un := byKind[partition.Untangle]
	tm := byKind[partition.TimeBased]
	if un.LeakagePerAssessment >= tm.LeakagePerAssessment {
		t.Errorf("Untangle leakage %v not below Time %v on the bursty workload",
			un.LeakagePerAssessment, tm.LeakagePerAssessment)
	}
}

func TestCooldownSweepTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations; skipped in -short mode")
	}
	mix, _ := workload.MixByID(1)
	points, err := CooldownSweep(mix, testScale, []float64{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	// Section 5.3.2: longer cooldown => lower leakage rate. The rate is the
	// quantity the mechanism controls; per-assessment bits GROW with the
	// effective cooldown (rarer, pricier transmissions), so assert on rate.
	for i := 1; i < len(points); i++ {
		if points[i].BitsPerSecond >= points[i-1].BitsPerSecond {
			t.Errorf("leakage rate did not fall with cooldown: %v -> %v bits/s",
				points[i-1].BitsPerSecond, points[i].BitsPerSecond)
		}
	}
	// Performance must not improve as the scheme gets less adaptive.
	if points[2].Speedup > points[0].Speedup*1.02 {
		t.Errorf("speedup rose with a 16x cooldown: %v vs %v", points[2].Speedup, points[0].Speedup)
	}
	for _, p := range points {
		if p.Speedup <= 0 || p.CooldownNs <= 0 {
			t.Errorf("malformed point %+v", p)
		}
	}
}

func TestBudgetExperimentFreezeCapsLeakage(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations; skipped in -short mode")
	}
	results, err := BudgetExperiment(testScale, 2_000_000, []float64{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	unlimited, capped := results[0], results[1]
	if unlimited.Frozen {
		t.Error("unlimited run froze")
	}
	if unlimited.LeakedBits <= 2 {
		t.Skipf("unlimited run leaked only %v bits; scenario too quiet to test the cap", unlimited.LeakedBits)
	}
	if !capped.Frozen {
		t.Fatal("2-bit budget did not freeze a bursty victim")
	}
	// Security: leakage stops near the threshold (at most one extra charge).
	if capped.LeakedBits >= unlimited.LeakedBits {
		t.Errorf("freeze did not cap leakage: %v vs %v", capped.LeakedBits, unlimited.LeakedBits)
	}
	if capped.LeakedBits > 2+4 {
		t.Errorf("leakage %v overshot the 2-bit threshold by more than one charge", capped.LeakedBits)
	}
	// Performance: the frozen victim cannot keep adapting, so it must not
	// outperform the unlimited run.
	if capped.VictimIPC > unlimited.VictimIPC*1.01 {
		t.Errorf("frozen victim IPC %v above unlimited %v", capped.VictimIPC, unlimited.VictimIPC)
	}
}

func TestReplicateStableAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations; skipped in -short mode")
	}
	mix, _ := workload.MixByID(1)
	rep, err := Replicate(mix, Options{Scale: testScale}, []uint64{1, 7, 42})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SpeedupMean <= 1 {
		t.Errorf("mean speedup %v, want above Static", rep.SpeedupMean)
	}
	// The random delay perturbs only enactment times; performance and
	// leakage must be stable across seeds.
	if spread := rep.SpeedupMax - rep.SpeedupMin; spread > 0.05*rep.SpeedupMean {
		t.Errorf("speedup spread %v too wide (mean %v)", spread, rep.SpeedupMean)
	}
	if rep.LeakPerAssessMax > 4*rep.LeakPerAssessMean && rep.LeakPerAssessMean > 0 {
		t.Errorf("leakage spread [%v, %v] too wide", rep.LeakPerAssessMin, rep.LeakPerAssessMax)
	}
	// Note: ActionSequencesMatch is reported, not asserted — in multi-domain
	// runs the delay shifts wall-clock interleavings, and cross-domain
	// monitor state is environment (Section 6.2), not the victim's secret.
	t.Logf("replication: speedup %v [%v, %v], leak %v, actions match: %v",
		rep.SpeedupMean, rep.SpeedupMin, rep.SpeedupMax, rep.LeakPerAssessMean, rep.ActionSequencesMatch)
}

func TestDelaySweepLowersLeakage(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations; skipped in -short mode")
	}
	mix, _ := workload.MixByID(1)
	points, err := DelaySweep(mix, testScale, []float64{0.25, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	// Mechanism 2: a wider delay lowers the per-resize charge.
	for i := 1; i < len(points); i++ {
		if points[i].BitsPerAssessment > points[i-1].BitsPerAssessment*1.001 {
			t.Errorf("leakage did not fall with delay width: %v -> %v",
				points[i-1].BitsPerAssessment, points[i].BitsPerAssessment)
		}
	}
	// The delay postpones actions but does not restrict them: performance
	// stays essentially unchanged.
	if points[2].Speedup < points[0].Speedup*0.95 {
		t.Errorf("wide delay crushed performance: %v vs %v", points[2].Speedup, points[0].Speedup)
	}
}

// Package experiments contains the evaluation harness: every table and
// figure of the paper's evaluation (Section 9 and Appendix B) maps to a
// function here, parameterized by a scale factor so the same code drives
// quick tests, the benchmark suite, and full-fidelity runs.
//
//	Figure 10, 12-17  ->  RunMix / MixResult
//	Figure 11         ->  SensitivityStudyContext
//	Table 6           ->  Table6 (over RunMix results)
//	Section 9 active-attacker paragraph -> RunMix with WorstCaseAccounting
package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"untangle/internal/isa"
	"untangle/internal/parallel"
	"untangle/internal/partition"
	"untangle/internal/sim"
	"untangle/internal/stats"
	"untangle/internal/telemetry"
	"untangle/internal/workload"
)

// Full-scale workload construction constants (Section 8): loop 1M crypto
// instructions + 10M SPEC instructions until the SPEC part reaches 500M
// (so 550M total per workload).
const (
	fullCryptoPhase = 1_000_000
	fullSPECPhase   = 10_000_000
	fullTotal       = 550_000_000
)

// Options tweaks a mix run.
type Options struct {
	// Scale shrinks instruction counts and time constants together
	// (DESIGN.md "Scaling"); 1.0 is the paper's full fidelity.
	Scale float64
	// Kinds selects the schemes to run; nil means all four of Table 4.
	Kinds []partition.Kind
	// WorstCaseAccounting disables the Section 5.3.4 Maintain optimization
	// (the active-attacker accounting of Section 9).
	WorstCaseAccounting bool
	// Annotated disables the Section 5.2 annotations when false. Default
	// (zero Options) means annotated; use the explicit field below.
	DisableAnnotations bool
	// Budget is the per-domain leakage budget in bits (0 = unlimited; the
	// paper's evaluation runs unlimited and measures).
	Budget float64
	// WayPartitioned switches the LLC to whole-way granularity (the
	// granularity ablation; the paper's evaluation uses set partitioning).
	WayPartitioned bool
	// Secret perturbs the crypto benchmarks' secret-dependent patterns.
	Secret uint64
	// SimSeed drives the schemes' random action delays (default 1).
	SimSeed uint64
	// TracerFor, when non-nil, supplies a telemetry tracer per scheme.
	// The schemes run concurrently, so give each scheme its own sink (a
	// telemetry.Buffer) and serialize the buffers in a fixed order
	// afterwards to keep trace files deterministic.
	TracerFor func(partition.Kind) *telemetry.Tracer
	// MetricsFor, when non-nil, supplies a metrics registry per scheme.
	MetricsFor func(partition.Kind) *telemetry.Registry
	// DisableFusion forces RunMix onto the per-scheme oracle path: each
	// scheme regenerates and re-simulates its own front-end, as the fused
	// engine (mixlane.go) would otherwise share one front-end pass across
	// the schemes. Results are bitwise identical either way
	// (TestMixFusionMatchesOracle); the oracle is kept for verification
	// and as the fallback for over-budget tapes.
	DisableFusion bool
	// Jobs bounds the experiment engine's worker pool: 0 uses GOMAXPROCS,
	// 1 forces the legacy sequential path, N caps concurrency at N. Every
	// fan-out point (scheme, seed, or size) owns its simulator, generators,
	// and telemetry buffer, and results are always collected and folded in
	// index order, so the value changes wall-clock time only — never
	// results (see the equivalence tests in parallel_test.go).
	Jobs int
}

func (o Options) kinds() []partition.Kind {
	if len(o.Kinds) > 0 {
		return o.Kinds
	}
	return []partition.Kind{partition.Static, partition.TimeBased, partition.Untangle, partition.Shared}
}

func (o Options) scale() float64 {
	if o.Scale <= 0 || o.Scale > 1 {
		return 1
	}
	return o.Scale
}

// BuildDomains constructs the 8 domain specs for a mix at a scale.
func BuildDomains(mix workload.Mix, scale float64, secret uint64) ([]sim.DomainSpec, error) {
	specs := make([]sim.DomainSpec, 0, len(mix.Pairs))
	for _, pair := range mix.Pairs {
		cryptoPhase := scaleCount(fullCryptoPhase, scale)
		specPhase := scaleCount(fullSPECPhase, scale)
		total := scaleCount(fullTotal, scale)
		stream, err := pair.PairStream(cryptoPhase, specPhase, total, secret)
		if err != nil {
			return nil, err
		}
		// Pressure stream: same behaviour, endless, distinct seed so it does
		// not replay the measured stream verbatim.
		specP, err := workload.SPECByName(pair.SPEC)
		if err != nil {
			return nil, err
		}
		pressureParams := specP
		pressureParams.Seed += 0xA5A5
		pressure, err := workload.NewGenerator(pressureParams)
		if err != nil {
			return nil, err
		}
		specs = append(specs, sim.DomainSpec{
			Name:     pair.String(),
			Stream:   stream,
			Pressure: pressure,
			CPU:      specP.CPUParams(),
		})
	}
	return specs, nil
}

func scaleCount(n uint64, scale float64) uint64 {
	s := uint64(float64(n) * scale)
	if s < 1000 {
		s = 1000
	}
	return s
}

// MixResult holds one mix's results across schemes.
type MixResult struct {
	Mix       workload.Mix
	Scale     float64
	PerScheme map[partition.Kind]*sim.Result
}

// RunMix runs one mix under the selected schemes. The schemes are fully
// independent simulations and run on the experiment engine's worker pool,
// bounded by Options.Jobs.
func RunMix(mix workload.Mix, opts Options) (*MixResult, error) {
	return RunMixContext(context.Background(), mix, opts)
}

// RunMixContext is RunMix with cancellation: canceling ctx stops schemes
// that have not started yet and returns the context's error.
//
// By default the mix runs on the fused engine (mixlane.go): one front-end
// pass shared by all schemes, bitwise-equal to the oracle below. The
// oracle runs when fusion is disabled or the mix is ineligible.
func RunMixContext(ctx context.Context, mix workload.Mix, opts Options) (*MixResult, error) {
	if !opts.DisableFusion {
		res, ok, err := runMixFused(ctx, mix, opts)
		if err != nil {
			return nil, err
		}
		if ok {
			return res, nil
		}
	}
	return runMixOracle(ctx, mix, opts)
}

// mixSimConfig is the simulator configuration one scheme runs a mix under
// with opts: the oracle's, each fused lane's, and (with the sinks cleared)
// the fused front end's.
func mixSimConfig(opts Options, kind partition.Kind, scale float64) sim.Config {
	scheme := partition.DefaultScheme(kind)
	scheme.Annotated = !opts.DisableAnnotations
	cfg := sim.Scaled(scheme, scale)
	cfg.OptimizeMaintain = !opts.WorstCaseAccounting
	cfg.Budget = opts.Budget
	if opts.WayPartitioned {
		cfg.WayPartitioned = true
		cfg.Sizes = cfg.WaySizes()
	}
	if opts.SimSeed != 0 {
		cfg.Seed = opts.SimSeed
	}
	if opts.TracerFor != nil {
		cfg.Tracer = opts.TracerFor(kind)
	}
	if opts.MetricsFor != nil {
		cfg.Metrics = opts.MetricsFor(kind)
	}
	return cfg
}

// runMixOracle is the reference path: every scheme generates and simulates
// its own front-end from scratch.
func runMixOracle(ctx context.Context, mix workload.Mix, opts Options) (*MixResult, error) {
	res := &MixResult{Mix: mix, Scale: opts.scale(), PerScheme: map[partition.Kind]*sim.Result{}}
	kinds := opts.kinds()
	results, err := parallel.Map(ctx, len(kinds), opts.Jobs, func(_ context.Context, i int) (*sim.Result, error) {
		kind := kinds[i]
		cfg := mixSimConfig(opts, kind, res.Scale)
		specs, err := BuildDomains(mix, res.Scale, opts.Secret)
		if err != nil {
			return nil, err
		}
		s, err := sim.New(cfg, specs)
		if err != nil {
			return nil, fmt.Errorf("mix %d, %v: %w", mix.ID, kind, err)
		}
		r, err := s.Run()
		if err != nil {
			return nil, fmt.Errorf("mix %d, %v: %w", mix.ID, kind, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for i, kind := range kinds {
		res.PerScheme[kind] = results[i]
	}
	return res, nil
}

// Replication aggregates one metric over repeated runs with different
// random-delay seeds, reporting its spread — the stability check behind the
// single-seed numbers in EXPERIMENTS.md.
type Replication struct {
	Seeds                []uint64
	SpeedupMean          float64
	SpeedupMin           float64
	SpeedupMax           float64
	LeakPerAssessMean    float64
	LeakPerAssessMin     float64
	LeakPerAssessMax     float64
	ActionSequencesMatch bool
}

// Replicate runs the mix under Untangle (plus the Static baseline) once per
// seed and summarizes the spread. It also checks the central determinism
// property across seeds: the random delay perturbs only WHEN actions apply,
// so the action sequences must be identical for every seed.
//
// The seeds fan out onto the worker pool (Options.Jobs); per-seed outputs
// are collected by seed index and folded sequentially, so the summary is
// identical to the legacy one-seed-at-a-time loop.
func Replicate(mix workload.Mix, opts Options, seeds []uint64) (Replication, error) {
	if len(seeds) == 0 {
		seeds = []uint64{1, 2, 3}
	}
	rep := Replication{Seeds: seeds, ActionSequencesMatch: true}
	type seedRun struct {
		speed   float64
		leak    float64
		actions [][]int64
	}
	runs, err := parallel.Map(context.Background(), len(seeds), opts.Jobs,
		func(ctx context.Context, i int) (seedRun, error) {
			o := opts
			o.SimSeed = seeds[i]
			o.Kinds = []partition.Kind{partition.Static, partition.Untangle}
			// The two schemes of each seed already saturate small pools;
			// run them sequentially inside the seed-level fan-out so jobs
			// bounds total concurrency instead of multiplying.
			o.Jobs = 1
			res, err := RunMixContext(ctx, mix, o)
			if err != nil {
				return seedRun{}, err
			}
			var run seedRun
			if run.speed, err = res.SystemSpeedup(partition.Untangle); err != nil {
				return seedRun{}, err
			}
			leak, err := res.LeakagePerAssessment(partition.Untangle)
			if err != nil {
				return seedRun{}, err
			}
			run.leak = stats.Mean(leak)
			run.actions = make([][]int64, len(res.PerScheme[partition.Untangle].Domains))
			for j, d := range res.PerScheme[partition.Untangle].Domains {
				run.actions[j] = d.Trace.ActionSizes()
			}
			return run, nil
		})
	if err != nil {
		return rep, err
	}
	var speeds, leaks []float64
	firstActions := runs[0].actions
	for _, run := range runs {
		speeds = append(speeds, run.speed)
		leaks = append(leaks, run.leak)
		for i := range run.actions {
			if !equalInt64(run.actions[i], firstActions[i]) {
				rep.ActionSequencesMatch = false
			}
		}
	}
	rep.SpeedupMean = stats.Mean(speeds)
	rep.SpeedupMin = stats.Quantile(speeds, 0)
	rep.SpeedupMax = stats.Quantile(speeds, 1)
	rep.LeakPerAssessMean = stats.Mean(leaks)
	rep.LeakPerAssessMin = stats.Quantile(leaks, 0)
	rep.LeakPerAssessMax = stats.Quantile(leaks, 1)
	return rep, nil
}

func equalInt64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// NormalizedIPC returns per-workload IPC under kind divided by Static
// (the bottom charts of Figures 10 and 12-17). It requires Static in the
// result set.
func (m *MixResult) NormalizedIPC(kind partition.Kind) ([]float64, error) {
	base, ok := m.PerScheme[partition.Static]
	if !ok {
		return nil, fmt.Errorf("experiments: Static baseline missing")
	}
	r, ok := m.PerScheme[kind]
	if !ok {
		return nil, fmt.Errorf("experiments: %v results missing", kind)
	}
	out := make([]float64, len(r.Domains))
	for i := range r.Domains {
		if base.Domains[i].IPC <= 0 {
			return nil, fmt.Errorf("experiments: zero Static IPC for %s", base.Domains[i].Name)
		}
		out[i] = r.Domains[i].IPC / base.Domains[i].IPC
	}
	return out, nil
}

// SystemSpeedup returns the geometric-mean normalized IPC (the "system-wide
// speedup" of Section 9).
func (m *MixResult) SystemSpeedup(kind partition.Kind) (float64, error) {
	norm, err := m.NormalizedIPC(kind)
	if err != nil {
		return 0, err
	}
	return stats.GeoMean(norm), nil
}

// LeakagePerAssessment returns each workload's average leakage per
// assessment under kind (the middle charts).
func (m *MixResult) LeakagePerAssessment(kind partition.Kind) ([]float64, error) {
	r, ok := m.PerScheme[kind]
	if !ok {
		return nil, fmt.Errorf("experiments: %v results missing", kind)
	}
	out := make([]float64, len(r.Domains))
	for i, d := range r.Domains {
		out[i] = d.Leakage.PerAssessment()
	}
	return out, nil
}

// TotalLeakage returns each workload's total leakage in bits under kind.
func (m *MixResult) TotalLeakage(kind partition.Kind) ([]float64, error) {
	r, ok := m.PerScheme[kind]
	if !ok {
		return nil, fmt.Errorf("experiments: %v results missing", kind)
	}
	out := make([]float64, len(r.Domains))
	for i, d := range r.Domains {
		out[i] = d.Leakage.TotalBits
	}
	return out, nil
}

// PartitionSummaries returns the five-number partition-size summaries (the
// top charts) for each workload under kind.
func (m *MixResult) PartitionSummaries(kind partition.Kind) ([]stats.Summary, error) {
	r, ok := m.PerScheme[kind]
	if !ok {
		return nil, fmt.Errorf("experiments: %v results missing", kind)
	}
	out := make([]stats.Summary, len(r.Domains))
	for i, d := range r.Domains {
		out[i] = stats.SummarizeInt64(d.PartitionSamples)
	}
	return out, nil
}

// MaintainFraction returns the overall fraction of assessments that were
// Maintains under kind (Section 9 reports ~90% for Untangle).
func (m *MixResult) MaintainFraction(kind partition.Kind) (float64, error) {
	r, ok := m.PerScheme[kind]
	if !ok {
		return 0, fmt.Errorf("experiments: %v results missing", kind)
	}
	var assess, visible int
	for _, d := range r.Domains {
		assess += d.Leakage.Assessments
		visible += d.Leakage.Visible
	}
	if assess == 0 {
		return 0, nil
	}
	return 1 - float64(visible)/float64(assess), nil
}

// Table6Row summarizes one mix for Table 6.
type Table6Row struct {
	MixID                  int
	TimeAvgPerAssessment   float64
	TimeAvgTotal           float64
	UntangleAvgPerAssess   float64
	UntangleAvgTotal       float64
	UntangleMaintainFrac   float64
	ReductionPerAssessment float64 // 1 - Untangle/Time
}

// Table6 computes the Table 6 summary for a mix result (requires Time and
// Untangle runs).
func (m *MixResult) Table6() (Table6Row, error) {
	timePer, err := m.LeakagePerAssessment(partition.TimeBased)
	if err != nil {
		return Table6Row{}, err
	}
	timeTot, _ := m.TotalLeakage(partition.TimeBased)
	unPer, err := m.LeakagePerAssessment(partition.Untangle)
	if err != nil {
		return Table6Row{}, err
	}
	unTot, _ := m.TotalLeakage(partition.Untangle)
	mf, _ := m.MaintainFraction(partition.Untangle)
	row := Table6Row{
		MixID:                m.Mix.ID,
		TimeAvgPerAssessment: stats.Mean(timePer),
		TimeAvgTotal:         stats.Mean(timeTot),
		UntangleAvgPerAssess: stats.Mean(unPer),
		UntangleAvgTotal:     stats.Mean(unTot),
		UntangleMaintainFrac: mf,
	}
	if row.TimeAvgPerAssessment > 0 {
		row.ReductionPerAssessment = 1 - row.UntangleAvgPerAssess/row.TimeAvgPerAssessment
	}
	return row, nil
}

// SensitivityResult is one row of the Figure 11 study.
type SensitivityResult struct {
	Name string
	// Sizes and NormIPC give the normalized-IPC curve (IPC at each
	// supported size divided by IPC at 8MB).
	Sizes    []int64
	NormIPC  []float64
	Adequate int64
	// Sensitive is true when the adequate LLC size exceeds the 2MB Static
	// partition (Section 8's classification).
	Sensitive bool
}

// sensitivitySizes returns the supported partition sizes of the study
// (ascending, ending at the 8MB normalization point).
func sensitivitySizes() []int64 {
	return sim.DefaultConfig(partition.DefaultScheme(partition.Static)).Sizes
}

// sensitivityPoint simulates one benchmark at one static partition size and
// returns its steady-state IPC. It is the direct path through the full
// simulator — kept as the ORACLE for the multi-lane engine: the engine must
// reproduce this function's IPC bitwise at every size (multilane_test.go),
// which is what makes the fused study a provable-equivalence optimization.
func sensitivityPoint(p workload.Params, size int64, instructions uint64) (float64, error) {
	scheme := partition.DefaultScheme(partition.Static)
	scheme.StartSize = size
	cfg := sim.DefaultConfig(scheme)
	cfg.Warmup = 0
	cfg.WarmupInstructions = instructions
	cfg.SampleEvery = 100 * time.Microsecond
	gen, err := workload.NewGenerator(p)
	if err != nil {
		return 0, err
	}
	s, err := sim.New(cfg, []sim.DomainSpec{{
		Name:   p.Name,
		Stream: isa.NewLimited(gen, 2*instructions),
		CPU:    p.CPUParams(),
	}})
	if err != nil {
		return 0, err
	}
	r, err := s.Run()
	if err != nil {
		return 0, err
	}
	return r.Domains[0].IPC, nil
}

// assembleSensitivity folds a benchmark's per-size IPCs (ascending size
// order) into the normalized curve and its adequacy classification.
func assembleSensitivity(name string, sizes []int64, ipcs []float64) SensitivityResult {
	res := SensitivityResult{Name: name, Sizes: sizes}
	maxIPC := ipcs[len(ipcs)-1]
	res.NormIPC = make([]float64, len(sizes))
	res.Adequate = sizes[len(sizes)-1]
	for i := range sizes {
		res.NormIPC[i] = ipcs[i] / maxIPC
	}
	for i := range sizes {
		if res.NormIPC[i] >= 0.9 {
			res.Adequate = sizes[i]
			break
		}
	}
	res.Sensitive = res.Adequate > 2<<20
	return res
}

// Sensitivity runs the Figure 11 study for one benchmark: IPC with every
// supported partition size, normalized to the 8MB maximum. instructions is
// the measured slice length; an equally long warmup precedes it so the
// partition reaches steady state before measurement (the paper's SimPoint
// slices are long enough that warmup is negligible; at reduced scale it is
// not). For classification-stable results use at least ~1.5M instructions.
//
// All nine sizes are computed by the multi-lane engine in one pass over the
// benchmark's op stream: the generator and the private L1 run once, and only
// the per-size LLC lanes and cycle accounting replicate (see multilane.go).
// The per-size IPCs are bitwise identical to running sensitivityPoint once
// per size — the engine is an optimization, never an approximation.
func Sensitivity(name string, instructions uint64) (SensitivityResult, error) {
	p, err := workload.SPECByName(name)
	if err != nil {
		return SensitivityResult{}, err
	}
	e := enginePool.Get().(*laneEngine)
	defer enginePool.Put(e)
	ipcs, _, err := e.run(context.Background(), FrontEndCache(), p, instructions)
	if err != nil {
		return SensitivityResult{}, err
	}
	return assembleSensitivity(name, e.sizes, ipcs), nil
}

// sortedSPECParams returns the benchmark table sorted by name — the Figure
// 11 order — so the study indexes parameters directly instead of paying a
// linear SPECByName lookup per benchmark.
func sortedSPECParams() []workload.Params {
	params := append([]workload.Params(nil), workload.SPECBenchmarks...)
	sort.Slice(params, func(i, j int) bool { return params[i].Name < params[j].Name })
	return params
}

// SensitivityStudyContext runs Sensitivity for all 36 benchmarks on the
// multi-lane engine: 36 benchmark-level tasks fan out onto the worker pool
// (each task is one front-end pass feeding all nine sizes), and results are
// collected by benchmark index, so they are identical for every jobs value.
// Canceling ctx stops benchmarks that have not started, interrupts
// in-flight engine passes at their next front-end chunk, and returns the
// context's error.
// Each benchmark runs the same per-unit body as SensitivityStudyCheckpointed,
// so every study — journaled or not — retries transient per-pass failures
// and isolates panics to the failing benchmark; results stay in memory,
// with no journal encoding on the way.
func SensitivityStudyContext(ctx context.Context, instructions uint64, jobs int) ([]SensitivityResult, error) {
	params := sortedSPECParams()
	return parallel.Map(ctx, len(params), jobs, func(ctx context.Context, i int) (SensitivityResult, error) {
		unitDone := ObserveUnit("sensitivity", params[i].Name)
		r, outcome, err := runSensitivityPass(ctx, params[i], instructions)
		if unitDone != nil {
			unitDone(outcome, err)
		}
		return r, err
	})
}

// TotalLLCDemand sums the adequate LLC sizes of a mix's SPEC members given a
// sensitivity study (the "Total LLC demand" figure captions).
func TotalLLCDemand(mix workload.Mix, study []SensitivityResult) int64 {
	bySize := map[string]int64{}
	for _, r := range study {
		bySize[r.Name] = r.Adequate
	}
	var total int64
	for _, p := range mix.Pairs {
		total += bySize[p.SPEC]
	}
	return total
}

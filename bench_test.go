// Smoke benchmarks for the paper's remaining evaluation figures (Figures
// 12-17, the active attacker, the adaptation motivation, the R'max table)
// and for the ablations DESIGN.md calls out. Each runs its experiment at
// benchScale and reports the headline quantities via b.ReportMetric:
//
//	go test -run '^$' -bench . -benchtime 1x .
//
// runs each once, which is how scripts/ci.sh keeps them from rotting. They
// are not the repository's timing system: perfbench/run.sh times whole
// campaigns end to end (BENCHMARK.json), and cmd/experiments -scale prints
// the paper's figures at any fidelity (EXPERIMENTS.md uses 0.01).
package untangle_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"untangle/internal/covert"
	"untangle/internal/experiments"
	"untangle/internal/parallel"
	"untangle/internal/partition"
	"untangle/internal/stats"
	"untangle/internal/workload"
)

// benchScale is the simulated fraction of the paper's instruction budgets,
// and benchJobs the worker-pool size (0 = GOMAXPROCS; results are identical
// for every value).
const (
	benchScale = 0.002
	benchJobs  = 0
)

// reportMixMetrics attaches the Figure 10-style headline metrics.
func reportMixMetrics(b *testing.B, res *experiments.MixResult) {
	b.Helper()
	for _, kind := range []partition.Kind{partition.TimeBased, partition.Untangle, partition.Shared} {
		speed, err := res.SystemSpeedup(kind)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(speed, "speedup-"+kind.String())
	}
	for _, kind := range []partition.Kind{partition.TimeBased, partition.Untangle} {
		leak, err := res.LeakagePerAssessment(kind)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.Mean(leak), "bits/assess-"+kind.String())
	}
	mf, err := res.MaintainFraction(partition.Untangle)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(mf, "maintain-frac")
}

// benchmarkMix runs one mix under every scheme.
func benchmarkMix(b *testing.B, mixID int) {
	mix, err := workload.MixByID(mixID)
	if err != nil {
		b.Fatal(err)
	}
	var res *experiments.MixResult
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunMix(mix, experiments.Options{Scale: benchScale, Jobs: benchJobs})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportMixMetrics(b, res)
}

// Figures 12-17: the remaining twelve mixes, one sub-benchmark each.
func BenchmarkFigures12to17(b *testing.B) {
	for id := 5; id <= 16; id++ {
		b.Run(fmt.Sprintf("Mix%d", id), func(b *testing.B) { benchmarkMix(b, id) })
	}
}

// Section 9, active attacker: Untangle without the Maintain optimization.
func BenchmarkActiveAttacker(b *testing.B) {
	var rates []float64
	for i := 0; i < b.N; i++ {
		var err error
		rates, err = parallel.Map(context.Background(), 4, benchJobs,
			func(ctx context.Context, i int) (float64, error) {
				mix, err := workload.MixByID(i + 1)
				if err != nil {
					return 0, err
				}
				res, err := experiments.RunMixContext(ctx, mix, experiments.Options{
					Scale:               benchScale,
					Kinds:               []partition.Kind{partition.Untangle},
					WorstCaseAccounting: true,
					Jobs:                1,
				})
				if err != nil {
					return 0, err
				}
				leak, err := res.LeakagePerAssessment(partition.Untangle)
				if err != nil {
					return 0, err
				}
				return stats.Mean(leak), nil
			})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(stats.Mean(rates), "bits/assess-worst")
}

// Section 1 motivation: dynamic schemes track a bursty workload's demand
// swings; Static cannot. Reports the bursty workload's IPC per scheme.
func BenchmarkAdaptationBurstyWorkload(b *testing.B) {
	var results []experiments.AdaptationResult
	var err error
	for i := 0; i < b.N; i++ {
		results, err = experiments.Adaptation(benchScale, uint64(550_000_000*benchScale))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		b.ReportMetric(r.BurstyIPC, "bursty-ipc-"+r.Kind.String())
	}
}

// Appendix A: the R'max table computation itself. covert.NewRateTable reads
// the default table from its offline memo, so this solves the default
// table's channels (m = 0..8) with the Dinkelbach solver directly: inputs
// from the effective cooldown (m+1)Tc over 16 delay widths in 128 steps,
// under uniform delay, at Tc/40 resolution.
func BenchmarkRmaxComputation(b *testing.B) {
	cfg := covert.DefaultTableConfig()
	const tcUnits, noiseUnits, step, maxMaintains = 40, 40, 5, 8
	results := make([]covert.Result, maxMaintains+1)
	for i := 0; i < b.N; i++ {
		for m := range results {
			var durations []int
			for d := tcUnits * (m + 1); d <= tcUnits*(m+1)+16*noiseUnits; d += step {
				durations = append(durations, d)
			}
			ch, err := covert.NewChannel(durations, covert.UniformNoise(noiseUnits))
			if err != nil {
				b.Fatal(err)
			}
			results[m] = ch.MaxRate(cfg.Solver)
		}
	}
	b.ReportMetric(results[0].UpperBound/cfg.Unit.Seconds(), "rmax0-bits/s")
	b.ReportMetric(results[0].BitsPerTransmission, "bits/resize-0")
	b.ReportMetric(results[maxMaintains].BitsPerTransmission, "bits/resize-max")
}

// Ablation: the cooldown Tc sweep (Mechanism 1). Longer cooldowns lower the
// per-resize charge's rate bound.
func BenchmarkAblationCooldown(b *testing.B) {
	for _, tc := range []time.Duration{500 * time.Microsecond, time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond} {
		b.Run(tc.String(), func(b *testing.B) {
			cfg := covert.TableConfig{
				Unit: tc / 40, Cooldown: tc, DelayWidth: time.Millisecond, MaxMaintains: 0,
			}
			var tbl *covert.RateTable
			var err error
			for i := 0; i < b.N; i++ {
				tbl, err = covert.NewRateTable(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(tbl.Entry(0).RatePerSecond, "rmax-bits/s")
		})
	}
}

// Ablation: the end-to-end cooldown trade-off of Section 5.3.2, at the
// simulation level: leakage rate falls with Tc while adaptivity (and hence
// performance headroom) shrinks.
func BenchmarkAblationCooldownEndToEnd(b *testing.B) {
	mix, err := workload.MixByID(1)
	if err != nil {
		b.Fatal(err)
	}
	var points []experiments.CooldownPoint
	for i := 0; i < b.N; i++ {
		points, err = experiments.CooldownSweep(mix, benchScale, []float64{1, 4, 16})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.BitsPerSecond, fmt.Sprintf("bits/s-Tc-x%g", p.Multiplier))
		b.ReportMetric(p.Speedup, fmt.Sprintf("speedup-Tc-x%g", p.Multiplier))
	}
}

// Ablation: the random-delay width sweep (Mechanism 2). Wider delays lower
// the rate bound.
func BenchmarkAblationDelayWidth(b *testing.B) {
	for _, w := range []time.Duration{250 * time.Microsecond, time.Millisecond, 4 * time.Millisecond} {
		b.Run(w.String(), func(b *testing.B) {
			cfg := covert.TableConfig{
				Unit: 25 * time.Microsecond, Cooldown: time.Millisecond, DelayWidth: w, MaxMaintains: 0,
			}
			var tbl *covert.RateTable
			var err error
			for i := 0; i < b.N; i++ {
				tbl, err = covert.NewRateTable(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(tbl.Entry(0).RatePerSecond, "rmax-bits/s")
		})
	}
}

// Ablation: set partitioning (9 sizes down to 128kB, the paper's choice)
// versus classic way partitioning (whole 1MB ways). Coarser actions shrink
// the Time baseline's per-assessment charge (log2 8 vs log2 9) but waste
// capacity on small working sets.
func BenchmarkAblationPartitionGranularity(b *testing.B) {
	mix, err := workload.MixByID(1)
	if err != nil {
		b.Fatal(err)
	}
	for _, way := range []bool{false, true} {
		name := "set-partitioned"
		if way {
			name = "way-partitioned"
		}
		b.Run(name, func(b *testing.B) {
			var res *experiments.MixResult
			for i := 0; i < b.N; i++ {
				res, err = experiments.RunMix(mix, experiments.Options{
					Scale:          benchScale,
					Kinds:          []partition.Kind{partition.Static, partition.TimeBased, partition.Untangle},
					WayPartitioned: way,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			speed, err := res.SystemSpeedup(partition.Untangle)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(speed, "speedup")
			leak, _ := res.LeakagePerAssessment(partition.Untangle)
			b.ReportMetric(stats.Mean(leak), "bits/assess")
		})
	}
}

// Ablation: annotations off (Edge 1 of Figure 2 restored). Performance is
// essentially unchanged, but the action sequence becomes secret-dependent —
// reported here through the count of visible actions, which grows when
// secret demand perturbs the metric.
func BenchmarkAblationAnnotations(b *testing.B) {
	mix, err := workload.MixByID(1)
	if err != nil {
		b.Fatal(err)
	}
	for _, annotated := range []bool{true, false} {
		name := "annotated"
		if !annotated {
			name = "unannotated"
		}
		b.Run(name, func(b *testing.B) {
			var res *experiments.MixResult
			for i := 0; i < b.N; i++ {
				res, err = experiments.RunMix(mix, experiments.Options{
					Scale:              benchScale,
					Kinds:              []partition.Kind{partition.Static, partition.Untangle},
					DisableAnnotations: !annotated,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			speed, err := res.SystemSpeedup(partition.Untangle)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(speed, "speedup")
			mf, _ := res.MaintainFraction(partition.Untangle)
			b.ReportMetric(mf, "maintain-frac")
		})
	}
}

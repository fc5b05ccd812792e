package experiments

import (
	"context"
	"testing"

	"untangle/internal/tracecache"
	"untangle/internal/workload"
)

// benchEngineInstructions matches the Figure 11 study floor at bench scale
// (perfbench's sens-cold and replay-warm workloads), so per-benchmark ns
// here decompose those campaigns' study numbers.
const benchEngineInstructions = 600_000

// BenchmarkEngineCold is one cold multi-lane pass: generator + private L1,
// one shadow-set probe per L1 miss for all nine LLC sizes, and the
// nine-lane block fold; no cache.
func BenchmarkEngineCold(b *testing.B) {
	p, err := workload.SPECByName("mcf_0")
	if err != nil {
		b.Fatal(err)
	}
	e := newLaneEngine()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.run(ctx, nil, p, benchEngineInstructions); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineWarm is one warm pass over a populated trace cache: decode
// from the page cache plus the nine-lane block fold, with every LLC outcome
// served by the lane-outcome sidecar. Its B/op is the sidecar plus a
// constant; TestWarmPassMemoryBounded pins that.
func BenchmarkEngineWarm(b *testing.B) {
	p, err := workload.SPECByName("mcf_0")
	if err != nil {
		b.Fatal(err)
	}
	st, err := tracecache.NewStore(b.TempDir(), false)
	if err != nil {
		b.Fatal(err)
	}
	e := newLaneEngine()
	ctx := context.Background()
	if _, _, err := e.run(ctx, st, p, benchEngineInstructions); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.run(ctx, st, p, benchEngineInstructions); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensitivityOracle is the work one engine pass replaces: the
// nine sensitivityPoint simulations (a full sim.Run each, Static scheme)
// of the same benchmark and budget. Its ratio to BenchmarkEngineCold is
// the measured reason the lanes stay a transliteration of the quantum
// machine rather than nine sim back ends (DESIGN.md).
func BenchmarkSensitivityOracle(b *testing.B) {
	p, err := workload.SPECByName("mcf_0")
	if err != nil {
		b.Fatal(err)
	}
	sizes := sensitivitySizes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, size := range sizes {
			if _, err := sensitivityPoint(p, size, benchEngineInstructions); err != nil {
				b.Fatal(err)
			}
		}
	}
}

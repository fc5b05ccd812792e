package covert

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"math"
	"os"
	"strconv"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "regenerate memo_gen.go by solving every memoized channel")

// memoKeys lists the channels memo_gen.go precomputes: the paper's table
// (Tc = 1ms, δ ~ U[0,1ms) at Tc/40 resolution), which DefaultTableConfig and
// every sim.Scaled Untangle scheme discretize to.
func memoKeys() []channelKey {
	cfg := DefaultTableConfig().withDefaults()
	keys := make([]channelKey, cfg.MaxMaintains+1)
	for m := range keys {
		keys[m] = cfg.channel(m)
	}
	return keys
}

// TestRateMemo re-solves every memoized channel with the live solver,
// including the F(q') <= 0 verification, and requires the memo to match it
// bit for bit. With -update it rewrites memo_gen.go from the live solver:
//
//	go test ./internal/covert -run TestRateMemo -update
func TestRateMemo(t *testing.T) {
	keys := memoKeys()
	if *update {
		writeMemo(t, keys)
		return
	}
	if len(rateMemo) != len(keys) {
		t.Errorf("memo holds %d channels, the default table has %d; regenerate with -update", len(rateMemo), len(keys))
	}
	for _, k := range keys {
		k := k
		t.Run(fmt.Sprintf("first=%d", k.First), func(t *testing.T) {
			t.Parallel()
			got, ok := k.memoized()
			if !ok {
				t.Fatalf("channel %+v missing from the memo; regenerate with -update", k)
			}
			want, err := k.solve()
			if err != nil {
				t.Fatal(err)
			}
			if !want.Verified || !got.Verified {
				t.Errorf("Verified: memo %v, solver %v; want both true", got.Verified, want.Verified)
			}
			for _, f := range []struct {
				name      string
				got, want float64
			}{
				{"UpperBound", got.UpperBound, want.UpperBound},
				{"BitsPerTransmission", got.BitsPerTransmission, want.BitsPerTransmission},
				{"AvgTime", got.AvgTime, want.AvgTime},
			} {
				if math.Float64bits(f.got) != math.Float64bits(f.want) {
					t.Errorf("%s: memo %v, solver %v", f.name, f.got, f.want)
				}
			}
		})
	}
}

func writeMemo(t *testing.T, keys []channelKey) {
	var b bytes.Buffer
	b.WriteString("// Code generated by \"go test ./internal/covert -run TestRateMemo -update\"; DO NOT EDIT.\n\n")
	b.WriteString("package covert\n\n")
	b.WriteString("// rateMemo maps each precomputed channel to the IEEE-754 bits of its\n")
	b.WriteString("// verified Dinkelbach solution.\n")
	b.WriteString("var rateMemo = map[channelKey]memoEntry{\n")
	for _, k := range keys {
		res, err := k.solve()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatalf("channel %+v: F(q') <= 0 not verified; refusing to memoize", k)
		}
		s := k.Solver
		fmt.Fprintf(&b, "\t{First: %d, Last: %d, Step: %d, Noise: %d, Solver: SolverConfig{"+
			"MaxDinkelbachRounds: %d, Tolerance: %s, InnerIterations: %d, InnerStep: %s, UpperBoundSlack: %s, VerifyIterations: %d}}: ",
			k.First, k.Last, k.Step, k.Noise,
			s.MaxDinkelbachRounds, fmtFloat(s.Tolerance), s.InnerIterations, fmtFloat(s.InnerStep), fmtFloat(s.UpperBoundSlack), s.VerifyIterations)
		fmt.Fprintf(&b, "{UpperBound: %#016x, BitsPerTransmission: %#016x, AvgTime: %#016x, Verified: true},\n",
			math.Float64bits(res.UpperBound), math.Float64bits(res.BitsPerTransmission), math.Float64bits(res.AvgTime))
	}
	b.WriteString("}\n")
	src, err := format.Source(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("memo_gen.go", src, 0o644); err != nil {
		t.Fatal(err)
	}
}

func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// TestMemoCoversScaledTables checks the scale invariance the memo relies
// on: the Untangle scheme scaled by sim.Scaled keeps Unit = Tc/40, so its
// table discretizes to the same channels as the paper-scale default.
func TestMemoCoversScaledTables(t *testing.T) {
	for _, tc := range []time.Duration{time.Millisecond, 10 * time.Microsecond, 2 * time.Microsecond, time.Microsecond} {
		cfg := TableConfig{Unit: tc / 40, Cooldown: tc, DelayWidth: tc, MaxMaintains: 16}.withDefaults()
		for m := 0; m <= cfg.MaxMaintains; m++ {
			if _, ok := cfg.channel(m).memoized(); !ok {
				t.Errorf("Tc=%v m=%d: %+v not memoized", tc, m, cfg.channel(m))
			}
		}
	}
}

// TestMemoMisses checks that tables with another discretization or
// solver miss the memo and are solved live.
func TestMemoMisses(t *testing.T) {
	def := DefaultTableConfig()
	wider := def
	wider.DelayWidth *= 4 // a DelaySweep point
	narrower := def
	narrower.DelayWidth /= 4
	finer := def
	finer.Unit = 10 * time.Microsecond // rmax -unit 10us
	longer := def
	longer.Cooldown, longer.DelayWidth = 2*time.Millisecond, 500*time.Microsecond // rmax -cooldown 2ms -delay 500us
	solver := def
	solver.Solver.InnerIterations++
	for name, cfg := range map[string]TableConfig{
		"wider delay": wider, "narrower delay": narrower, "finer unit": finer,
		"longer cooldown": longer, "other solver": solver, "test table": testTableConfig(),
	} {
		cfg = cfg.withDefaults()
		for m := 0; m <= cfg.MaxMaintains; m++ {
			if _, ok := cfg.channel(m).memoized(); ok {
				t.Errorf("%s: m=%d hit the memo", name, m)
			}
		}
	}

	// A miss is solved by the live solver: the table row carries exactly
	// the solver's numbers.
	cfg := testTableConfig()
	tbl, err := NewRateTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < tbl.Len(); m++ {
		res, err := cfg.channel(m).solve()
		if err != nil {
			t.Fatal(err)
		}
		e := tbl.Entry(m)
		if e.BitsPerTransmission != res.BitsPerTransmission || e.RatePerSecond != res.UpperBound/cfg.Unit.Seconds() || e.Verified != res.Verified {
			t.Errorf("m=%d: table row %+v does not match the live solve %+v", m, e, res)
		}
	}
}

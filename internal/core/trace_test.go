package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const (
	expand   = int64(4 << 20)
	maintain = int64(2 << 20)
)

// figure3TraceSet builds the worked example of Figure 3.
func figure3TraceSet(t *testing.T) *TraceSet {
	t.Helper()
	ts, err := NewTraceSet([]WeightedTrace{
		{Trace: ResizingTrace{Actions: []int64{expand, maintain}, Times: []int64{100, 200}}, Prob: 0.25},
		{Trace: ResizingTrace{Actions: []int64{expand, maintain}, Times: []int64{150, 300}}, Prob: 0.25},
		{Trace: ResizingTrace{Actions: []int64{maintain, maintain}, Times: []int64{120, 240}}, Prob: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestFigure3Example(t *testing.T) {
	ts := figure3TraceSet(t)
	total, action, scheduling := ts.Decompose()
	if math.Abs(action-1) > 1e-9 {
		t.Errorf("action leakage = %v bits, want 1 (Figure 3)", action)
	}
	if math.Abs(scheduling-0.5) > 1e-9 {
		t.Errorf("scheduling leakage = %v bits, want 0.5 (Figure 3)", scheduling)
	}
	if math.Abs(total-1.5) > 1e-9 {
		t.Errorf("total leakage = %v bits, want 1.5 (Figure 3)", total)
	}
}

func TestSection33ConservativeExample(t *testing.T) {
	// Section 3.3: n binary assessments at fixed times, all 2^n traces
	// equally likely -> leakage n bits, all of it action leakage.
	const n = 10
	var traces []WeightedTrace
	for mask := 0; mask < 1<<n; mask++ {
		actions := make([]int64, n)
		times := make([]int64, n)
		for i := 0; i < n; i++ {
			actions[i] = int64(mask>>i) & 1
			times[i] = int64(i+1) * 1000 // fixed schedule
		}
		traces = append(traces, WeightedTrace{
			Trace: ResizingTrace{Actions: actions, Times: times},
			Prob:  1.0 / float64(int(1)<<n),
		})
	}
	ts, err := NewTraceSet(traces)
	if err != nil {
		t.Fatal(err)
	}
	total, action, scheduling := ts.Decompose()
	if math.Abs(total-n) > 1e-9 {
		t.Errorf("total = %v, want %d", total, n)
	}
	if math.Abs(action-n) > 1e-9 || scheduling > 1e-9 {
		t.Errorf("action = %v, scheduling = %v; fixed-time schedule should be all action leakage", action, scheduling)
	}
}

func TestPureSchedulingLeakage(t *testing.T) {
	// One action sequence, two timings (Figure 1c / Figure 5): the action
	// leakage must be zero and everything scheduling.
	ts, err := NewTraceSet([]WeightedTrace{
		{Trace: ResizingTrace{Actions: []int64{expand}, Times: []int64{1000}}, Prob: 0.5},
		{Trace: ResizingTrace{Actions: []int64{expand}, Times: []int64{2000}}, Prob: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	total, action, scheduling := ts.Decompose()
	if action != 0 {
		t.Errorf("action leakage = %v, want 0", action)
	}
	if math.Abs(scheduling-1) > 1e-9 || math.Abs(total-1) > 1e-9 {
		t.Errorf("scheduling = %v, total = %v, want 1", scheduling, total)
	}
}

func TestDeterministicTraceLeaksNothing(t *testing.T) {
	ts, err := NewTraceSet([]WeightedTrace{
		{Trace: ResizingTrace{Actions: []int64{expand, expand}, Times: []int64{10, 20}}, Prob: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if total, action, scheduling := ts.Decompose(); total != 0 || action != 0 || scheduling != 0 {
		t.Errorf("deterministic trace leaks (%v, %v, %v), want zeros", total, action, scheduling)
	}
}

func TestTraceValidation(t *testing.T) {
	if err := (ResizingTrace{Actions: []int64{1}, Times: []int64{1, 2}}).Validate(); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if err := (ResizingTrace{Actions: []int64{1, 2}, Times: []int64{5, 5}}).Validate(); err == nil {
		t.Error("non-increasing timestamps accepted")
	}
	if _, err := NewTraceSet([]WeightedTrace{
		{Trace: ResizingTrace{Actions: []int64{1}, Times: []int64{1}}, Prob: 0.7},
	}); err == nil {
		t.Error("probabilities not summing to 1 accepted")
	}
	if _, err := NewTraceSet([]WeightedTrace{
		{Trace: ResizingTrace{Actions: []int64{1}, Times: []int64{1}}, Prob: -1},
		{Trace: ResizingTrace{Actions: []int64{2}, Times: []int64{1}}, Prob: 2},
	}); err == nil {
		t.Error("negative probability accepted")
	}
}

func TestDuplicateTracesMerge(t *testing.T) {
	// The same trace listed twice with probability halves must behave like
	// one trace with probability 1: zero leakage.
	tr := ResizingTrace{Actions: []int64{expand}, Times: []int64{100}}
	ts, err := NewTraceSet([]WeightedTrace{{Trace: tr, Prob: 0.5}, {Trace: tr, Prob: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.TotalLeakage(); got != 0 {
		t.Errorf("merged duplicate traces leak %v, want 0", got)
	}
}

// randomTraceSet builds a random, valid trace set for property tests.
func randomTraceSet(r *rand.Rand) *TraceSet {
	n := r.Intn(12) + 1
	traces := make([]WeightedTrace, n)
	raw := make([]float64, n)
	sum := 0.0
	for i := range raw {
		raw[i] = r.Float64() + 1e-3
		sum += raw[i]
	}
	for i := range traces {
		length := r.Intn(4) + 1
		actions := make([]int64, length)
		times := make([]int64, length)
		tcur := int64(0)
		for j := 0; j < length; j++ {
			actions[j] = int64(r.Intn(3))
			tcur += int64(r.Intn(100) + 1)
			times[j] = tcur
		}
		traces[i] = WeightedTrace{
			Trace: ResizingTrace{Actions: actions, Times: times},
			Prob:  raw[i] / sum,
		}
	}
	ts, err := NewTraceSet(traces)
	if err != nil {
		panic(err)
	}
	return ts
}

func TestPropertyChainRuleDecomposition(t *testing.T) {
	// Equation 5.6: H(S, T_S) = H(S) + E[H(T_s | S=s)], always.
	f := func(seed int64) bool {
		ts := randomTraceSet(rand.New(rand.NewSource(seed)))
		total, action, scheduling := ts.Decompose()
		return math.Abs(total-(action+scheduling)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyLeakagesNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		ts := randomTraceSet(rand.New(rand.NewSource(seed)))
		total, action, scheduling := ts.Decompose()
		return total >= 0 && action >= 0 && scheduling >= 0 && action <= total+1e-9
	}
	// A trace set with one action sequence whose probabilities sum to
	// 1.0000000000000002: its action entropy rounded to -3.3e-16.
	if !f(1774886304896045910) {
		t.Error("seed 1774886304896045910: negative leakage")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

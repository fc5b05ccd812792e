package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 5, 5}, 5, 5},
	} {
		q1, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestRelSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := relSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("relSpread = %v, want %v", got, want)
	}
	if got := relSpread([]float64{0, 0}); got != 0 {
		t.Errorf("relSpread of zeros = %v, want 0", got)
	}
}

func TestFailedFrac(t *testing.T) {
	if got := failedFrac(0, 0); got != 0 {
		t.Errorf("failedFrac(0, 0) = %v", got)
	}
	if got := failedFrac(1, 4); got != 0.25 {
		t.Errorf("failedFrac(1, 4) = %v", got)
	}
}

func TestCheckDigests(t *testing.T) {
	golden := map[string]string{"a": "1", "b": "2", "c": "3"}
	got := map[string]string{"a": "1", "b": "x", "c": "3"}
	att, failed, bad := checkDigests(got, golden, []string{"a", "b", "c", "d"}, map[string]bool{"c": true})
	if att != 4 || failed != 3 {
		t.Fatalf("attempted %d failed %d, want 4 and 3", att, failed)
	}
	if len(bad) != 3 || bad[0] != "b" || bad[1] != "c" || bad[2] != "d" {
		t.Errorf("bad = %v, want [b c d]", bad)
	}
	if _, failed, _ := checkDigests(golden, golden, []string{"a", "b", "c"}, nil); failed != 0 {
		t.Errorf("identical digests: %d failed", failed)
	}
}

func TestDigestSeesEveryBit(t *testing.T) {
	var a, b digester
	a.f64(1.0)
	b.f64(math.Nextafter(1.0, 2))
	if a.sum() == b.sum() {
		t.Error("digests of floats one ulp apart collide")
	}
	var c, d digester
	c.str("ab")
	c.str("c")
	d.str("a")
	d.str("bc")
	if c.sum() == d.sum() {
		t.Error("string framing is ambiguous")
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{id: 1, layer: "unit", start: 0, end: ms(100)},
		{id: 2, parent: 1, layer: "sim", start: ms(10), end: ms(60)},
		{id: 3, parent: 2, layer: "core", start: ms(20), end: ms(30)},
		{id: 4, parent: 1, layer: "cpu", start: ms(70), end: ms(90)},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"unit": ms(30), "sim": ms(40), "core": ms(10), "cpu": ms(20)}
	for layer, w := range want {
		if self[layer] != w {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], w)
		}
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	// Two concurrent children covering [10,50) and [30,70) cover 60ms of
	// the parent, not 80ms; a child running past its parent is clipped.
	spans := []span{
		{id: 1, layer: "unit", start: 0, end: ms(100)},
		{id: 2, parent: 1, layer: "a", start: ms(10), end: ms(50)},
		{id: 3, parent: 1, layer: "a", start: ms(30), end: ms(70)},
		{id: 4, parent: 1, layer: "b", start: ms(90), end: ms(120)},
	}
	if got := selfTimes(spans)["unit"]; got != ms(30) {
		t.Errorf("self[unit] = %v, want 30ms", got)
	}
}

func TestCoverageAndIdle(t *testing.T) {
	self := map[string]time.Duration{"cpu": ms(600), "sim": ms(400), "unit": ms(900)}
	if got := coverage(self, []string{"cpu", "sim"}, ms(1000), 2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("coverage = %v, want 0.5", got)
	}
	if got := coverage(self, []string{"cpu"}, 0, 2); got != 0 {
		t.Errorf("coverage with no wall = %v, want 0", got)
	}
	if got := idleFrac([]time.Duration{ms(500), ms(1000)}, 2, ms(1000)); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("idleFrac = %v, want 0.25", got)
	}
}

func TestPerUnitAndRatio(t *testing.T) {
	if got := perUnit(ms(1), 1000); got != 1000 {
		t.Errorf("perUnit = %v, want 1000ns", got)
	}
	if perUnit(ms(1), 0) != 0 || ratio(1, 0) != 0 {
		t.Error("zero work must give 0, not NaN or Inf")
	}
}

func TestSummarize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	lines := "go: building\n" +
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"wall_s":{"value":1,"unit":"s"}}}` + "\n" +
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"wall_s":{"value":3,"unit":"s"}}}` + "\n" +
		`{"correct":false,"attempted":1,"failed":1,"metrics":{"wall_s":{"value":2,"unit":"s"}}}` + "\n"
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := summarize(&out, []string{path}); err != nil {
		t.Fatal(err)
	}
	// statistics.quantiles([1, 2, 3], n=4) is [1.0, 2.0, 3.0], so the
	// spread is (3 - 1) / 2.
	for _, want := range []string{"3 runs, 1 not correct", "wall_s", "1.0000 s"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, out.String())
		}
	}
	if err := summarize(&out, []string{filepath.Join(t.TempDir(), "missing")}); err == nil {
		t.Error("a missing file must be an error")
	}
}

func TestShardLine(t *testing.T) {
	log := []byte("experiments: running mix 1\nexperiments: shards: 2 spawned, 0 died, 38 assigned, 38 completed, 0 recovered, 1 requeued, 2 duplicates\n")
	got, ok := shardLine(log)
	if !ok || got["completed"] != 38 || got["requeued"] != 1 || got["duplicates"] != 2 {
		t.Errorf("shardLine = %v, %v", got, ok)
	}
	if _, ok := shardLine([]byte("nothing here\n")); ok {
		t.Error("shardLine found a line that is not there")
	}
}

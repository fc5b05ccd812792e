package report

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"untangle/internal/experiments"
	"untangle/internal/partition"
	"untangle/internal/workload"
)

func smallMixResult(t *testing.T) *experiments.MixResult {
	t.Helper()
	mix, err := workload.MixByID(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.RunMix(mix, experiments.Options{Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A Figure 10/12-17 group is its caption followed by its charts. The two
// halves together must reproduce the single render they were split from:
// the caption is exactly the group's first two lines and the blank line
// after them, the charts carry everything else, and only the caption
// depends on the study.
func TestMixGroupRendersAllSections(t *testing.T) {
	res := smallMixResult(t)
	charts, err := MixCharts(res)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(charts, "Partition size distribution (MB)") {
		t.Errorf("charts do not open with the first chart:\n%s", firstLines(charts, 3))
	}
	for _, want := range []string{
		"Leakage per assessment",
		"IPC normalized to Static",
		"Geo. Mean",
		"parest_0+ECDSA",
	} {
		if !strings.Contains(charts, want) {
			t.Errorf("charts missing %q", want)
		}
	}
	if strings.Contains(charts, "Mix 1") || strings.Contains(charts, "Total LLC") {
		t.Errorf("charts carry caption text:\n%s", firstLines(charts, 3))
	}

	// With a sensitivity study the caption gains a demand figure.
	study := []experiments.SensitivityResult{}
	for _, p := range workload.SPECBenchmarks {
		study = append(study, experiments.SensitivityResult{Name: p.Name, Adequate: 1 << 20})
	}
	for _, tc := range []struct {
		name  string
		study []experiments.SensitivityResult
		want  string
	}{
		{"no study", nil, "Mix 1: 2 LLC-sensitive benchmarks\nTotal LLC size: 16MB\n\n"},
		{"study", study, "Mix 1: 2 LLC-sensitive benchmarks\nTotal LLC size: 16MB; Total LLC demand: 8.00MB\n\n"},
	} {
		if got := MixCaption(res.Mix, tc.study); got != tc.want {
			t.Errorf("%s: caption = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestMixGroupMissingSchemes(t *testing.T) {
	mix, _ := workload.MixByID(1)
	res, err := experiments.RunMix(mix, experiments.Options{
		Scale: 0.001,
		Kinds: []partition.Kind{partition.Static},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MixCharts(res); err == nil {
		t.Error("MixCharts without dynamic schemes accepted")
	}
}

func TestFigure11Rendering(t *testing.T) {
	study := []experiments.SensitivityResult{
		{
			Name:  "mcf_0",
			Sizes: []int64{128 << 10, 8 << 20}, NormIPC: []float64{0.2, 1.0},
			Adequate: 6 << 20, Sensitive: true,
		},
		{
			Name:  "imagick_0",
			Sizes: []int64{128 << 10, 8 << 20}, NormIPC: []float64{0.8, 1.0},
			Adequate: 256 << 10, Sensitive: false,
		},
		{
			// Unmeasured: no finite IPC at 8MB to normalize by.
			Name:  "exchange2_0",
			Sizes: []int64{128 << 10, 8 << 20}, NormIPC: []float64{math.NaN(), math.NaN()},
		},
	}
	out := Figure11(study)
	if !strings.Contains(out, "  exchange2_0         n/a ") {
		t.Errorf("unmeasured row not rendered n/a:\n%s", out)
	}
	if !strings.Contains(out, "* mcf_0") {
		t.Error("sensitive row not starred")
	}
	if !strings.Contains(out, "  imagick_0") {
		t.Error("insensitive row missing")
	}
	if !strings.Contains(out, "6.00MB") {
		t.Error("adequate size missing")
	}
}

func TestTable6Rendering(t *testing.T) {
	rows := []experiments.Table6Row{
		{MixID: 1, TimeAvgPerAssessment: 3.2, TimeAvgTotal: 637.6, UntangleAvgPerAssess: 0.4, UntangleAvgTotal: 38.5, ReductionPerAssessment: 0.875},
		{MixID: 4, TimeAvgPerAssessment: 3.2, TimeAvgTotal: 1084.1, UntangleAvgPerAssess: 1.0, UntangleAvgTotal: 96.0, ReductionPerAssessment: 0.6875},
	}
	out := Table6(rows)
	for _, want := range []string{"Mix 1", "Mix 4", "637.6", "96.0", "88%", "69%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 6 output missing %q:\n%s", want, out)
		}
	}
}

func TestRateTableRendering(t *testing.T) {
	out := RateTable([]RateTableEntry{
		{Maintains: 0, RatePerSecond: 1160, BitsPerTransmission: 1.85},
		{Maintains: 1, RatePerSecond: 755, BitsPerTransmission: 2.42},
	})
	for _, want := range []string{"maintains", "1160.0", "2.42"} {
		if !strings.Contains(out, want) {
			t.Errorf("rate table missing %q", want)
		}
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

func TestExportJSON(t *testing.T) {
	res := smallMixResult(t)
	data, err := MarshalJSON(res.PerScheme[partition.Untangle], time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	var back ExportResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Scheme != "Untangle" {
		t.Errorf("scheme = %q", back.Scheme)
	}
	if len(back.Domains) != 8 {
		t.Fatalf("%d domains", len(back.Domains))
	}
	d := back.Domains[0]
	if d.Name == "" || d.IPC <= 0 || d.SamplePeriodNs != 1000 {
		t.Errorf("domain export = %+v", d)
	}
	if d.Assessments > 0 && len(d.Trace) != d.Assessments {
		t.Errorf("trace length %d vs %d assessments", len(d.Trace), d.Assessments)
	}
	for _, a := range d.Trace {
		if a.ApplyAtNs < a.AtNs {
			t.Error("apply precedes assessment in export")
		}
	}
}

func TestBars(t *testing.T) {
	out := Bars([]string{"a", "bb"}, []float64{1, 2}, 10, 1)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if strings.Count(lines[1], "#") != 9 || !strings.Contains(lines[1], "|") {
		// Width 10 with the reference mark overwriting one column.
		t.Errorf("max bar malformed: %q", lines[1])
	}
	if !strings.Contains(lines[0], "|") {
		t.Errorf("reference mark missing: %q", lines[0])
	}
	if !strings.Contains(lines[0], "1.00") || !strings.Contains(lines[1], "2.00") {
		t.Error("values not printed")
	}
	if Bars(nil, nil, 10, 0) != "" {
		t.Error("empty input should render nothing")
	}
	if Bars([]string{"a"}, []float64{1, 2}, 10, 0) != "" {
		t.Error("mismatched input should render nothing")
	}
	// All-zero values must not divide by zero.
	if out := Bars([]string{"z"}, []float64{0}, 10, 0); out == "" {
		t.Error("zero values should still render")
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("length = %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Errorf("extremes wrong: %q", s)
	}
	if Sparkline(nil) != "" {
		t.Error("empty series should render nothing")
	}
	// Constant series: all-min glyphs, no divide-by-zero.
	flat := []rune(Sparkline([]float64{5, 5, 5}))
	if len(flat) != 3 || flat[0] != '▁' {
		t.Errorf("flat series = %q", string(flat))
	}
	if got := SparklineInt64([]int64{1, 2}); len([]rune(got)) != 2 {
		t.Errorf("int64 sparkline = %q", got)
	}
}

func TestDownsample(t *testing.T) {
	in := make([]float64, 100)
	for i := range in {
		in[i] = float64(i)
	}
	out := Downsample(in, 10)
	if len(out) != 10 {
		t.Fatalf("len = %d", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			t.Error("downsampled monotone series lost monotonicity")
		}
	}
	if got := Downsample(in, 200); len(got) != 100 {
		t.Error("upsampling should be a no-op")
	}
	if got := Downsample(in, 0); len(got) != 100 {
		t.Error("n=0 should be a no-op")
	}
}

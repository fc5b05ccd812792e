package experiments_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"untangle/internal/experiments"
	"untangle/internal/report"
)

// TestClassifyMatchesSensitivity pins the classification Figure 11 prints
// against the curve it is read from: a row's adequate column is the
// smallest size whose normalized IPC reaches 0.9 (the largest size if none
// does), and its * mark means that size exceeds 2 MB. A curve that could
// not be normalized (its 8 MB point is not exactly 1) is unmeasured: n/a,
// never starred.
func TestClassifyMatchesSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the study; skipped in -short mode")
	}
	study, err := experiments.SensitivityStudyContext(context.Background(), 200_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(report.Figure11(study), "\n")[2:]
	sensitive := 0
	for i, r := range study {
		if r.NormIPC[len(r.NormIPC)-1] != 1 {
			prefix := fmt.Sprintf("  %-14s      n/a ", r.Name)
			if r.Adequate != 0 || r.Sensitive || !strings.HasPrefix(rows[i], prefix) {
				t.Errorf("row %q (adequate %d, sensitive %v), want an unmeasured row %q from curve %v", rows[i], r.Adequate, r.Sensitive, prefix, r.NormIPC)
			}
			continue
		}
		want := r.Sizes[len(r.Sizes)-1]
		for j, v := range r.NormIPC {
			if v >= 0.9 {
				want = r.Sizes[j]
				break
			}
		}
		mark := " "
		if want > 2<<20 {
			mark = "*"
			sensitive++
		}
		prefix := fmt.Sprintf("%s %-14s %6.2fMB ", mark, r.Name, float64(want)/(1<<20))
		if !strings.HasPrefix(rows[i], prefix) {
			t.Errorf("row %q, want prefix %q from curve %v", rows[i], prefix, r.NormIPC)
		}
	}
	if sensitive == 0 || sensitive == len(study) {
		t.Errorf("%d of %d benchmarks marked sensitive — the check needs both kinds", sensitive, len(study))
	}
}

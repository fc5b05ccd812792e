package experiments

import (
	"context"
	"math"
	"reflect"
	"testing"

	"untangle/internal/partition"
	"untangle/internal/workload"
)

// The experiment engine's central promise: results do not depend on the
// worker-pool size. Every test here runs the same experiment at -jobs 1
// (the legacy sequential path, which spawns no goroutines) and -jobs 4 and
// requires the outputs to be deeply equal — not merely close. Run them
// under -race to also cover the pool's synchronization.

func TestRunMixParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full mix simulation; skipped in -short mode")
	}
	mix, err := workload.MixByID(1)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := RunMix(mix, Options{Scale: testScale, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunMix(mix, Options{Scale: testScale, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.PerScheme) != len(seq.PerScheme) {
		t.Fatalf("parallel ran %d schemes, sequential %d", len(par.PerScheme), len(seq.PerScheme))
	}
	for _, kind := range []partition.Kind{partition.Static, partition.TimeBased, partition.Untangle, partition.Shared} {
		if !reflect.DeepEqual(par.PerScheme[kind], seq.PerScheme[kind]) {
			t.Errorf("%v: parallel result differs from sequential", kind)
		}
	}
}

func TestReplicateParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed mix simulation; skipped in -short mode")
	}
	mix, err := workload.MixByID(1)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{1, 7, 42}
	seq, err := Replicate(mix, Options{Scale: testScale, Jobs: 1}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Replicate(mix, Options{Scale: testScale, Jobs: 4}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, seq) {
		t.Errorf("parallel replication differs from sequential:\npar %+v\nseq %+v", par, seq)
	}
}

func TestSensitivityStudyParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("36-benchmark sensitivity study; skipped in -short mode")
	}
	// Low fidelity: the property under test is jobs-independence, not the
	// classification itself, and it must hold at any instruction count.
	const instructions = 100_000
	seq, err := SensitivityStudyContext(context.Background(), instructions, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SensitivityStudyContext(context.Background(), instructions, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !studiesEqual(par, seq) {
		t.Error("parallel sensitivity study differs from sequential")
	}
}

// studiesEqual is bitwise equality over study results. reflect.DeepEqual
// is unusable here: at the low fidelity these tests run, some points retire
// nothing measurable and normalize to NaN, and DeepEqual declares NaN
// unequal to itself even when both runs are bit-identical.
func studiesEqual(a, b []SensitivityResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Name != y.Name || x.Adequate != y.Adequate || x.Sensitive != y.Sensitive {
			return false
		}
		if !reflect.DeepEqual(x.Sizes, y.Sizes) || len(x.NormIPC) != len(y.NormIPC) {
			return false
		}
		for j := range x.NormIPC {
			if math.Float64bits(x.NormIPC[j]) != math.Float64bits(y.NormIPC[j]) {
				return false
			}
		}
	}
	return true
}

package experiments

import (
	"context"
	"testing"

	"untangle/internal/workload"
)

// TestColdPassAllocs pins a cold engine pass's allocations at a count that
// does not depend on the stream's length: the generator, the nine cores,
// the IPC slice and the like, never anything per block or per event. The
// engine is fresh for each length; AllocsPerRun's warm-up pass sizes its
// outcome bits, which a probing pass without a store then reuses.
func TestColdPassAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	const want = 13
	p, err := workload.SPECByName("mcf_0")
	if err != nil {
		t.Fatal(err)
	}
	for _, instructions := range []uint64{100_000, 400_000, 1_600_000} {
		e := newLaneEngine()
		n := testing.AllocsPerRun(1, func() {
			if _, _, err := e.run(context.Background(), nil, p, instructions); err != nil {
				t.Fatal(err)
			}
		})
		if n != want {
			t.Errorf("cold pass of %d instructions: %v allocs, want %d", instructions, n, want)
		}
	}
}

// TestWarmPassReads pins what one sidecar-served warm pass of mcf_0 at
// 600k instructions reads from the store, to the byte: the entry (header,
// data blocks, footer) plus its lane-outcome sidecar. Any change to the
// trace or sidecar encoding moves it.
//
// The pass's allocations are bounded rather than pinned. A pass makes 78
// while the sync.Pools it draws on (fmt's, for the store's entry paths,
// among them) are full, and 84 right after a garbage collection has
// emptied them; each pass allocates enough (the sidecar's bits, the
// reader's buffer) to set collections off at varying points. A per-block
// allocation would add about 100 (the pass folds 98 blocks).
func TestWarmPassReads(t *testing.T) {
	const (
		instructions = 600_000
		wantBytes    = 1_996_933
		maxAllocs    = 96
	)
	p, err := workload.SPECByName("mcf_0")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	st := newTestStore(t, false)
	e := newLaneEngine()
	if _, _, err := e.run(ctx, st, p, instructions); err != nil {
		t.Fatal(err)
	}
	before := st.Counters()
	if _, replayed, err := e.run(ctx, st, p, instructions); err != nil || !replayed {
		t.Fatalf("warm pass: replayed=%v err=%v", replayed, err)
	}
	c := st.Counters()
	if c.OutcomeHits != before.OutcomeHits+1 {
		t.Fatalf("counters %+v, want a sidecar-served warm pass", c)
	}
	if got := c.BytesRead - before.BytesRead; got != wantBytes {
		t.Errorf("warm pass read %d B, want %d", got, wantBytes)
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(5, func() {
		if _, _, err := e.run(ctx, st, p, instructions); err != nil {
			t.Fatal(err)
		}
	}); n > maxAllocs {
		t.Errorf("warm pass: %v allocs, want at most %d", n, maxAllocs)
	}
}

// TestObserveUnitUnobservedAllocs pins the observability seam's cost when
// no observer is installed: ObserveUnit returns nil and allocates nothing.
func TestObserveUnitUnobservedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	SetUnitObserver(nil)
	if n := testing.AllocsPerRun(1000, func() {
		if ObserveUnit("sensitivity", "mcf_0") != nil {
			t.Fatal("ObserveUnit returned a callback with no observer installed")
		}
	}); n != 0 {
		t.Errorf("ObserveUnit: %v allocs, want 0", n)
	}
}

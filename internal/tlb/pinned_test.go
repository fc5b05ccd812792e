package tlb

import (
	"math"
	"math/rand"
	"testing"
)

// pinnedTraces are two fixed seeded page-access traces for
// TestMonitorUtilitiesPinned: a 300-page hot set with in-page offsets
// interleaved with wide random pages, and a 200-page cyclic scan broken
// by a 12-page hot loop.
func pinnedTraces() [][]uint64 {
	r := rand.New(rand.NewSource(3))
	mixed := make([]uint64, 40_000)
	for i := range mixed {
		if r.Intn(3) == 0 {
			mixed[i] = uint64(r.Intn(1<<20))*PageBytes + uint64(r.Intn(PageBytes))
		} else {
			mixed[i] = uint64(r.Intn(300))*PageBytes + uint64(r.Intn(PageBytes))
		}
	}
	r = rand.New(rand.NewSource(4))
	scan := make([]uint64, 40_000)
	for i := range scan {
		if r.Intn(4) == 0 {
			scan[i] = uint64(1000+r.Intn(12)) * PageBytes
		} else {
			scan[i] = uint64(i%200)*PageBytes + 8
		}
	}
	return [][]uint64{mixed, scan}
}

// TestMonitorUtilitiesPinned pins, as float bits, the utilities of
// DefaultEntrySizes() monitors after each pinned trace. The 4096-access
// window rotates about ten times per trace, so the constants cover the
// window's aging as well as the shadow arrays. They were recorded with the
// monitor's original per-size shadow TLBs and ring, and must not move.
func TestMonitorUtilitiesPinned(t *testing.T) {
	want := [][]uint64{
		{0x4057c00000000000, 0x4066200000000000, 0x4075000000000000, 0x407d700000000000, 0x4084180000000000, 0x408c480000000000, 0x4092940000000000, 0x4098500000000000, 0x409ea80000000000},
		{0x4071400000000000, 0x407d400000000000, 0x4086380000000000, 0x408c080000000000, 0x4092140000000000, 0x40a1dc0000000000, 0x40ac480000000000, 0x40ab900000000000, 0x40ac820000000000},
	}
	for i, trace := range pinnedTraces() {
		m, err := NewMonitor(MonitorConfig{Sizes: DefaultEntrySizes(), Ways: 8, Window: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		for _, addr := range trace {
			m.Observe(addr)
		}
		u := m.Utilities()
		got := make([]uint64, len(u))
		for j, v := range u {
			got[j] = math.Float64bits(v)
		}
		if len(want[i]) != len(got) {
			t.Errorf("trace %d: %d utilities, want %d", i, len(got), len(want[i]))
			continue
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Errorf("trace %d, %d entries: utility bits %#x (%v), want %#x", i, DefaultEntrySizes()[j], got[j], u[j], want[i][j])
			}
		}
	}
}

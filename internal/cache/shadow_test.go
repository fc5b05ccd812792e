package cache

import (
	"math/rand"
	"testing"
)

// The monitor's candidate size lists: monitor.DefaultSizes() (Table 3, set
// partitioning), and sim.Config.WaySizes() at the default 16 MB, 16-way
// LLC (whole 1 MB ways). 3 MB and 6 MB give set counts that are not
// powers of two.
var (
	monitorSizes = []int64{
		128 << 10, 256 << 10, 512 << 10, 1 << 20,
		2 << 20, 3 << 20, 4 << 20, 6 << 20, 8 << 20,
	}
	waySizes = []int64{1 << 20, 2 << 20, 3 << 20, 4 << 20, 5 << 20, 6 << 20, 7 << 20, 8 << 20}
)

// shadowTwin drives a ShadowSet and the reference arrays in lockstep and,
// when unsampled, one Cache per size through the Access the simulator runs
// (never written, so its dirty state stays empty) as well: the Figure 11
// engine resolves its sizes through an unsampled ShadowSet, and its
// outcomes must be a per-size Cache's on every access.
type shadowTwin struct {
	set    *ShadowSet
	ref    []*Cache
	caches []*Cache // nil when sampled
}

func newShadowTwin(t testing.TB, sizes []int64, ways int, sampleLog2 uint) *shadowTwin {
	t.Helper()
	ref, err := referenceShadows(sizes, ways, sampleLog2)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewShadowSet(sizes, ways, sampleLog2)
	if err != nil {
		t.Fatal(err)
	}
	if set.Ways() != ways {
		t.Fatalf("ShadowSet has %d ways, want %d", set.Ways(), ways)
	}
	for i, c := range ref {
		if set.Sets(i) != c.Sets() {
			t.Fatalf("array %d: %d sets, want %d", i, set.Sets(i), c.Sets())
		}
	}
	w := &shadowTwin{set: set, ref: ref}
	if sampleLog2 == 0 {
		for _, c := range ref {
			w.caches = append(w.caches, MustNew(Config{SizeBytes: int64(c.Sets() * c.Ways() * LineBytes), Ways: ways}))
		}
	}
	return w
}

func (w *shadowTwin) access(t testing.TB, step int, addr uint64) {
	got, want := w.set.Access(addr), referenceHitMask(w.ref, addr)
	if got != want {
		t.Fatalf("access %d (addr %#x): mask %#04x, want %#04x", step, addr, got, want)
	}
	if w.caches == nil {
		return
	}
	var caches uint16
	for i, c := range w.caches {
		if c.Access(addr, false) {
			caches |= 1 << i
		}
	}
	if caches != want {
		t.Fatalf("access %d (addr %#x): Cache mask %#04x, want %#04x", step, addr, caches, want)
	}
}

// conflictLines returns n line addresses that all map to set 0 of c.
func conflictLines(c *Cache, n int) []uint64 {
	var out []uint64
	for line := uint64(0); len(out) < n; line++ {
		if c.setIndex(line) == 0 {
			out = append(out, line)
		}
	}
	return out
}

// TestShadowSetMatchesReference requires ShadowSet's hit mask to equal the
// original per-size Cache shadows' on every access, over random, strided
// and single-set-conflict sequences, for the monitor's size lists with and
// without sampling, including the four-set floor of heavy sampling, and
// for an unsampled array below four sets, which no floor enlarges.
func TestShadowSetMatchesReference(t *testing.T) {
	cases := []struct {
		name       string
		sizes      []int64
		ways       int
		sampleLog2 uint
	}{
		{"default/unsampled", monitorSizes, 16, 0},
		{"default/sample3", monitorSizes, 16, 3},
		{"default/sample4", monitorSizes, 16, 4},
		{"default/four-set-floor", monitorSizes, 16, 10},
		{"way/unsampled", waySizes, 16, 0},
		{"way/sample4", waySizes, 16, 4},
		{"default/4-way", monitorSizes, 4, 4},
		{"default/direct-mapped", monitorSizes, 1, 6},
		{"unsampled/two-set", []int64{1 << 10}, 8, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newShadowTwin(t, tc.sizes, tc.ways, tc.sampleLog2)
			largest := w.ref[len(w.ref)-1]
			lines := uint64(largest.Sets() * largest.Ways())
			r := rand.New(rand.NewSource(int64(len(tc.name))))
			step := 0
			// Random: a working set half again the largest array, so
			// every size sees both hits and evictions.
			for i := 0; i < 200_000; i++ {
				w.access(t, step, uint64(r.Int63n(int64(lines*3/2)))*LineBytes+uint64(r.Intn(LineBytes)))
				step++
			}
			// Strided: sweeps that hit a few sets hard or walk every set.
			for _, stride := range []uint64{1, 7, 64, 4096} {
				for i := uint64(0); i < 20_000; i++ {
					w.access(t, step, (i*stride)%(2*lines*stride)*LineBytes)
					step++
				}
			}
			// Single-set conflicts: ways+3 lines of one set of the
			// smallest and of the largest array, cycled and re-touched.
			for _, c := range []*Cache{w.ref[0], largest} {
				set := conflictLines(c, c.Ways()+3)
				for i := 0; i < 20_000; i++ {
					k := i % len(set)
					if r.Intn(3) == 0 {
						k = r.Intn(len(set))
					}
					w.access(t, step, set[k]*LineBytes)
					step++
				}
			}
		})
	}
}

// TestShadowSetResetEquivalentToFresh: after Reset, a used ShadowSet gives
// the hit masks of a freshly built one.
func TestShadowSetResetEquivalentToFresh(t *testing.T) {
	used, err := NewShadowSet(monitorSizes, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for _, addr := range randTrace(rng, 30_000) {
		used.Access(addr)
	}
	used.Reset()

	fresh, err := NewShadowSet(monitorSizes, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng = rand.New(rand.NewSource(19))
	for i, addr := range randTrace(rng, 30_000) {
		if um, fm := used.Access(addr), fresh.Access(addr); um != fm {
			t.Fatalf("access %d (addr %#x): reset mask %#04x, fresh mask %#04x", i, addr, um, fm)
		}
	}
}

// TestShadowSetRejectsBadGeometry checks the two errors: more arrays than
// mask bits, and, as in the reference, a size that is not a whole number
// of sets.
func TestShadowSetRejectsBadGeometry(t *testing.T) {
	if _, err := NewShadowSet(make([]int64, maxShadows+1), 16, 0); err == nil {
		t.Error("17 arrays accepted")
	}
	sizes := []int64{128 << 10} // 682.67 sets of 3 ways
	if _, err := referenceShadows(sizes, 3, 0); err == nil {
		t.Fatal("reference accepted 128 kB at 3 ways")
	}
	if _, err := NewShadowSet(sizes, 3, 0); err == nil {
		t.Error("128 kB at 3 ways accepted")
	}
}

// FuzzShadowSet runs a byte-driven address sequence through a ShadowSet
// and the reference arrays (and, for the unsampled geometries, a Cache per
// size) and requires equal hit masks on every access.
// The first byte picks the geometry, each following byte pair is one
// access to one of 65,536 lines. The geometries are small (2 to 32 sets),
// so a short sequence fills and conflicts in every set.
func FuzzShadowSet(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 1, 0, 3, 0, 1})
	f.Add([]byte{1, 9, 9, 8, 8, 9, 9, 7, 7, 9, 9, 0, 0})
	f.Add([]byte{2, 255, 255, 0, 0, 255, 255, 1, 1, 0, 0})
	f.Add([]byte{4, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10, 0, 11, 0, 12, 0, 13, 0, 14, 0, 15, 0, 16, 0, 17, 0, 1, 0, 2})
	geometries := []struct {
		sizes      []int64
		ways       int
		sampleLog2 uint
	}{
		{monitorSizes, 16, 10},
		{waySizes, 16, 10},
		{[]int64{1 << 10, 2 << 10, 3 << 10, 4 << 10, 6 << 10, 8 << 10}, 4, 0},
		{[]int64{4 << 10, 8 << 10, 12 << 10, 16 << 10, 24 << 10, 32 << 10}, 16, 0},
		{[]int64{1 << 10}, 8, 0},
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 || len(script) > 1<<13 {
			return
		}
		g := geometries[int(script[0])%len(geometries)]
		w := newShadowTwin(t, g.sizes, g.ways, g.sampleLog2)
		for i := 1; i+1 < len(script); i += 2 {
			w.access(t, i/2, (uint64(script[i])<<8|uint64(script[i+1]))*LineBytes)
		}
	})
}

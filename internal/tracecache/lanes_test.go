package tracecache

import (
	"bytes"
	"math/rand"
	"os"
	"testing"
)

// randomBits builds lanes deterministic pseudo-random outcome bitsets of
// misses bits each.
func randomBits(lanes int, misses uint64, seed int64) [][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	words := outcomeWords(misses)
	bits := make([][]uint64, lanes)
	for i := range bits {
		lane := make([]uint64, words)
		for j := range lane {
			lane[j] = rng.Uint64()
		}
		// Clear the bits past misses so round-tripped data compares exactly.
		if tail := misses % 64; tail != 0 && words > 0 {
			lane[words-1] &= (1 << tail) - 1
		}
		bits[i] = lane
	}
	return bits
}

func TestLaneOutcomesRoundTrip(t *testing.T) {
	st, err := NewStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("mcf_0")
	sizes := []int64{128 << 10, 1 << 20, 8 << 20}
	for _, misses := range []uint64{0, 1, 63, 64, 65, 12_345} {
		bits := randomBits(len(sizes), misses, int64(misses)+1)
		if err := st.SaveLaneOutcomes(key, 16, sizes, misses, bits); err != nil {
			t.Fatalf("misses=%d: %v", misses, err)
		}
		got, ok := st.OpenLaneOutcomes(key, 16, sizes, misses)
		if !ok {
			t.Fatalf("misses=%d: no hit on just-written sidecar", misses)
		}
		// The up-to variant accepts any count within its limit and
		// reports it, rejects one past it, and counts neither.
		if _, n, ok := st.OpenLaneOutcomesUpTo(key, 16, sizes, misses+100); !ok || n != misses {
			t.Fatalf("misses=%d: up-to load = (%d, %v), want (%d, true)", misses, n, ok, misses)
		}
		if _, _, ok := st.OpenLaneOutcomesUpTo(key, 16, sizes, misses-1); misses > 0 && ok {
			t.Fatalf("misses=%d: up-to load accepted a limit below the count", misses)
		}
		for i := range bits {
			for j := range bits[i] {
				if got[i][j] != bits[i][j] {
					t.Fatalf("misses=%d: lane %d word %d = %#x, want %#x", misses, i, j, got[i][j], bits[i][j])
				}
			}
		}
	}
	if c := st.Counters(); c.OutcomeHits != 6 || c.OutcomeMisses != 0 {
		t.Fatalf("counters = %+v, want 6 outcome hits", c)
	}
}

// TestLaneOutcomesRejectsMismatch: a sidecar loads only under exactly the
// geometry it was written for — any drift in key, ways, sizes, or miss
// count is a silent (counted) miss, never wrong data.
func TestLaneOutcomesRejectsMismatch(t *testing.T) {
	st, err := NewStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("mcf_0")
	sizes := []int64{128 << 10, 1 << 20}
	const misses = 1000
	if err := st.SaveLaneOutcomes(key, 16, sizes, misses, randomBits(len(sizes), misses, 7)); err != nil {
		t.Fatal(err)
	}

	stale := key
	stale.ParamsTag = "00000000deadbeef"
	cases := []struct {
		name string
		ok   bool
	}{{"stale key", false}, {"other ways", false}, {"other sizes", false}, {"other misses", false}, {"exact", true}}
	results := []bool{}
	_, ok := st.OpenLaneOutcomes(stale, 16, sizes, misses)
	results = append(results, ok)
	_, ok = st.OpenLaneOutcomes(key, 8, sizes, misses)
	results = append(results, ok)
	_, ok = st.OpenLaneOutcomes(key, 16, []int64{128 << 10, 2 << 20}, misses)
	results = append(results, ok)
	_, ok = st.OpenLaneOutcomes(key, 16, sizes, misses+1)
	results = append(results, ok)
	_, ok = st.OpenLaneOutcomes(key, 16, sizes, misses)
	results = append(results, ok)
	for i, c := range cases {
		if results[i] != c.ok {
			t.Errorf("%s: ok = %v, want %v", c.name, results[i], c.ok)
		}
	}
}

// TestLaneOutcomesRejectsDamage: bit flips anywhere (magic, header, payload,
// CRC) and truncation all reject the sidecar.
func TestLaneOutcomesRejectsDamage(t *testing.T) {
	st, err := NewStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("xz_1")
	sizes := []int64{256 << 10}
	const misses = 500
	bits := randomBits(len(sizes), misses, 3)
	if err := st.SaveLaneOutcomes(key, 16, sizes, misses, bits); err != nil {
		t.Fatal(err)
	}
	path := st.LaneOutcomePath(key)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, off := range []int{0, 9, 20, len(pristine) / 2, len(pristine) - 2} {
		raw := append([]byte(nil), pristine...)
		raw[off] ^= 0x10
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := st.OpenLaneOutcomes(key, 16, sizes, misses); ok {
			t.Errorf("flip at %d: damaged sidecar served", off)
		}
	}
	if err := os.WriteFile(path, pristine[:len(pristine)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.OpenLaneOutcomes(key, 16, sizes, misses); ok {
		t.Error("truncated sidecar served")
	}

	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.OpenLaneOutcomes(key, 16, sizes, misses); !ok {
		t.Error("pristine sidecar rejected")
	}
}

// mixTestKey is a key with every mix-stream extension field set, as the
// fused mix engine produces them.
func mixTestKey() Key {
	return Key{
		Benchmark:    "mix-bwaves_1+AES-256-d1",
		Instructions: 110_000,
		L1Bytes:      32 << 10,
		L1Ways:       8,
		ParamsTag:    "0123456789abcdef",
		Flavor:       "mix",
		Domain:       1,
		CryptoPhase:  1000,
		SpecPhase:    2000,
		Secret:       7,
		Unannotated:  true,
	}
}

// TestLaneSidecarMixKeyedCorruptionRecomputed: sidecars under mix-style
// keys round-trip, the mix extension fields participate in matching (a
// mix-keyed sidecar must never serve the classic key sharing its path, or
// vice versa), and a corrupt mix-keyed sidecar is a counted miss that a
// fresh Save repairs — the engine's recompute-and-rewrite path.
func TestLaneSidecarMixKeyedCorruptionRecomputed(t *testing.T) {
	st, err := NewStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	key := mixTestKey()
	sizes := []int64{512 << 10, 4 << 20}
	const misses = 777
	bits := randomBits(len(sizes), misses, 11)
	if err := st.SaveLaneOutcomes(key, 16, sizes, misses, bits); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.OpenLaneOutcomes(key, 16, sizes, misses); !ok {
		t.Fatal("mix-keyed sidecar did not round-trip")
	}

	// A classic key with the same benchmark and instruction count maps to
	// the same sidecar path; only full-key matching keeps them apart.
	classic := key
	classic.Flavor = ""
	classic.Domain = 0
	classic.CryptoPhase = 0
	classic.SpecPhase = 0
	classic.Secret = 0
	classic.Unannotated = false
	if st.LaneOutcomePath(classic) != st.LaneOutcomePath(key) {
		t.Fatalf("test premise broken: keys map to different paths")
	}
	if _, ok := st.OpenLaneOutcomes(classic, 16, sizes, misses); ok {
		t.Error("mix-keyed sidecar served a classic key")
	}

	// Corrupt the payload: the open is a silent counted miss...
	path := st.LaneOutcomePath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	before := st.Counters()
	if _, ok := st.OpenLaneOutcomes(key, 16, sizes, misses); ok {
		t.Fatal("corrupt mix-keyed sidecar served")
	}
	// ...and the recompute path (Save again) restores service.
	if err := st.SaveLaneOutcomes(key, 16, sizes, misses, bits); err != nil {
		t.Fatal(err)
	}
	got, ok := st.OpenLaneOutcomes(key, 16, sizes, misses)
	if !ok {
		t.Fatal("rewritten sidecar rejected")
	}
	for i := range bits {
		for j := range bits[i] {
			if got[i][j] != bits[i][j] {
				t.Fatalf("lane %d word %d = %#x, want %#x", i, j, got[i][j], bits[i][j])
			}
		}
	}
	after := st.Counters()
	if after.OutcomeMisses != before.OutcomeMisses+1 {
		t.Errorf("corrupt open counted %d misses, want 1", after.OutcomeMisses-before.OutcomeMisses)
	}
}

// FuzzLaneSidecar hardens the sidecar decoder against arbitrary on-disk
// bytes: readLaneOutcomes must never panic, and anything it accepts must
// hold at most the requested miss count and exactly the geometry of the
// count it reports — the engine indexes the returned bitsets by that
// count without further checks.
func FuzzLaneSidecar(f *testing.F) {
	st, err := NewStore(f.TempDir(), false)
	if err != nil {
		f.Fatal(err)
	}
	key := mixTestKey()
	sizes := []int64{512 << 10, 4 << 20}
	const misses = 777
	if err := st.SaveLaneOutcomes(key, 16, sizes, misses, randomBits(len(sizes), misses, 11)); err != nil {
		f.Fatal(err)
	}
	pristine, err := os.ReadFile(st.LaneOutcomePath(key))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pristine)
	f.Add(pristine[:12])
	f.Add(pristine[:len(pristine)-4])
	f.Add([]byte("UNTGLN01"))
	mut := append([]byte(nil), pristine...)
	mut[30] ^= 0xff // inside the JSON header
	f.Add(mut)
	mut2 := append([]byte(nil), pristine...)
	mut2[8] = 0xff // absurd header length
	f.Add(mut2)

	f.Fuzz(func(t *testing.T, raw []byte) {
		bits, n := readLaneOutcomes(bytes.NewReader(raw), int64(len(raw)), key, 16, sizes, misses)
		if bits == nil {
			return
		}
		if n > misses {
			t.Fatalf("accepted %d misses, limit %d", n, misses)
		}
		if len(bits) != len(sizes) {
			t.Fatalf("accepted %d lanes, want %d", len(bits), len(sizes))
		}
		for i, lane := range bits {
			if len(lane) != outcomeWords(n) {
				t.Fatalf("lane %d has %d words, want %d", i, len(lane), outcomeWords(n))
			}
		}
	})
}

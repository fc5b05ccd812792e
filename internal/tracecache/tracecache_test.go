package tracecache

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"

	"untangle/internal/telemetry"
)

func testKey(bench string) Key {
	return Key{Benchmark: bench, Instructions: 100_000, L1Bytes: 32 << 10, L1Ways: 8, ParamsTag: "deadbeefdeadbeef"}
}

// randomEvents builds a deterministic pseudo-random stream exercising every
// encoding path: all three kinds, inline and escaped non-mem runs, small
// and huge address deltas (forward and backward).
func randomEvents(n int, seed int64) []Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]Event, n)
	addr := uint64(1 << 40)
	for i := range events {
		ev := Event{Kind: uint8(rng.Intn(3))}
		switch rng.Intn(4) {
		case 0:
			ev.NonMem = uint32(rng.Intn(nonMemEscape)) // inline
		case 1:
			ev.NonMem = nonMemEscape + uint32(rng.Intn(100)) // escaped, small
		case 2:
			ev.NonMem = uint32(rng.Uint64()) // escaped, up to 32 bits
		}
		if ev.Kind == KindL1Miss {
			switch rng.Intn(3) {
			case 0:
				addr += 64
			case 1:
				addr -= uint64(rng.Intn(1 << 20))
			case 2:
				addr = rng.Uint64()
			}
			ev.Addr = addr
		}
		events[i] = ev
	}
	return events
}

func writeEntry(t *testing.T, st *Store, key Key, events []Event) {
	t.Helper()
	w, err := st.Create(key)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Split into uneven batches to exercise batch-boundary handling.
	for i := 0; i < len(events); {
		n := 1 + (i*7)%513
		if i+n > len(events) {
			n = len(events) - i
		}
		if err := w.WriteEvents(events[i : i+n]); err != nil {
			t.Fatal(err)
		}
		i += n
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

func readAll(r *Reader, batch int) ([]Event, error) {
	var out []Event
	buf := make([]Event, batch)
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

func TestRoundTrip(t *testing.T) {
	st, err := NewStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("mcf_0")
	events := randomEvents(20_000, 1)
	writeEntry(t, st, key, events)

	// Batch size must not matter: the reader carries state across Read calls.
	for _, batch := range []int{1, 7, 4096, 100_000} {
		r, err := st.Open(key)
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			t.Fatal("expected a hit")
		}
		got, err := readAll(r, batch)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		r.Close()
		if len(got) != len(events) {
			t.Fatalf("batch %d: decoded %d events, want %d", batch, len(got), len(events))
		}
		for i := range got {
			if got[i] != events[i] {
				t.Fatalf("batch %d: event %d = %+v, want %+v", batch, i, got[i], events[i])
			}
		}
	}

	c := st.Counters()
	if c.Misses != 0 || c.Hits != 4 {
		t.Fatalf("counters = %+v, want 4 hits, 0 misses", c)
	}
	if c.BytesWritten == 0 || c.BytesRead == 0 {
		t.Fatalf("byte counters not advanced: %+v", c)
	}
}

func TestEmptyStream(t *testing.T) {
	st, err := NewStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("empty")
	writeEntry(t, st, key, nil)
	r, err := st.Open(key)
	if err != nil || r == nil {
		t.Fatalf("open: %v, %v", r, err)
	}
	defer r.Close()
	got, err := readAll(r, 16)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %d events, err %v", len(got), err)
	}
}

func TestMissThenHit(t *testing.T) {
	st, err := NewStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("lbm_0")
	if r, err := st.Open(key); err != nil || r != nil {
		t.Fatalf("expected a clean miss, got %v, %v", r, err)
	}
	writeEntry(t, st, key, randomEvents(100, 2))
	r, err := st.Open(key)
	if err != nil || r == nil {
		t.Fatalf("expected a hit, got %v, %v", r, err)
	}
	r.Close()
	if c := st.Counters(); c.Misses != 1 || c.Hits != 1 {
		t.Fatalf("counters = %+v, want 1 miss then 1 hit", c)
	}
}

func TestUncommittedWriteLeavesNoEntry(t *testing.T) {
	st, err := NewStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("gcc_0")
	w, err := st.Create(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvents(randomEvents(1000, 3)); err != nil {
		t.Fatal(err)
	}
	w.Close() // abort: no Commit
	if _, err := os.Stat(st.EntryPath(key)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("aborted write left an entry: %v", err)
	}
	if r, err := st.Open(key); err != nil || r != nil {
		t.Fatalf("expected a miss after aborted write, got %v, %v", r, err)
	}
}

func TestKeyMismatchFailsLoudlyNamingBothKeys(t *testing.T) {
	st, err := NewStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("xz_0")
	writeEntry(t, st, key, randomEvents(50, 4))

	want := key
	want.ParamsTag = "0123456789abcdef" // parameter tables drifted
	_, err = st.Open(want)
	if !errors.Is(err, ErrKeyMismatch) {
		t.Fatalf("err = %v, want ErrKeyMismatch", err)
	}
	for _, tag := range []string{key.ParamsTag, want.ParamsTag, "-fe-cache-rebuild"} {
		if !strings.Contains(err.Error(), tag) {
			t.Fatalf("error %q does not name %q", err, tag)
		}
	}

	// With rebuild enabled the mismatch demotes to a counted miss.
	st2, err := NewStore(st.Dir(), true)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := st2.Open(want); err != nil || r != nil {
		t.Fatalf("rebuild store: got %v, %v, want miss", r, err)
	}
	if c := st2.Counters(); c.Rebuilds != 1 || c.Misses != 1 {
		t.Fatalf("rebuild counters = %+v", c)
	}
}

// corruptions damages a committed entry in every structural way the format
// must catch.
func TestCorruptionDetected(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, path string)
		// openFails: damage visible at Open; otherwise it must surface
		// from Read as ErrCorrupt.
		openFails bool
	}{
		{"bad magic", func(t *testing.T, path string) { patch(t, path, 0, []byte{'X'}) }, true},
		{"truncated to torn block", func(t *testing.T, path string) { truncateBy(t, path, 13) }, true},
		{"footer block removed", func(t *testing.T, path string) { truncateBy(t, path, blockSize) }, true},
		{"oversized header length", func(t *testing.T, path string) {
			patch(t, path, 8, []byte{0xFF, 0xFF, 0xFF, 0x7F})
		}, true},
		{"flipped payload bit", func(t *testing.T, path string) {
			flipDataByte(t, path, 0)
		}, false},
		{"block length out of range", func(t *testing.T, path string) {
			// First data block's length slot -> 0x7F > payloadMax.
			patchDataBlockLen(t, path)
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := NewStore(t.TempDir(), false)
			if err != nil {
				t.Fatal(err)
			}
			key := testKey("nab_0")
			writeEntry(t, st, key, randomEvents(5000, 5))
			tc.mutate(t, st.EntryPath(key))
			r, err := st.Open(key)
			if tc.openFails {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Open err = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer r.Close()
			if _, err := readAll(r, 4096); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Read err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// patch overwrites bytes at off in path.
func patch(t *testing.T, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func truncateBy(t *testing.T, path string, n int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// dataStart locates the first data block (after the padded header).
func dataStart(t *testing.T, path string) int64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var pre [12]byte
	if _, err := io.ReadFull(f, pre[:]); err != nil {
		t.Fatal(err)
	}
	hLen := int64(uint32(pre[8]) | uint32(pre[9])<<8 | uint32(pre[10])<<16 | uint32(pre[11])<<24)
	return (12 + hLen + blockSize - 1) / blockSize * blockSize
}

func flipDataByte(t *testing.T, path string, idx int64) {
	t.Helper()
	off := dataStart(t, path) + idx
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func patchDataBlockLen(t *testing.T, path string) {
	t.Helper()
	patch(t, path, dataStart(t, path)+payloadMax, []byte{0x7F})
}

func TestSingleFlightLock(t *testing.T) {
	st, err := NewStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("roms_0")
	var mu sync.Mutex
	inFlight, maxInFlight := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			unlock := st.Lock(key)
			defer unlock()
			mu.Lock()
			inFlight++
			if inFlight > maxInFlight {
				maxInFlight = inFlight
			}
			mu.Unlock()
			r, err := st.Open(key)
			if err != nil {
				t.Error(err)
			}
			if r == nil {
				w, err := st.Create(key)
				if err != nil {
					t.Error(err)
					return
				}
				defer w.Close()
				if err := w.WriteEvents(randomEvents(200, 6)); err != nil {
					t.Error(err)
				}
				if err := w.Commit(); err != nil {
					t.Error(err)
				}
			} else {
				r.Close()
			}
			mu.Lock()
			inFlight--
			mu.Unlock()
		}()
	}
	wg.Wait()
	if maxInFlight != 1 {
		t.Fatalf("lock admitted %d concurrent holders", maxInFlight)
	}
	if c := st.Counters(); c.Misses != 1 || c.Hits != 7 {
		t.Fatalf("counters = %+v, want exactly one generation", c)
	}
}

func TestReadInfo(t *testing.T) {
	st, err := NewStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("bwaves_0")
	events := []Event{
		{Kind: KindNoMem, NonMem: 10},
		{Kind: KindL1Hit, NonMem: 3},
		{Kind: KindL1Miss, NonMem: 0, Addr: 0x1000},
		{Kind: KindL1Miss, NonMem: 100, Addr: 0x2000},
	}
	writeEntry(t, st, key, events)
	path := st.EntryPath(key)

	if ok, err := IsCacheFile(path); err != nil || !ok {
		t.Fatalf("IsCacheFile = %v, %v", ok, err)
	}
	info, err := ReadInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Key != key || info.Version != FormatVersion {
		t.Fatalf("info key/version = %+v", info)
	}
	if info.Events != 4 || info.ByKind != [4]uint64{1, 1, 2, 0} || info.MemOps() != 3 {
		t.Fatalf("info counts = %+v", info)
	}
	if want := uint64(10 + 3 + 1 + 1 + 100 + 1); info.Instructions != want {
		t.Fatalf("instructions = %d, want %d", info.Instructions, want)
	}
}

func TestRegisterMetrics(t *testing.T) {
	st, err := NewStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	st.RegisterMetrics(nil) // nil-safe
	key := testKey("povray_0")
	writeEntry(t, st, key, randomEvents(10, 7))
	r, err := st.Open(key)
	if err != nil || r == nil {
		t.Fatalf("open: %v, %v", r, err)
	}
	if _, err := readAll(r, 8); err != nil {
		t.Fatal(err)
	}
	r.Close()
	reg := telemetry.NewRegistry()
	st.RegisterMetrics(reg)
	snap := reg.Snapshot()
	if got := snap.Gauges["obs.fecache.hits"]; got != 1 {
		t.Fatalf("obs.fecache.hits = %v, want 1", got)
	}
	if got := snap.Gauges["obs.fecache.bytes_written"]; got <= 0 {
		t.Fatalf("obs.fecache.bytes_written = %v, want > 0", got)
	}
}

func BenchmarkWriteEvents(b *testing.B) {
	st, err := NewStore(b.TempDir(), false)
	if err != nil {
		b.Fatal(err)
	}
	events := randomEvents(1<<16, 8)
	b.SetBytes(int64(len(events)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := testKey("bench")
		w, err := st.Create(key)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.WriteEvents(events); err != nil {
			b.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}

func BenchmarkReadEvents(b *testing.B) {
	st, err := NewStore(b.TempDir(), false)
	if err != nil {
		b.Fatal(err)
	}
	events := randomEvents(1<<16, 9)
	key := testKey("bench")
	w, err := st.Create(key)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.WriteEvents(events); err != nil {
		b.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		b.Fatal(err)
	}
	buf := make([]Event, 4096)
	b.SetBytes(int64(len(events)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := st.Open(key)
		if err != nil || r == nil {
			b.Fatalf("open: %v, %v", r, err)
		}
		for {
			_, err := r.Read(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		r.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}

// TestReadAllocs pins a warm read's allocations as independent of the
// entry's length: opening, draining and closing an entry of 64 Ki events
// allocates exactly what an entry of 1 Ki does, so decoding never
// allocates per event or per block.
func TestReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	st, err := NewStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Event, 4096)
	var counts []float64
	for _, n := range []int{1 << 10, 1 << 16} {
		key := testKey(fmt.Sprintf("len%d", n))
		writeEntry(t, st, key, randomEvents(n, int64(n)))
		counts = append(counts, testing.AllocsPerRun(20, func() {
			r, err := st.Open(key)
			if err != nil || r == nil {
				t.Fatalf("open: %v, %v", r, err)
			}
			for {
				_, err := r.Read(buf)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			r.Close()
		}))
	}
	t.Logf("allocs per read: %v", counts)
	if counts[0] != counts[1] {
		t.Errorf("reading 1 Ki events: %v allocs; 64 Ki events: %v allocs, want equal", counts[0], counts[1])
	}
}

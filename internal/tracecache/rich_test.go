package tracecache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
)

// randomRichEvents builds a stream exercising the rich encoding: every
// kind, every flag combination, addresses both for misses and for
// monitor-observed hits, a monitor mask on every observed event, and a
// measured-end marker at the given position. Masks come from an alphabet
// of masks values: three draws in four take one of its first three
// (move-to-front hits), the rest any of it, so an alphabet past the
// list's 15 entries also escapes masks the list has dropped.
func randomRichEvents(n, marker int, seed int64, masks int) []Event {
	rng := rand.New(rand.NewSource(seed))
	alphabet := make([]uint16, masks)
	for i := range alphabet {
		alphabet[i] = uint16(rng.Intn(1 << 16))
	}
	events := make([]Event, n)
	addr := uint64(3 << 44)
	for i := range events {
		if i == marker {
			events[i] = Event{Kind: KindMeasuredEnd}
			continue
		}
		ev := Event{Kind: uint8(rng.Intn(3)), NonMem: uint32(rng.Intn(1 << 20))}
		if ev.Kind != KindNoMem {
			ev.Flags = uint8(rng.Intn(int(flagsMask) + 1))
			if ev.Kind == KindL1Hit {
				// A hit carries no L1 eviction/writeback.
				ev.Flags &^= FlagL1Evict | FlagL1Writeback
			}
		} else {
			// Non-mem events carry only the public-progress flag.
			ev.Flags = uint8(rng.Intn(2)) * FlagPublic
		}
		if richHasAddr(ev.Kind, ev.Flags) {
			addr += uint64(rng.Intn(1<<24)) - 1<<23
			ev.Addr = addr
		}
		if ev.Flags&FlagMonObserve != 0 {
			if k := rng.Intn(4); k < 3 {
				ev.MonMask = alphabet[min(k, masks-1)]
			} else {
				ev.MonMask = alphabet[rng.Intn(masks)]
			}
		}
		events[i] = ev
	}
	return events
}

func TestRichRoundTrip(t *testing.T) {
	st, err := NewStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	key := mixTestKey()
	events := randomRichEvents(20_000, 15_000, 42, 40)
	distinct := map[uint16]bool{}
	for _, ev := range events {
		if ev.Flags&FlagMonObserve != 0 {
			distinct[ev.MonMask] = true
		}
	}
	if len(distinct) <= maskEscape {
		t.Fatalf("stream holds %d distinct masks; it must overflow the %d-entry move-to-front list", len(distinct), maskEscape)
	}
	w, err := st.CreateRich(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(events); {
		n := 1 + (i*11)%487
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
	w.Close()

	for _, batch := range []int{1, 7, 4096, 100_000} {
		r, err := st.Open(key)
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			t.Fatal("expected a hit")
		}
		if !r.Rich() {
			t.Fatal("reader does not report the rich encoding")
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
}

// TestRichWriterRejectsMalformedEvents: the writer validates what the
// decoder would reject, so a bug upstream cannot persist an undecodable
// entry.
func TestRichWriterRejectsMalformedEvents(t *testing.T) {
	st, err := NewStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ev   Event
	}{
		{"kind out of range", Event{Kind: 4}},
		{"flags out of range", Event{Kind: KindL1Hit, Flags: 1 << 7}},
		{"marker with flags", Event{Kind: KindMeasuredEnd, Flags: FlagPublic}},
		{"marker with nonmem", Event{Kind: KindMeasuredEnd, NonMem: 1}},
		{"marker with addr", Event{Kind: KindMeasuredEnd, Addr: 64}},
		{"mask on an unobserved event", Event{Kind: KindL1Hit, MonMask: 3}},
	}
	for i, c := range cases {
		key := mixTestKey()
		key.Benchmark = key.Benchmark + string(rune('a'+i))
		w, err := st.CreateRich(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteEvents([]Event{c.ev}); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		w.Close()
	}
}

// TestClassicWriterRejectsRichFields: the classic encoding cannot carry
// flags or the marker kind; writing them through Create must fail rather
// than silently drop bits.
func TestClassicWriterRejectsRichFields(t *testing.T) {
	st, err := NewStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.Create(testKey("mcf_0"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.WriteEvents([]Event{{Kind: KindL1Hit, Flags: FlagWrite}}); err == nil {
		t.Error("classic writer accepted an event with flags")
	}
	if err := w.WriteEvents([]Event{{Kind: KindMeasuredEnd}}); err == nil {
		t.Error("classic writer accepted a measured-end marker")
	}
	if err := w.WriteEvents([]Event{{Kind: KindL1Miss, Addr: 64, MonMask: 1}}); err == nil {
		t.Error("classic writer accepted an event with a monitor mask")
	}
}

// TestRichSpareBitRejected: the encoding reserves control bit 7; a set
// spare bit on disk must surface as corruption, not decode as something.
func TestRichSpareBitRejected(t *testing.T) {
	st, err := NewStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	key := mixTestKey()
	w, err := st.CreateRich(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvents(randomRichEvents(100, 50, 9, 4)); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	path := st.EntryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Set the spare bit on the first control byte of the first data block
	// (the header is zero-padded to a block boundary), and stamp the run's
	// and the footer's CRCs anew, so that only the decoder's spare-bit
	// check can tell.
	hlen := int(binary.LittleEndian.Uint32(raw[8:12]))
	first := (8 + 4 + hlen + 63) / 64 * 64
	raw[first] |= 1 << 7
	footer := raw[len(raw)-blockSize:]
	blocks := int64(binary.LittleEndian.Uint64(footer[8:16]))
	index := raw[len(raw)-blockSize-int(indexBytes(blocks)) : len(raw)-blockSize]
	binary.LittleEndian.PutUint32(index, crc32.Checksum(raw[first:first+int(min(blocks, followRun))*blockSize], castagnoli))
	binary.LittleEndian.PutUint32(footer[16:20], footerCRC(index, footer))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := st.Open(key)
	if err != nil {
		t.Fatal(err)
	}
	if r == nil {
		t.Skip("entry demoted on open") // rebuild-disabled stores surface it below
	}
	_, err = readAll(r, 4096)
	r.Close()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read error = %v, want ErrCorrupt", err)
	}
}

// TestRetiredRichEntryRejected: an entry of the first rich layout, which
// stored no monitor masks, must never decode as the current one. It fails
// loudly as corrupt, and a store opened with rebuild demotes it to a miss.
func TestRetiredRichEntryRejected(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	key := mixTestKey()
	w, err := st.CreateRich(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvents(randomRichEvents(100, 50, 9, 4)); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Rewrite the header's encoding name in place; same length keeps the
	// header's padding, so only the name differs.
	path := st.EntryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cur := []byte(`"events":"` + richEvents + `"`)
	old := []byte(`"events":"` + retiredRichEvents + `"` + strings.Repeat(" ", len(richEvents)-len(retiredRichEvents)))
	if !bytes.Contains(raw, cur) {
		t.Fatalf("header lacks %s", cur)
	}
	if err := os.WriteFile(path, bytes.Replace(raw, cur, old, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Open(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open of a retired rich entry: %v, want ErrCorrupt", err)
	}
	rb, err := NewStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := rb.Open(key); r != nil || err != nil {
		t.Fatalf("rebuild store: reader %v, error %v; want a miss", r, err)
	}
	if c := rb.Counters(); c.Rebuilds != 1 {
		t.Fatalf("rebuild store counted %d rebuilds, want 1", c.Rebuilds)
	}
}

// FuzzRichEntry round-trips random rich streams — masks that hit the
// move-to-front list, escapes, alphabets past the list's 15 entries, the
// measured-end marker — and then flips bits in one byte of the data
// blocks, run index or footer. Decoding must never panic. A flip in a byte
// the format ignores (the footer's unused bytes) must decode the same
// stream; any other flip must fail with ErrCorrupt.
func FuzzRichEntry(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(3), uint16(0), uint8(0))
	f.Add(int64(2), uint16(2000), uint8(40), uint16(517), uint8(0x80))
	f.Add(int64(3), uint16(1), uint8(1), uint16(5), uint8(1))
	f.Add(int64(4), uint16(900), uint8(16), uint16(63), uint8(0xff))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, masks uint8, at uint16, flip uint8) {
		st, err := NewStore(t.TempDir(), false)
		if err != nil {
			t.Fatal(err)
		}
		key := mixTestKey()
		events := randomRichEvents(int(n)+1, int(n)/2, seed, int(masks)%64+1)
		w, err := st.CreateRich(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteEvents(events); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		w.Close()
		read := func() ([]Event, error) {
			r, err := st.Open(key)
			if err != nil {
				return nil, err
			}
			defer r.Close()
			return readAll(r, 1000)
		}
		got, err := read()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, events) {
			t.Fatal("round trip changed the stream")
		}
		if flip == 0 {
			return
		}

		path := st.EntryPath(key)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		hlen := int(binary.LittleEndian.Uint32(raw[8:12]))
		dataStart := (8 + 4 + hlen + blockSize - 1) / blockSize * blockSize
		off := dataStart + int(at)%(len(raw)-dataStart)
		within := off % blockSize
		ignored := off >= len(raw)-blockSize && within >= 20 && within < payloadMax // footer's unused bytes
		raw[off] ^= flip
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err = read()
		switch {
		case ignored && err != nil:
			t.Fatalf("flip at ignored byte %d: %v", off, err)
		case ignored && !slices.Equal(got, events):
			t.Fatalf("flip at ignored byte %d changed the stream", off)
		case !ignored && !errors.Is(err, ErrCorrupt):
			t.Fatalf("flip at byte %d: error %v, want ErrCorrupt", off, err)
		}
	})
}

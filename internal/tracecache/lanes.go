package tracecache

// Lane-outcome sidecars: the second memoization level of the front-end
// cache. The event stream (.fetrace) removes the generator and the private
// L1 from warm passes, but the dominant cost of a replay is still the nine
// LLC lane walks — and those outcomes are just as deterministic: a pure
// function of the stream's miss-address order and the lane geometry, with
// no feedback from the timing fold. A .felanes sidecar stores each lane's
// hit/miss bit sequence (one bit per L1 miss, stream order, one bitset per
// partition size), so a warm pass that finds a valid sidecar skips the LLC
// probes entirely and runs only the timing folds.
//
// Unlike the event stream, a sidecar is never the source of truth: it is
// rederivable from the (CRC-verified) stream it rides next to. A missing,
// corrupt, or mismatched sidecar therefore does not fail the run — the
// warm pass silently re-probes the verified stream and rewrites the
// sidecar. Stale data is still never served: every load validates the full
// event key, the LLC geometry, and a CRC-32C over the payload. The miss
// count is checked by the reader of the bits: OpenLaneOutcomes takes the
// count up front, while a block-by-block warm pass, which learns the
// stream's count only as it folds, loads with OpenLaneOutcomesUpTo and
// rejects the bits once the stream's misses disagree with the sidecar's.
//
// File layout (all integers little-endian):
//
//	magic "UNTGLN01" (8 bytes)
//	headerLen uint32, then headerLen bytes of JSON
//	  {"version":V,"key":{...},"ways":W,"sizes":[...],"misses":N}
//	payload: len(sizes) bitsets, each ceil(N/64) uint64 words —
//	  bit i of bitset s set = the i-th L1 miss hits in lane s
//	footer: uint32 CRC-32C over the payload bytes

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"untangle/internal/fsutil"
)

var lanesMagic = [8]byte{'U', 'N', 'T', 'G', 'L', 'N', '0', '1'}

type lanesHeader struct {
	Version int     `json:"version"`
	Key     Key     `json:"key"`
	Ways    int     `json:"ways"`
	Sizes   []int64 `json:"sizes"`
	Misses  uint64  `json:"misses"`
}

// LaneOutcomePath is the sidecar file for key's entry.
func (s *Store) LaneOutcomePath(key Key) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s-%d.felanes", key.Benchmark, key.Instructions))
}

// outcomeWords is the bitset length, in uint64 words, for one lane.
func outcomeWords(misses uint64) int { return int((misses + 63) / 64) }

// SaveLaneOutcomes atomically writes the sidecar for key: one hit/miss
// bitset per lane size, misses bits each. bits must hold exactly
// ceil(misses/64) words per lane — the engine's probe/tee loops produce
// exactly that shape.
func (s *Store) SaveLaneOutcomes(key Key, ways int, sizes []int64, misses uint64, bits [][]uint64) error {
	if len(bits) != len(sizes) {
		return fmt.Errorf("tracecache: %d bitsets for %d lane sizes", len(bits), len(sizes))
	}
	words := outcomeWords(misses)
	for i := range bits {
		if len(bits[i]) < words {
			return fmt.Errorf("tracecache: lane %d bitset has %d words, want %d", i, len(bits[i]), words)
		}
	}
	doc, err := json.Marshal(lanesHeader{Version: FormatVersion, Key: key, Ways: ways, Sizes: sizes, Misses: misses})
	if err != nil {
		return fmt.Errorf("tracecache: %w", err)
	}
	af, err := fsutil.CreateAtomic(s.LaneOutcomePath(key))
	if err != nil {
		return fmt.Errorf("tracecache: %w", err)
	}
	defer af.Close()
	bw := bufio.NewWriterSize(af, 1<<16)
	var pre [12]byte
	copy(pre[:], lanesMagic[:])
	binary.LittleEndian.PutUint32(pre[8:], uint32(len(doc)))
	bw.Write(pre[:])
	bw.Write(doc)
	crc := uint32(0)
	var scratch [8]byte
	for _, lane := range bits {
		for _, w := range lane[:words] {
			binary.LittleEndian.PutUint64(scratch[:], w)
			bw.Write(scratch[:])
			crc = crc32.Update(crc, castagnoli, scratch[:])
		}
	}
	binary.LittleEndian.PutUint32(scratch[:4], crc)
	if _, err := bw.Write(scratch[:4]); err != nil {
		return fmt.Errorf("tracecache: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("tracecache: %w", err)
	}
	if err := af.Commit(); err != nil {
		return fmt.Errorf("tracecache: %w", err)
	}
	s.bytesWritten.Add(int64(12 + len(doc) + len(bits)*words*8 + 4))
	return nil
}

// OpenLaneOutcomes loads the sidecar for key if — and only if — it matches
// the expected geometry exactly: same key, format version, way count, lane
// sizes, and miss count, with an intact payload CRC. Any shortfall returns
// ok=false (counted on the store), never an error: the caller re-probes
// the verified event stream, which is always safe.
func (s *Store) OpenLaneOutcomes(key Key, ways int, sizes []int64, misses uint64) (bits [][]uint64, ok bool) {
	bits, n, ok := s.OpenLaneOutcomesUpTo(key, ways, sizes, misses)
	ok = ok && n == misses
	s.NoteLaneOutcomes(ok)
	if !ok {
		return nil, false
	}
	return bits, true
}

// OpenLaneOutcomesUpTo is OpenLaneOutcomes for a caller that learns the
// stream's miss count only while folding it: it accepts any sidecar of
// the right key and geometry holding at most maxMisses outcomes per lane,
// and returns that count. The caller must reject the bits once its running
// miss cursor would pass the count, or if the count differs at end of
// stream. Only the caller knows the verdict, so this leaves the outcome
// counters alone; report it with NoteLaneOutcomes.
//
// The payload streams straight into the bitsets, so a load allocates the
// bitsets and a constant, never a second copy of the file.
func (s *Store) OpenLaneOutcomesUpTo(key Key, ways int, sizes []int64, maxMisses uint64) (bits [][]uint64, misses uint64, ok bool) {
	f, err := os.Open(s.LaneOutcomePath(key))
	if err != nil {
		return nil, 0, false
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, false
	}
	bits, misses = readLaneOutcomes(f, fi.Size(), key, ways, sizes, maxMisses)
	if bits == nil {
		return nil, 0, false
	}
	s.bytesRead.Add(fi.Size())
	return bits, misses, true
}

// NoteLaneOutcomes counts one warm pass as served by a sidecar (hit) or
// re-probed (miss).
func (s *Store) NoteLaneOutcomes(hit bool) {
	if hit {
		s.outcomeHits.Add(1)
	} else {
		s.outcomeMisses.Add(1)
	}
}

// maxLanesHeader bounds the JSON header a sidecar may declare; real
// headers are a few hundred bytes.
const maxLanesHeader = 4096

// readLaneOutcomes parses and validates a sidecar of size bytes from r,
// accepting any miss count up to maxMisses; nil bits means reject. The
// declared geometry must account for exactly size bytes before anything
// is allocated for the payload, so a damaged header cannot demand a huge
// buffer.
func readLaneOutcomes(r io.Reader, size int64, key Key, ways int, sizes []int64, maxMisses uint64) ([][]uint64, uint64) {
	var pre [12]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil || [8]byte(pre[0:8]) != lanesMagic {
		return nil, 0
	}
	hLen := int64(binary.LittleEndian.Uint32(pre[8:12]))
	if hLen <= 0 || hLen > maxLanesHeader || 12+hLen > size {
		return nil, 0
	}
	doc := make([]byte, hLen)
	if _, err := io.ReadFull(r, doc); err != nil {
		return nil, 0
	}
	var h lanesHeader
	if err := json.Unmarshal(doc, &h); err != nil {
		return nil, 0
	}
	if h.Version != FormatVersion || h.Key != key || h.Ways != ways ||
		!slices.Equal(h.Sizes, sizes) || h.Misses > maxMisses || h.Misses > uint64(size)*8 {
		return nil, 0
	}
	words := outcomeWords(h.Misses)
	if size != 12+hLen+int64(len(sizes)*words*8)+4 {
		return nil, 0
	}
	bits := make([][]uint64, len(sizes))
	buf := make([]byte, 4096)
	crc := uint32(0)
	for i := range bits {
		lane := make([]uint64, words)
		for j := 0; j < words; {
			chunk := buf[:min(len(buf), (words-j)*8)]
			if _, err := io.ReadFull(r, chunk); err != nil {
				return nil, 0
			}
			crc = crc32.Update(crc, castagnoli, chunk)
			for k := 0; k < len(chunk); k += 8 {
				lane[j] = binary.LittleEndian.Uint64(chunk[k:])
				j++
			}
		}
		bits[i] = lane
	}
	if _, err := io.ReadFull(r, pre[:4]); err != nil || crc != binary.LittleEndian.Uint32(pre[:4]) {
		return nil, 0
	}
	return bits, h.Misses
}

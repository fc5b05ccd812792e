// The entry file format: the writer, and the reader that serves committed
// entries and follows staged ones.
//
// An entry is verified run by run. The writer folds every sealed data
// block into a CRC-32C per run of followRun blocks (64 KiB) and Commit
// writes those CRCs as an index before the footer, whose own CRC covers
// the index, the event count and the data block count. Opening an entry
// checks the footer and the index; a committed reader then loads its data
// a run at a time, by block number, and checks each run against the index
// before it decodes any of the run's events. So no reader returns an event
// from bytes it has not verified, and a reader that stops early has
// verified every event it returned. A follower (Writer.Follow) reads the
// same blocks while the entry is written, from the writer's own staged
// file, and checks the event count once the writer has committed.
package tracecache

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"untangle/internal/fsutil"
)

const (
	blockSize      = 64            // one cache line per record block
	payloadMax     = blockSize - 1 // last byte holds the payload length
	footerSentinel = 0xFF          // payload-length slot value marking the footer
	// maxEventSize bounds one encoded event: control byte + non-mem uvarint
	// (a rich observed event packs a 4-bit mask code under it) + escaped
	// mask uvarint + address-delta uvarint. Events never split across
	// blocks, so this must fit in payloadMax (it does, with room: 24 <= 63).
	maxEventSize = 1 + binary.MaxVarintLen64 + binary.MaxVarintLen16 + binary.MaxVarintLen64

	// nonMemEscape in the control byte's high six bits means the run length
	// did not fit inline and follows as a uvarint.
	nonMemEscape = 63

	// A rich observed event's non-mem uvarint carries NonMem<<maskCodeBits |
	// code: code < maskEscape is the mask's rank in the entry's
	// move-to-front list (maskList), maskEscape means the mask follows as
	// a uvarint.
	maskCodeBits = 4
	maskEscape   = 1<<maskCodeBits - 1
)

var magic = [8]byte{'U', 'N', 'T', 'G', 'F', 'E', '0', '1'}

// castagnoli is the CRC-32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// zigzag/unzigzag map signed address deltas to unsigned varint space — the
// same discipline as internal/isa/tracefile.go's trace records.
func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

// header is the JSON document after the magic: the format version, the
// full key, and the event encoding ("rich" for mix streams; absent for the
// classic encoding), so a mismatch diagnostic can name what the file
// actually holds and `tracegen -info` can print it.
type header struct {
	Version int    `json:"version"`
	Key     Key    `json:"key"`
	Events  string `json:"events,omitempty"`
}

// richEvents is the header.Events value selecting the rich encoding.
// retiredRichEvents named its first layout, which carried no monitor hit
// vectors; such entries fail to open (ErrCorrupt), so a store opened with
// rebuild regenerates them and any other store refuses them loudly.
const (
	richEvents        = "rich-masks"
	retiredRichEvents = "rich"
)

// maskList is a rich entry's move-to-front list of recent monitor hit
// vectors, kept in step by the writer and the reader and empty at the
// start of every entry. An observed event names its mask by rank, so the
// few masks a stream repeats cost no bytes beyond the non-mem run's.
type maskList struct {
	masks [maskEscape]uint16
	n     int
}

// rank returns mask's rank, or maskEscape when the list lacks it.
func (l *maskList) rank(mask uint16) int {
	for i, m := range l.masks[:l.n] {
		if m == mask {
			return i
		}
	}
	return maskEscape
}

// front moves the mask at rank i to the front.
func (l *maskList) front(i int) {
	m := l.masks[i]
	copy(l.masks[1:i+1], l.masks[:i])
	l.masks[0] = m
}

// push puts a new mask at the front, dropping the last when full.
func (l *maskList) push(mask uint16) {
	l.n = min(l.n+1, len(l.masks))
	copy(l.masks[1:l.n], l.masks[:l.n-1])
	l.masks[0] = mask
}

// headerBytes renders the file prefix: magic, headerLen, JSON, zero padding
// to a block boundary so the data region is 64-byte aligned.
func headerBytes(key Key, rich bool) ([]byte, error) {
	h := header{Version: FormatVersion, Key: key}
	if rich {
		h.Events = richEvents
	}
	doc, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	n := len(magic) + 4 + len(doc)
	padded := (n + blockSize - 1) / blockSize * blockSize
	buf := make([]byte, padded)
	copy(buf, magic[:])
	binary.LittleEndian.PutUint32(buf[len(magic):], uint32(len(doc)))
	copy(buf[len(magic)+4:], doc)
	return buf, nil
}

// Writer streams events into a staged cache entry. Events accumulate into
// 64-byte blocks; Commit writes the run index and the footer and
// atomically publishes the file. Close without Commit discards
// everything. Follow reads the staged entry while it is written.
type Writer struct {
	st   *Store
	key  Key
	af   *fsutil.AtomicFile
	bw   *bufio.Writer
	rich bool
	hdr  int64 // header bytes: the data region's offset

	block    [blockSize]byte
	n        int // payload bytes staged in block
	prevAddr uint64
	masks    maskList
	count    uint64
	crc      uint32 // CRC-32C of the current run's sealed blocks
	index    []byte // one little-endian CRC-32C per finished run
	written  int64
	blocks   int64 // data blocks sealed into bw
	flushed  int64 // data blocks flushed to the staged file
	sealed   bool  // committed: the file holds every event and the footer
}

func newWriter(st *Store, key Key, rich bool) (*Writer, error) {
	hdr, err := headerBytes(key, rich)
	if err != nil {
		return nil, fmt.Errorf("tracecache: %w", err)
	}
	af, err := fsutil.CreateAtomic(st.EntryPath(key))
	if err != nil {
		return nil, fmt.Errorf("tracecache: %w", err)
	}
	bw := bufio.NewWriterSize(af, 1<<16)
	if _, err := bw.Write(hdr); err != nil {
		af.Close()
		return nil, fmt.Errorf("tracecache: %w", err)
	}
	return &Writer{st: st, key: key, af: af, bw: bw, rich: rich, hdr: int64(len(hdr)), written: int64(len(hdr))}, nil
}

// WriteEvents appends a batch of events. Safe to call with the engine's
// reused chunk buffer — bytes are copied out before returning.
func (w *Writer) WriteEvents(events []Event) error {
	if w.rich {
		return w.writeRichEvents(events)
	}
	var scratch [maxEventSize]byte
	for _, ev := range events {
		if ev.Kind > KindL1Miss {
			return fmt.Errorf("tracecache: invalid event kind %d", ev.Kind)
		}
		if ev.Flags != 0 || ev.MonMask != 0 {
			// The classic encoding has no flag bits or masks; dropping them
			// silently would decode to a different stream.
			return fmt.Errorf("tracecache: event flags %#x and mask %#x need the rich encoding (CreateRich)", ev.Flags, ev.MonMask)
		}
		scratch[0] = ev.Kind
		n := 1
		if ev.NonMem < nonMemEscape {
			scratch[0] |= uint8(ev.NonMem) << 2
		} else {
			scratch[0] |= nonMemEscape << 2
			n += binary.PutUvarint(scratch[n:], uint64(ev.NonMem))
		}
		if ev.Kind == KindL1Miss {
			delta := int64(ev.Addr) - int64(w.prevAddr)
			n += binary.PutUvarint(scratch[n:], zigzag(delta))
			w.prevAddr = ev.Addr
		}
		if err := w.put(scratch[:n]); err != nil {
			return err
		}
	}
	return nil
}

// writeRichEvents encodes the rich layout: control byte = kind (low two
// bits) | flags (bits 2..6, bit 7 spare and zero), then the non-mem run as
// a plain uvarint — for a monitor-observed event, NonMem<<maskCodeBits |
// the mask's code, an escaped mask following as a uvarint — then, when the
// event carries an address (an L1 miss, or any access the monitor
// observes), the address as a zigzag delta uvarint on the writer's single
// delta chain.
func (w *Writer) writeRichEvents(events []Event) error {
	var scratch [maxEventSize]byte
	for _, ev := range events {
		if ev.Kind > KindMeasuredEnd {
			return fmt.Errorf("tracecache: invalid event kind %d", ev.Kind)
		}
		if ev.Flags&^flagsMask != 0 {
			return fmt.Errorf("tracecache: invalid event flags %#x", ev.Flags)
		}
		if ev.Kind == KindMeasuredEnd && (ev.Flags != 0 || ev.NonMem != 0 || ev.Addr != 0) {
			return fmt.Errorf("tracecache: measured-end marker must be empty")
		}
		observed := ev.Flags&FlagMonObserve != 0
		if !observed && ev.MonMask != 0 {
			return fmt.Errorf("tracecache: mask %#x on an event the monitor does not observe", ev.MonMask)
		}
		scratch[0] = ev.Kind | ev.Flags<<2
		v, code := uint64(ev.NonMem), 0
		if observed {
			if code = w.masks.rank(ev.MonMask); code == maskEscape {
				w.masks.push(ev.MonMask)
			} else {
				w.masks.front(code)
			}
			v = v<<maskCodeBits | uint64(code)
		}
		n := 1 + binary.PutUvarint(scratch[1:], v)
		if code == maskEscape {
			n += binary.PutUvarint(scratch[n:], uint64(ev.MonMask))
		}
		if richHasAddr(ev.Kind, ev.Flags) {
			delta := int64(ev.Addr) - int64(w.prevAddr)
			n += binary.PutUvarint(scratch[n:], zigzag(delta))
			w.prevAddr = ev.Addr
		}
		if err := w.put(scratch[:n]); err != nil {
			return err
		}
	}
	return nil
}

// richHasAddr reports whether a rich event carries an address field.
func richHasAddr(kind, flags uint8) bool {
	return kind == KindL1Miss || flags&FlagMonObserve != 0
}

// put stages one encoded event, flushing the block first if it would not
// fit (events never split across blocks).
func (w *Writer) put(enc []byte) error {
	if w.n+len(enc) > payloadMax {
		if err := w.flushBlock(); err != nil {
			return err
		}
	}
	copy(w.block[w.n:], enc)
	w.n += len(enc)
	w.count++
	return nil
}

// flushBlock seals the staged payload into one 64-byte record: zero the
// slack, stamp the payload length in the last slot, fold the whole block
// into its run's CRC, emit. The run's CRC goes to the index once the run
// is full.
func (w *Writer) flushBlock() error {
	for i := w.n; i < payloadMax; i++ {
		w.block[i] = 0
	}
	w.block[payloadMax] = byte(w.n)
	w.crc = crc32.Update(w.crc, castagnoli, w.block[:])
	if _, err := w.bw.Write(w.block[:]); err != nil {
		return fmt.Errorf("tracecache: %w", err)
	}
	w.written += blockSize
	w.blocks++
	w.n = 0
	if w.blocks%followRun == 0 {
		w.sealRun()
	}
	return nil
}

// sealRun appends the current run's CRC to the index.
func (w *Writer) sealRun() {
	w.index = binary.LittleEndian.AppendUint32(w.index, w.crc)
	w.crc = 0
}

// indexBytes is the size of the run index of an entry of blocks data
// blocks: one CRC-32C per run, zero-padded to whole blocks.
func indexBytes(blocks int64) int64 {
	runs := (blocks + followRun - 1) / followRun
	return (4*runs + blockSize - 1) / blockSize * blockSize
}

// Count returns the events written so far.
func (w *Writer) Count() uint64 { return w.count }

// Commit seals the entry — partial block, run index, footer (sentinel,
// event count, data block count, CRC-32C of the index and both counts),
// flush, fsync, atomic rename — and records the bytes written on the
// store. After Commit the writer is spent.
func (w *Writer) Commit() error {
	if w.n > 0 {
		if err := w.flushBlock(); err != nil {
			return err
		}
	}
	if w.blocks%followRun != 0 {
		w.sealRun()
	}
	w.index = append(w.index, make([]byte, indexBytes(w.blocks)-int64(len(w.index)))...)
	var footer [blockSize]byte
	binary.LittleEndian.PutUint64(footer[0:8], w.count)
	binary.LittleEndian.PutUint64(footer[8:16], uint64(w.blocks))
	binary.LittleEndian.PutUint32(footer[16:20], footerCRC(w.index, footer[:]))
	footer[payloadMax] = footerSentinel
	if _, err := w.bw.Write(w.index); err != nil {
		return fmt.Errorf("tracecache: %w", err)
	}
	if _, err := w.bw.Write(footer[:]); err != nil {
		return fmt.Errorf("tracecache: %w", err)
	}
	w.written += int64(len(w.index)) + blockSize
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("tracecache: %w", err)
	}
	w.flushed = w.blocks
	if err := w.af.Commit(); err != nil {
		return fmt.Errorf("tracecache: %w", err)
	}
	w.sealed = true
	if w.st != nil {
		w.st.bytesWritten.Add(w.written)
	}
	return nil
}

// CommitLonger is Commit for an entry whose stream extends or is extended
// by every other stream of its key: unless the store already holds an
// entry for the key with at least as many events, it commits; otherwise
// it discards its own staged file and reports false. Rich mix entries are
// such streams — one measured stream, then a prefix of one deterministic
// pressure stream — so the longer entry serves every reader the shorter
// would, and a later, shorter commit never shrinks a pressure tail. The
// caller holds the entry's Lock.
func (w *Writer) CommitLonger() (bool, error) {
	if r, err := openReader(w.st.EntryPath(w.key), nil); err == nil {
		longer := r.key == w.key && r.rich == w.rich && r.wantCount >= w.count
		r.Close()
		if longer {
			return false, w.Close()
		}
	}
	return true, w.Commit()
}

// Pos is a point in a writer's stream, at which a follower can start
// reading (Writer.Follow, Reader.Seek): the number of events before it,
// and where the next event starts and the decoder's state there.
type Pos struct {
	Events   uint64
	block    int64 // data block holding the next event
	off      int   // payload bytes of that block before it
	prevAddr uint64
	masks    maskList
}

// Pos returns the point after the events written so far.
func (w *Writer) Pos() Pos {
	return Pos{Events: w.count, block: w.blocks, off: w.n, prevAddr: w.prevAddr, masks: w.masks}
}

// Follow opens a reader that follows the writer's uncommitted entry from
// p, a Pos of this writer (the zero Pos is the stream's start). Its Read
// returns the events written so far, then a short batch — possibly
// empty — with a nil error once it has caught up with the writer, and
// io.EOF once the writer has committed and every event is read. A
// follower flushes the writer's buffer before it reads the staged file,
// and reads the writer's unsealed block from memory, so its Read and Seek
// must not run concurrently with the writer's methods. It checks the
// event count at the end; the run CRCs are the committed entry's.
func (w *Writer) Follow(p Pos) (*Reader, error) {
	if w.sealed {
		return nil, fmt.Errorf("tracecache: follow of %s after Commit", w.af.Name())
	}
	f, err := os.Open(w.af.StagedName())
	if err != nil {
		return nil, fmt.Errorf("tracecache: %w", err)
	}
	r := &Reader{st: w.st, f: f, key: w.key, rich: w.rich, hdr: w.hdr, w: w}
	r.Seek(p)
	return r, nil
}

// Close discards an uncommitted entry (no-op after Commit). Always safe to
// defer next to a conditional Commit.
func (w *Writer) Close() error { return w.af.Close() }

// Reader streams events back out of a cache entry, a run of blocks at a
// time. Each run is checked against the entry's index before any of its
// events decode, and the footer's event count when the stream drains:
// bit flips surface as ErrCorrupt from Read, never as wrong events.
type Reader struct {
	st *Store
	f  *os.File

	key  Key
	rich bool

	block    [blockSize]byte
	pos, n   int
	prevAddr uint64
	masks    maskList

	decoded   uint64
	wantCount uint64
	read      int64
	finished  bool

	// The data region's offset, and a committed entry's data blocks and
	// run index (the CRCs the runs are checked against).
	hdr    int64
	blocks int64
	index  []byte

	// A follower's writer (nil for an entry opened from the store), the
	// data block in block and whether it was the writer's unsealed one
	// (so it is loaded again for the events added since), and the run of
	// sealed blocks last read from the file.
	w       *Writer
	cur     int64
	partial bool
	run     []byte
	runAt   int64 // block number of run[0]
	runLen  int64 // blocks in run
}

// followRun is the number of data blocks in a run: the unit a reader loads
// from the file at once, and a committed entry verifies with one CRC.
const followRun = 1024

// footerCRC is the footer's checksum: a CRC-32C over the run index and the
// footer's two counts (footer[0:16]).
func footerCRC(index, footer []byte) uint32 {
	return crc32.Update(crc32.Checksum(index, castagnoli), castagnoli, footer[:16])
}

// openReader validates the file's structure and header and positions the
// stream at the first data block. st may be nil (ReadInfo's path); key
// comparison is the caller's job — this layer only guarantees the file is
// structurally sound end to end.
func openReader(path string, st *Store) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := prepareReader(f, st)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
	}
	return r, nil
}

func prepareReader(f *os.File, st *Store) (*Reader, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size%blockSize != 0 || size < 2*blockSize {
		return nil, fmt.Errorf("size %d is not a positive multiple of %d — torn or truncated", size, blockSize)
	}
	var pre [12]byte
	if _, err := io.ReadFull(f, pre[:]); err != nil {
		return nil, err
	}
	if [8]byte(pre[0:8]) != magic {
		return nil, fmt.Errorf("bad magic %q", pre[0:8])
	}
	hLen := int64(binary.LittleEndian.Uint32(pre[8:12]))
	headerEnd := (12 + hLen + blockSize - 1) / blockSize * blockSize
	if hLen <= 0 || headerEnd+blockSize > size {
		return nil, fmt.Errorf("header length %d exceeds file", hLen)
	}
	doc := make([]byte, hLen)
	if _, err := io.ReadFull(f, doc); err != nil {
		return nil, err
	}
	var h header
	if err := json.Unmarshal(doc, &h); err != nil {
		return nil, fmt.Errorf("bad header JSON: %v", err)
	}
	if h.Version != FormatVersion {
		return nil, fmt.Errorf("format v%d, this build reads v%d — rebuild the entry", h.Version, FormatVersion)
	}
	if h.Events == retiredRichEvents {
		return nil, fmt.Errorf("event encoding %q predates persisted monitor masks — rebuild the entry", h.Events)
	}
	if h.Events != "" && h.Events != richEvents {
		return nil, fmt.Errorf("unknown event encoding %q", h.Events)
	}
	var footer [blockSize]byte
	if _, err := f.ReadAt(footer[:], size-blockSize); err != nil {
		return nil, err
	}
	if footer[payloadMax] != footerSentinel {
		return nil, fmt.Errorf("missing footer sentinel — torn or truncated")
	}
	blocks := binary.LittleEndian.Uint64(footer[8:16])
	if blocks > uint64(size/blockSize) || headerEnd+int64(blocks)*blockSize+indexBytes(int64(blocks))+blockSize != size {
		return nil, fmt.Errorf("footer's %d data blocks do not fill the file's %d bytes — torn or truncated", blocks, size)
	}
	index := make([]byte, indexBytes(int64(blocks)))
	if _, err := f.ReadAt(index, size-blockSize-int64(len(index))); err != nil {
		return nil, err
	}
	if got, want := footerCRC(index, footer[:]), binary.LittleEndian.Uint32(footer[16:20]); got != want {
		return nil, fmt.Errorf("footer CRC mismatch (%08x != %08x)", got, want)
	}
	return &Reader{
		st:        st,
		f:         f,
		key:       h.Key,
		rich:      h.Events == richEvents,
		wantCount: binary.LittleEndian.Uint64(footer[0:8]),
		read:      headerEnd + int64(len(index)) + blockSize, // header, index and footer count as read
		hdr:       headerEnd,
		blocks:    int64(blocks),
		index:     index,
		cur:       -1,
	}, nil
}

// Key returns the key embedded in the entry's header.
func (r *Reader) Key() Key { return r.key }

// Version returns the format version the entry was written with: always
// FormatVersion, as an entry of another version does not open.
func (r *Reader) Version() int { return FormatVersion }

// Rich reports whether the entry uses the rich event encoding (flags,
// monitor masks and the measured-end marker; mix streams).
func (r *Reader) Rich() bool { return r.rich }

// Count returns the footer's event count.
func (r *Reader) Count() uint64 { return r.wantCount }

// Read decodes up to len(buf) events, returning the number decoded.
// io.EOF (possibly alongside a final short batch) signals a cleanly
// verified end of stream; any structural damage, count or CRC mismatch
// wraps ErrCorrupt, and the events returned before it are those of the
// runs verified so far.
func (r *Reader) Read(buf []Event) (int, error) {
	if r.finished {
		return 0, io.EOF
	}
	for i := range buf {
		for r.pos == r.n {
			ok, err := r.nextBlock()
			if err != nil {
				return i, err
			}
			if !ok {
				return i, r.finish()
			}
		}
		var ev Event
		var err error
		if r.rich {
			ev, err = r.decodeRich()
		} else {
			ev, err = r.decodeClassic()
		}
		if err != nil {
			return i, err
		}
		r.decoded++
		buf[i] = ev
	}
	return len(buf), nil
}

// decodeClassic decodes one event in the classic (sensitivity-study)
// layout: inline non-mem run in the control byte, addresses on misses only.
func (r *Reader) decodeClassic() (Event, error) {
	c := r.block[r.pos]
	r.pos++
	kind := c & 3
	if kind > KindL1Miss {
		return Event{}, fmt.Errorf("%w: invalid event kind %d", ErrCorrupt, kind)
	}
	ev := Event{Kind: kind, NonMem: uint32(c >> 2)}
	if ev.NonMem == nonMemEscape {
		v, n := binary.Uvarint(r.block[r.pos:r.n])
		if n <= 0 || v > 0xFFFFFFFF {
			return Event{}, fmt.Errorf("%w: bad non-mem run at event %d", ErrCorrupt, r.decoded)
		}
		r.pos += n
		ev.NonMem = uint32(v)
	}
	if kind == KindL1Miss {
		zz, n := binary.Uvarint(r.block[r.pos:r.n])
		if n <= 0 {
			return Event{}, fmt.Errorf("%w: bad address at event %d", ErrCorrupt, r.decoded)
		}
		r.pos += n
		ev.Addr = uint64(int64(r.prevAddr) + unzigzag(zz))
		r.prevAddr = ev.Addr
	}
	return ev, nil
}

// decodeRich decodes one event in the rich (mix-stream) layout; see
// writeRichEvents for the format.
func (r *Reader) decodeRich() (Event, error) {
	c := r.block[r.pos]
	r.pos++
	if c>>7 != 0 {
		return Event{}, fmt.Errorf("%w: control byte %#x has the spare bit set", ErrCorrupt, c)
	}
	ev := Event{Kind: c & 3, Flags: (c >> 2) & flagsMask}
	v, n := binary.Uvarint(r.block[r.pos:r.n])
	if n <= 0 {
		return Event{}, fmt.Errorf("%w: bad non-mem run at event %d", ErrCorrupt, r.decoded)
	}
	r.pos += n
	if ev.Flags&FlagMonObserve != 0 {
		code := int(v & maskEscape)
		v >>= maskCodeBits
		switch {
		case code == maskEscape:
			m, n := binary.Uvarint(r.block[r.pos:r.n])
			if n <= 0 || m > 0xFFFF {
				return Event{}, fmt.Errorf("%w: bad monitor mask at event %d", ErrCorrupt, r.decoded)
			}
			r.pos += n
			ev.MonMask = uint16(m)
			r.masks.push(ev.MonMask)
		case code < r.masks.n:
			ev.MonMask = r.masks.masks[code]
			r.masks.front(code)
		default:
			return Event{}, fmt.Errorf("%w: monitor mask rank %d past the %d recent masks at event %d", ErrCorrupt, code, r.masks.n, r.decoded)
		}
	}
	if v > 0xFFFFFFFF {
		return Event{}, fmt.Errorf("%w: bad non-mem run at event %d", ErrCorrupt, r.decoded)
	}
	ev.NonMem = uint32(v)
	if ev.Kind == KindMeasuredEnd && (ev.Flags != 0 || ev.NonMem != 0) {
		return Event{}, fmt.Errorf("%w: non-empty measured-end marker at event %d", ErrCorrupt, r.decoded)
	}
	if richHasAddr(ev.Kind, ev.Flags) {
		zz, n := binary.Uvarint(r.block[r.pos:r.n])
		if n <= 0 {
			return Event{}, fmt.Errorf("%w: bad address at event %d", ErrCorrupt, r.decoded)
		}
		r.pos += n
		ev.Addr = uint64(int64(r.prevAddr) + unzigzag(zz))
		r.prevAddr = ev.Addr
	}
	return ev, nil
}

// Seek moves a follower (Writer.Follow) to p, a Pos of its writer.
func (r *Reader) Seek(p Pos) {
	r.cur, r.partial = p.block, true
	r.pos, r.n = p.off, p.off
	r.prevAddr, r.masks, r.decoded = p.prevAddr, p.masks, p.Events
	r.finished = false
}

// nextBlock loads the next data block: the one the reader stands in again
// while that was a writer's unsealed block, else the one after. False
// means the reader has read every event of a committed entry, or every
// event a follower's writer has written so far.
func (r *Reader) nextBlock() (bool, error) {
	b := r.cur
	if !r.partial {
		b++
	}
	start := 0 // payload bytes already decoded from block b
	if b == r.cur {
		start = r.pos
	}
	sealed := r.blocks
	if r.w != nil {
		sealed = r.w.blocks
	}
	var n int
	switch {
	case b < sealed:
		if err := r.loadSealed(b); err != nil {
			return false, err
		}
		if n = int(r.block[payloadMax]); n > payloadMax || n < start {
			return false, fmt.Errorf("%w: block %d holds %d payload bytes", ErrCorrupt, b, n)
		}
		r.partial = false
	case r.w != nil && b == sealed && r.w.n > start:
		n = r.w.n
		copy(r.block[start:n], r.w.block[start:n])
		r.partial = true
	default:
		return false, nil
	}
	r.cur, r.pos, r.n = b, start, n
	return true, nil
}

// loadSealed copies sealed block b into r.block, reading the run that
// holds it when b is not in the last one read. A committed entry's runs
// start at multiples of followRun, and each is checked against its CRC in
// the index before any block of it is used. A follower reads from b up to
// what its writer has flushed, flushing the writer's buffer first if b
// has not reached the file yet.
func (r *Reader) loadSealed(b int64) error {
	if b < r.runAt || b >= r.runAt+r.runLen {
		at, end := b-b%followRun, r.blocks
		if w := r.w; w != nil {
			if b >= w.flushed {
				if err := w.bw.Flush(); err != nil {
					return fmt.Errorf("tracecache: %w", err)
				}
				w.flushed = w.blocks
			}
			at, end = b, w.flushed
		}
		if r.run == nil {
			r.run = make([]byte, followRun*blockSize)
		}
		n := min(followRun, end-at)
		buf := r.run[:n*blockSize]
		r.runLen = 0 // until buf holds a run that may be used
		if _, err := r.f.ReadAt(buf, r.hdr+at*blockSize); err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		r.read += int64(len(buf))
		if r.w == nil {
			k := at / followRun
			if got, want := crc32.Checksum(buf, castagnoli), binary.LittleEndian.Uint32(r.index[4*k:]); got != want {
				return fmt.Errorf("%w: %s: run %d (blocks %d-%d) CRC mismatch (%08x != %08x)", ErrCorrupt, r.f.Name(), k, at, at+n-1, got, want)
			}
		}
		r.runAt, r.runLen = at, n
	}
	copy(r.block[:], r.run[(b-r.runAt)*blockSize:])
	return nil
}

// finish validates the drained stream's event count. A follower drains
// only once its writer has committed; until then it has caught up.
func (r *Reader) finish() error {
	if r.w != nil {
		if !r.w.sealed {
			return nil
		}
		r.finished = true
		if r.decoded != r.w.count {
			return fmt.Errorf("%w: followed %d events, writer wrote %d", ErrCorrupt, r.decoded, r.w.count)
		}
		return io.EOF
	}
	r.finished = true
	if r.decoded != r.wantCount {
		return fmt.Errorf("%w: decoded %d events, footer says %d", ErrCorrupt, r.decoded, r.wantCount)
	}
	return io.EOF
}

// Close releases the file and records bytes consumed on the store.
func (r *Reader) Close() error {
	if r.st != nil {
		r.st.bytesRead.Add(r.read)
		r.st = nil
	}
	return r.f.Close()
}

// Package tracecache persists the multi-lane engine's post-L1 front-end
// event streams on disk, so repeated sensitivity studies replay the LLC
// reference stream instead of re-deriving it. The stream is a pure
// deterministic function of the benchmark parameters, the instruction
// budget, and the L1 geometry — after the multi-lane fusion the generator +
// private L1 front-end dominates Figure 11 wall clock (docs/PERFORMANCE.md),
// and every study recomputes it from scratch. A warm cache turns those
// passes into pure replay.
//
// Correctness discipline:
//
//   - Entries are keyed (Key) by benchmark name, instruction budget, L1
//     geometry, and the compiled-in parameter-table fingerprint
//     (experiments.ParamsFingerprint); the format version rides in the file
//     header. Any drift — edited benchmark tables, different budget, new
//     format — fails loudly naming both keys. A stale entry is never
//     silently served; regeneration requires the explicit rebuild flag.
//   - Files are written via fsutil.CreateAtomic: a crash mid-write leaves
//     the old entry or none, never a torn one. Torn or bit-flipped files
//     are caught structurally (size / footer sentinel / per-block bounds)
//     and by an end-to-end CRC + event count in the footer.
//   - The replayed stream is proven bitwise equivalent to the cold path
//     across all 36 benchmarks (TestTraceCacheWarmColdEquivalence).
//
// File layout (all integers little-endian):
//
//	magic "UNTGFE01" (8 bytes)
//	headerLen uint32, then headerLen bytes of JSON {"version":V,"key":{...}},
//	  zero-padded so the data region starts on a 64-byte boundary
//	data blocks: 64 bytes each — byte[63] = payload length n (0..63),
//	  bytes[0:n] = packed events, events never split across blocks
//	  (the batching discipline of SNIPPETS.md Snippet 3's CacheLineBuffer:
//	  fixed cache-line-sized records with the size in the last slot)
//	footer: one final 64-byte block — byte[63] = 0xFF sentinel,
//	  bytes[0:8] = event count, bytes[8:12] = CRC-32C over every event's
//	  encoded bytes
//
// Event encoding (within a block's payload): a control byte whose low two
// bits are the kind and whose high six bits inline non-mem runs < 63 (63
// escapes to a following uvarint), then — for L1 misses only — the address
// as a zigzag-encoded delta uvarint, the same discipline as
// internal/isa/tracefile.go. Typical events are one byte; an L1 miss in a
// strided scan is two or three.
package tracecache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"untangle/internal/fsutil"
	"untangle/internal/telemetry"
)

// Event is one front-end op after L1 resolution: a run of NonMem
// non-memory instructions, then (for KindL1Hit/KindL1Miss) one memory
// access. In the classic encoding only L1 misses carry an address — they
// are the only events whose cost differs between LLC lanes. The rich
// encoding (mix streams, see CreateRich) additionally carries the Flags
// bits and an address for monitor-observed hits, so a full sim back-end
// can be replayed from the stream. The experiments engine's feEvent is an
// alias of this type.
type Event struct {
	Addr   uint64
	NonMem uint32
	Kind   uint8
	Flags  uint8 // rich entries only; zero in classic entries
	// MonMask is in-memory annotation only, never persisted: the monitor
	// shadow-array hit vector (monitor.Monitor.HitMask) the simulator's
	// front end (sim.FrontEnd) precomputes for FlagMonObserve events so
	// every domain applies it via ObserveMask instead of re-simulating the
	// shadow arrays. Writers ignore it; readers return it zero — the fused
	// mix engine recomputes masks from the decoded stream.
	MonMask uint16
}

// Event kinds. The values are part of the on-disk format; never renumber.
const (
	KindNoMem       uint8 = iota // no memory access (or the access was truncated away)
	KindL1Hit                    // access served by the private L1
	KindL1Miss                   // access missed the L1; lanes look it up in their LLC
	KindMeasuredEnd              // rich entries only: marker separating the measured stream from the pressure tail
)

// Event flag bits (rich encoding only). The values are part of the on-disk
// format; never renumber. FlagMonObserve is the precomputed monitor gate:
// the op passed the secret-use annotation filter AND missed the monitor's
// L1-sized filter cache — both scheme-independent — so dynamic lanes feed
// the access straight to their monitors. FlagPublic is the precomputed
// secret-progress gate for the public retired-instruction counter.
const (
	FlagWrite       uint8 = 1 << iota // the access is a write
	FlagMonObserve                    // dynamic lanes call mon.ObserveMask(MonMask)
	FlagPublic                        // op counts toward publicRetired
	FlagL1Evict                       // the access evicted a private-L1 line
	FlagL1Writeback                   // the eviction wrote a dirty line back
)

// flagsMask covers every defined flag bit; the control byte's spare bit
// must be zero, which catches garbage on decode.
const flagsMask uint8 = FlagWrite | FlagMonObserve | FlagPublic | FlagL1Evict | FlagL1Writeback

// FormatVersion is bumped on any change to the file layout or event
// encoding; entries written by another version fail loudly on open.
const FormatVersion = 1

// Key identifies one cacheable front-end stream. Every field that can
// change the stream participates: the benchmark (its parameter row), the
// instruction budget (the generator is limited to 2x instructions), the L1
// geometry (hit/miss resolution), and ParamsTag — the compiled-in
// parameter-table fingerprint (experiments.ParamsFingerprint), which
// invalidates every entry when the benchmark tables themselves are edited.
// The scale knob enters through Instructions (commands derive the budget
// from scale before the engine runs).
type Key struct {
	Benchmark    string `json:"benchmark"`
	Instructions uint64 `json:"instructions"`
	L1Bytes      int64  `json:"l1_bytes"`
	L1Ways       int    `json:"l1_ways"`
	ParamsTag    string `json:"params_tag"`

	// Mix-stream fields (rich entries, see CreateRich). Flavor is "mix";
	// Domain is the domain slot (the address offset hashes into L1 set
	// selection, so the same pair in different slots produces different
	// streams); CryptoPhase/SpecPhase pin the loop interleave; Secret and
	// Unannotated pin the crypto-side knobs that change the op stream.
	// All zero for the classic sensitivity-study streams, so existing
	// entries keep matching.
	Flavor      string `json:"flavor,omitempty"`
	Domain      int    `json:"domain,omitempty"`
	CryptoPhase uint64 `json:"crypto_phase,omitempty"`
	SpecPhase   uint64 `json:"spec_phase,omitempty"`
	Secret      uint64 `json:"secret,omitempty"`
	Unannotated bool   `json:"unannotated,omitempty"`
}

// String renders the key for error messages.
func (k Key) String() string {
	s := fmt.Sprintf("{bench=%s instructions=%d l1=%dB/%dw params=%s",
		k.Benchmark, k.Instructions, k.L1Bytes, k.L1Ways, k.ParamsTag)
	if k.Flavor != "" {
		s += fmt.Sprintf(" flavor=%s domain=%d phases=%d/%d", k.Flavor, k.Domain, k.CryptoPhase, k.SpecPhase)
		if k.Secret != 0 {
			s += fmt.Sprintf(" secret=%#x", k.Secret)
		}
		if k.Unannotated {
			s += " unannotated"
		}
	}
	return s + "}"
}

// Sentinel errors. ErrCorrupt covers structural damage (bad magic, torn
// size, failed CRC or count); ErrKeyMismatch covers a well-formed entry
// written under a different key or format version. Both are "the cache
// cannot serve this" conditions: fatal by default, treated as a miss (and
// counted as a rebuild) when the store was opened with rebuild enabled.
var (
	ErrCorrupt     = errors.New("tracecache: corrupt entry")
	ErrKeyMismatch = errors.New("tracecache: key mismatch")
)

// Store is an on-disk cache directory of front-end streams. All methods
// are safe for concurrent use; per-entry locks (Lock) give callers
// single-flight generation. A nil *Store is not valid — callers model
// "cache off" as the absence of a store.
type Store struct {
	dir     string
	rebuild bool

	mu    sync.Mutex
	locks map[string]*sync.Mutex

	hits          atomic.Int64
	misses        atomic.Int64
	rebuilds      atomic.Int64
	bytesRead     atomic.Int64
	bytesWritten  atomic.Int64
	outcomeHits   atomic.Int64 // lane-outcome sidecar loads (see lanes.go)
	outcomeMisses atomic.Int64 // sidecar absent/mismatched/corrupt, re-probed
}

// NewStore opens (creating if needed) the cache directory. rebuild selects
// the recovery policy for corrupt or mismatched entries: false fails
// loudly, true treats them as misses and overwrites them with freshly
// generated streams.
func NewStore(dir string, rebuild bool) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracecache: %w", err)
	}
	return &Store{dir: dir, rebuild: rebuild, locks: map[string]*sync.Mutex{}}, nil
}

// Dir returns the cache directory.
func (s *Store) Dir() string { return s.dir }

// RebuildEnabled reports whether corrupt/mismatched entries may be
// regenerated instead of failing the run.
func (s *Store) RebuildEnabled() bool { return s.rebuild }

// EntryPath is the file an entry lives at. Benchmark names are
// filesystem-safe by construction ([a-z0-9_], see internal/workload), and
// the instruction budget is in the name so differently-scaled campaigns
// coexist in one directory.
func (s *Store) EntryPath(key Key) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s-%d.fetrace", key.Benchmark, key.Instructions))
}

// Lock takes the entry's single-flight lock and returns the unlock func.
// Callers hold it across the whole open-or-generate sequence, so a
// parallel 36-way fan-out that maps two workers onto the same benchmark
// generates the stream once: the second worker blocks, then hits.
//
// The lock has two layers. An in-process mutex serializes goroutines of
// one process; an advisory flock on `<entry>.lock` (fsutil.LockFile)
// serializes the worker *processes* of a sharded campaign, which share the
// cache directory read-mostly. The flock layer is best-effort: if the
// filesystem refuses it, generation proceeds without cross-process
// exclusion — atomic publication keeps the cache sound either way, the
// lock only prevents duplicate generation work (and the kernel drops it
// automatically when a worker dies, so a killed worker never wedges the
// campaign).
func (s *Store) Lock(key Key) func() {
	path := s.EntryPath(key)
	s.mu.Lock()
	l, ok := s.locks[path]
	if !ok {
		l = &sync.Mutex{}
		s.locks[path] = l
	}
	s.mu.Unlock()
	l.Lock()
	unlockFile, err := fsutil.LockFile(path + ".lock")
	if err != nil {
		unlockFile = nil
	}
	return func() {
		if unlockFile != nil {
			unlockFile()
		}
		l.Unlock()
	}
}

// Open returns a reader over the entry for key, or (nil, nil) on a cache
// miss. A corrupt or key-mismatched entry is an error naming both keys —
// unless the store was opened with rebuild, which demotes it to a counted
// miss so the caller regenerates.
func (s *Store) Open(key Key) (*Reader, error) {
	path := s.EntryPath(key)
	r, err := openReader(path, s)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			s.misses.Add(1)
			return nil, nil
		}
		if s.rebuild && errors.Is(err, ErrCorrupt) {
			s.rebuilds.Add(1)
			s.misses.Add(1)
			return nil, nil
		}
		return nil, err
	}
	if r.key != key || r.version != FormatVersion {
		r.Close()
		if s.rebuild {
			s.rebuilds.Add(1)
			s.misses.Add(1)
			return nil, nil
		}
		return nil, fmt.Errorf("%w: %s holds key %s (format v%d), want %s (format v%d) — delete it or rerun with -fe-cache-rebuild",
			ErrKeyMismatch, path, r.key, r.version, key, FormatVersion)
	}
	s.hits.Add(1)
	return r, nil
}

// Create starts writing the entry for key. The bytes stage in a temporary
// file (fsutil.CreateAtomic); only Commit publishes them, so a crash or an
// error mid-generation leaves the previous entry (or none) intact.
func (s *Store) Create(key Key) (*Writer, error) {
	return newWriter(s, key, false)
}

// CreateRich starts writing a rich-encoded entry (mix streams): events
// carry the Flags bits, monitor-observed hits carry addresses, and a
// KindMeasuredEnd marker separates the measured stream from the pressure
// tail. Same staging and atomic-publish discipline as Create.
func (s *Store) CreateRich(key Key) (*Writer, error) {
	return newWriter(s, key, true)
}

// NoteRebuild counts one mid-stream rebuild: a replay that began from a
// structurally valid entry but hit corruption partway and fell back to
// regeneration (only possible with rebuild enabled).
func (s *Store) NoteRebuild() { s.rebuilds.Add(1) }

// Counters is a snapshot of the store's lifetime counters.
type Counters struct {
	Hits          int64
	Misses        int64
	Rebuilds      int64
	BytesRead     int64
	BytesWritten  int64
	OutcomeHits   int64 // warm passes that skipped LLC probes via a sidecar
	OutcomeMisses int64 // warm passes that re-probed (sidecar absent or rejected)
}

// Counters snapshots the store's counters.
func (s *Store) Counters() Counters {
	return Counters{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Rebuilds:      s.rebuilds.Load(),
		BytesRead:     s.bytesRead.Load(),
		BytesWritten:  s.bytesWritten.Load(),
		OutcomeHits:   s.outcomeHits.Load(),
		OutcomeMisses: s.outcomeMisses.Load(),
	}
}

// RegisterMetrics exposes the counters on a telemetry registry (the one
// internal/obs serves at /metrics) as lazy gauges — sampled at scrape
// time, costing nothing between scrapes. Nil-safe in both arguments.
func (s *Store) RegisterMetrics(reg *telemetry.Registry) {
	if s == nil || reg == nil {
		return
	}
	reg.GaugeFunc("obs.fecache.hits", func() float64 { return float64(s.hits.Load()) })
	reg.GaugeFunc("obs.fecache.misses", func() float64 { return float64(s.misses.Load()) })
	reg.GaugeFunc("obs.fecache.rebuilds", func() float64 { return float64(s.rebuilds.Load()) })
	reg.GaugeFunc("obs.fecache.bytes_read", func() float64 { return float64(s.bytesRead.Load()) })
	reg.GaugeFunc("obs.fecache.bytes_written", func() float64 { return float64(s.bytesWritten.Load()) })
	reg.GaugeFunc("obs.fecache.outcome_hits", func() float64 { return float64(s.outcomeHits.Load()) })
	reg.GaugeFunc("obs.fecache.outcome_misses", func() float64 { return float64(s.outcomeMisses.Load()) })
}

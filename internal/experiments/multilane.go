// The multi-lane sensitivity engine: one front-end pass per benchmark
// serving all nine partition sizes of the Figure 11 study.
//
// Within one benchmark, the nine sensitivityPoint simulations differ ONLY in
// the LLC partition's set count. Everything upstream of the LLC is
// byte-identical across them: the generator (same parameters and seed emit
// the same op sequence), the address-space offset, and the private L1 —
// whose hit/miss decisions are a pure function of the access order, never of
// the dirty bits or statistics the full cache also tracks. The engine
// therefore generates the op stream once, simulates the L1 once, and records
// a compact event per op (plain run / L1 hit / L1 miss at address); nine
// lean LLC lanes (cache.Lane) and nine cycle-accounting replays then consume
// the identical event sequence.
//
// The replay is not an approximation of sim.Run — it is a transliteration of
// the driver's quantum machine (sim.Run's quantum loop around its one
// per-domain loop, runDomainUntil) for the exact configuration
// sensitivityPoint builds (Static scheme, one domain, Warmup 0,
// WarmupInstructions set):
// per-quantum horizons in cycles, the end-of-quantum warmup check against
// retired instructions, the finish snapshot before the idle AdvanceTo, and
// collect's instructions/cycles division, all in the same order with the
// same floating-point expressions. sensitivityPoint is retained as the
// oracle, and TestEngineMatchesOracle* require the engine to reproduce its
// per-size IPCs bitwise.
package experiments

import (
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"untangle/internal/cache"
	"untangle/internal/cpu"
	"untangle/internal/isa"
	"untangle/internal/partition"
	"untangle/internal/sim"
	"untangle/internal/tracecache"
	"untangle/internal/workload"
)

// laneChunk is the front-end batch size. Stream determinism (isa.Stream's
// Fill-size independence) makes the value invisible in results; it only
// trades buffer footprint against per-chunk overhead.
const laneChunk = 4096

// feEvent kinds: what the shared front-end resolved one op to. The values
// are tracecache's — the event IS the on-disk record type, so teeing a cold
// pass to disk and replaying a warm one is a copy, not a conversion.
const (
	feNoMem  = tracecache.KindNoMem  // no memory access (or the op's access was truncated away)
	feL1Hit  = tracecache.KindL1Hit  // access served by the private L1
	feL1Miss = tracecache.KindL1Miss // access missed the L1; lanes look it up in their LLC
)

// feEvent is one op after L1 resolution. Only L1 misses carry an address —
// they are the only events whose cost differs between lanes. It is an alias
// of tracecache.Event: the persisted front-end cache stores exactly this
// stream, byte-batched (see internal/tracecache).
type feEvent = tracecache.Event

// laneState is one partition size's replay: its LLC lane plus a private copy
// of the driver's per-domain quantum state machine. Each lane owns a real
// cpu.Core, so cycle accumulation uses the very same code path (and float
// expression shapes) as the oracle simulation.
type laneState struct {
	llc     *cache.Lane
	core    *cpu.Core
	now     time.Duration // end of the current quantum
	horizon float64       // now, in this core's cycles
	warm    bool
	base    cpu.Snapshot
}

// endQuantum performs the driver's quantum-boundary work: the warmup check
// (measurement starts at the first boundary where the domain has retired the
// warmup budget), then the step to the next horizon. It mirrors sim.Run's
// boundary exactly, including running after the finish snapshot — where a
// degenerate tiny-budget run can place the measurement base after the idle
// AdvanceTo, yielding IPC 0 just as the oracle does.
func (l *laneState) endQuantum(warmup uint64, step time.Duration) {
	if !l.warm && l.core.Retired() >= warmup {
		l.warm = true
		l.base = l.core.Snapshot()
	}
	l.now += step
	l.horizon = l.core.DurationToCycles(l.now)
}

// replay consumes one chunk of front-end events. The boundary catch-up loop
// before each event reproduces the driver's "consume ops only while the core
// is inside the quantum" condition: quanta in which this lane retires
// nothing still get their boundary (and warmup check), exactly as sim.Run
// re-enters its per-domain loop, runDomainUntil, with an advanced horizon.
func (l *laneState) replay(events []feEvent, warmup uint64, step time.Duration) {
	core := l.core
	for _, ev := range events {
		for core.Cycles() >= l.horizon {
			l.endQuantum(warmup, step)
		}
		core.RetireNonMem(ev.NonMem)
		switch ev.Kind {
		case feL1Hit:
			core.RetireMem(cpu.L1Hit)
		case feL1Miss:
			if l.llc.Access(ev.Addr) {
				core.RetireMem(cpu.LLCHit)
			} else {
				core.RetireMem(cpu.Memory)
			}
		}
	}
}

// probe resolves one batch of L1-miss addresses against this lane's LLC,
// setting outcomes bit base+k for each hit. It is the warm fold's phase A:
// LLC hit/miss outcomes are a pure function of the miss-address order and
// the lane's geometry — the core, the quantum machine, and the timing fold
// never feed back into them — so they can be resolved in a loop that does
// nothing else, and (the same fact, pushed to disk) memoized in a
// lane-outcome sidecar so later warm passes skip this phase entirely.
func (l *laneState) probe(addrs []uint64, outcomes []uint64, base int) {
	for k, a := range addrs {
		if l.llc.Access(a) {
			j := base + k
			outcomes[j>>6] |= 1 << (j & 63)
		}
	}
}

// replayTee is replay with outcome capture: the identical fold (same
// boundary checks, same charge order, bit-identical cycle accumulation)
// recording each LLC Access result at bit cursor of bits, in stream order.
// The cold tee uses it so the lane-outcome sidecar falls out of the pass it
// already runs — the capture adds one bit-set per L1 miss, nothing more.
// Returns the advanced cursor; every lane consumes the same events, so all
// lanes advance identically.
func (l *laneState) replayTee(events []feEvent, warmup uint64, step time.Duration, bits []uint64, cursor int) int {
	core := l.core
	for _, ev := range events {
		for core.Cycles() >= l.horizon {
			l.endQuantum(warmup, step)
		}
		core.RetireNonMem(ev.NonMem)
		switch ev.Kind {
		case feL1Hit:
			core.RetireMem(cpu.L1Hit)
		case feL1Miss:
			if l.llc.Access(ev.Addr) {
				bits[cursor>>6] |= 1 << (cursor & 63)
				core.RetireMem(cpu.LLCHit)
			} else {
				core.RetireMem(cpu.Memory)
			}
			cursor++
		}
	}
	return cursor
}

// replayResolved is the warm fold's phase B: the timing replay with every
// LLC outcome already resolved into the outcomes bitset (cursor indexes the
// next miss; the returned cursor carries across batches). The charge
// sequence — boundary checks, RetireNonMem, RetireMem levels — is exactly
// replay's in the same order, so the accumulated floating-point cycle count
// is bit-identical; the only difference is that the miss branch reads a bit
// instead of probing the LLC.
func (l *laneState) replayResolved(events []feEvent, outcomes []uint64, cursor int, warmup uint64, step time.Duration) int {
	core := l.core
	for _, ev := range events {
		for core.Cycles() >= l.horizon {
			l.endQuantum(warmup, step)
		}
		core.RetireNonMem(ev.NonMem)
		switch ev.Kind {
		case feL1Hit:
			core.RetireMem(cpu.L1Hit)
		case feL1Miss:
			if outcomes[cursor>>6]>>(uint(cursor)&63)&1 != 0 {
				core.RetireMem(cpu.LLCHit)
			} else {
				core.RetireMem(cpu.Memory)
			}
			cursor++
		}
	}
	return cursor
}

// finish runs the driver's stream-dry sequence — catch up to the quantum the
// stream ends in, snapshot, idle forward to the quantum boundary, take that
// boundary (the warmup check may fire there) — and returns the measured IPC
// exactly as sim's collect computes it.
func (l *laneState) finish(warmup uint64, step time.Duration) float64 {
	for l.core.Cycles() >= l.horizon {
		l.endQuantum(warmup, step)
	}
	fin := l.core.Snapshot()
	l.core.AdvanceTo(l.now)
	l.endQuantum(warmup, step)
	instr := fin.Retired - l.base.Retired
	cycles := fin.Cycles - l.base.Cycles
	if cycles > 0 {
		return float64(instr) / cycles
	}
	return 0
}

// laneEngine holds the shared front-end (L1 lane, chunk and event buffers)
// and the nine per-size lanes. Engines are reused across benchmarks via
// Reset, so a study allocates its tag arrays once per worker, not 324 times.
type laneEngine struct {
	sizes   []int64
	step    time.Duration
	l1      *cache.Lane
	l1Bytes int64 // L1 geometry, part of the trace-cache key: a stream is
	l1Ways  int   // only replayable under the L1 that resolved it
	llcWays int   // LLC associativity, part of the sidecar geometry check
	lanes   []laneState
	events  []feEvent
}

// newLaneEngine builds an engine with the exact geometry sensitivityPoint's
// configuration implies: the Table 3 L1 and LLC associativity, one lane per
// supported partition size, and the 100 µs sampling quantum.
func newLaneEngine() *laneEngine {
	cfg := sim.DefaultConfig(partition.DefaultScheme(partition.Static))
	e := &laneEngine{
		sizes:   cfg.Sizes,
		step:    100 * time.Microsecond,
		l1:      cache.MustNewLane(cache.Config{SizeBytes: cfg.L1Bytes, Ways: cfg.L1Ways}),
		l1Bytes: cfg.L1Bytes,
		l1Ways:  cfg.L1Ways,
		llcWays: cfg.LLCWays,
		lanes:   make([]laneState, len(cfg.Sizes)),
		events:  make([]feEvent, 0, laneChunk),
	}
	for i, size := range cfg.Sizes {
		e.lanes[i].llc = cache.MustNewLane(cache.Config{SizeBytes: size, Ways: cfg.LLCWays})
	}
	return e
}

// key is the trace-cache identity of one front-end pass: everything that
// determines the event stream this engine would generate for p.
func (e *laneEngine) key(p workload.Params, instructions uint64) tracecache.Key {
	return tracecache.Key{
		Benchmark:    p.Name,
		Instructions: instructions,
		L1Bytes:      e.l1Bytes,
		L1Ways:       e.l1Ways,
		ParamsTag:    cachedParamsTag(),
	}
}

// resetLanes puts every lane in the exact state sensitivityPoint's driver
// starts from: fresh LLC, fresh core, first quantum horizon, measurement
// armed per the warmup budget (Warmup 0 + WarmupInstructions 0 means the
// driver begins measurement before the first quantum).
func (e *laneEngine) resetLanes(p workload.Params, instructions uint64) {
	cp := p.CPUParams()
	for i := range e.lanes {
		l := &e.lanes[i]
		l.llc.Reset()
		l.core = cpu.New(cp)
		l.now = e.step
		l.horizon = l.core.DurationToCycles(l.now)
		l.warm = instructions == 0
		l.base = cpu.Snapshot{}
	}
}

// collect finishes every lane and gathers the per-size IPCs.
func (e *laneEngine) collect(instructions uint64) []float64 {
	ipcs := make([]float64, len(e.lanes))
	for i := range e.lanes {
		ipcs[i] = e.lanes[i].finish(instructions, e.step)
	}
	return ipcs
}

// engineCheckpoint runs the per-chunk control points of both engines' cold
// and warm paths: context cancellation and the fault-injection hook. Every
// path calls it once per front-end batch, so cancellation latency and fault
// placement are the same whether the stream is generated or replayed, and
// kill-and-resume tests can land a fault inside a mix front-end pass too.
func engineCheckpoint(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if h := engineChunkHook.Load(); h != nil {
		if err := (*h)(); err != nil {
			return err
		}
	}
	return nil
}

// run produces the benchmark's IPC at every supported partition size
// (ascending, matching e.sizes), bitwise equal to calling sensitivityPoint
// once per size. ctx is checked once per chunk/batch, so cancellation takes
// effect within one front-end batch.
//
// st, when non-nil, is the persisted front-end cache: a hit replays the
// stored event stream (skipping the generator and the private L1 entirely),
// a miss generates cold and tees the stream to disk. The returned bool
// reports whether the pass was replayed from cache. Replay is bitwise
// equivalent to cold generation because each lane's replay is a pure
// per-event fold and the stored sequence is exactly the cold sequence
// (TestTraceCacheWarmColdEquivalence). A corrupt entry discovered mid-replay
// fails the pass — unless the store allows rebuilds, in which case the pass
// restarts cold (resetLanes discards the polluted lane state) and overwrites
// the entry.
func (e *laneEngine) run(ctx context.Context, st *tracecache.Store, p workload.Params, instructions uint64) ([]float64, bool, error) {
	if st == nil {
		ipcs, err := e.generateRun(ctx, nil, tracecache.Key{}, p, instructions)
		return ipcs, false, err
	}
	key := e.key(p, instructions)
	unlock := st.Lock(key)
	defer unlock()
	r, err := st.Open(key)
	if err != nil {
		return nil, false, err
	}
	if r != nil {
		ipcs, err := e.replayRun(ctx, st, key, r, p, instructions)
		if err == nil {
			return ipcs, true, nil
		}
		if !errors.Is(err, tracecache.ErrCorrupt) || !st.RebuildEnabled() {
			return nil, false, err
		}
		// Mid-stream corruption with rebuild enabled: the lanes hold a
		// partial replay, but generateRun resets them, so falling through
		// to cold regeneration is a clean restart.
		st.NoteRebuild()
	}
	ipcs, err := e.generateRun(ctx, st, key, p, instructions)
	return ipcs, false, err
}

// generateRun is the cold path: one generator + private-L1 front-end pass
// feeding every lane, optionally teeing the event stream into st under key.
// The tee stages through fsutil.CreateAtomic and publishes only on a fully
// drained stream, so an aborted pass never leaves a partial entry.
//
// A teeing pass also captures every lane's LLC hit/miss bit sequence — a
// byproduct the fold computes anyway — and publishes it as the lane-outcome
// sidecar, so the very first warm pass already skips the probe phase.
// Oversized streams (past replayMemBudget, which the warm path would replay
// interleaved without a sidecar) skip the sidecar write.
func (e *laneEngine) generateRun(ctx context.Context, st *tracecache.Store, key tracecache.Key, p workload.Params, instructions uint64) ([]float64, error) {
	gen, err := workload.NewGenerator(p)
	if err != nil {
		return nil, err
	}
	chunks := isa.NewChunks(isa.NewLimited(gen, 2*instructions), laneChunk)
	e.l1.Reset()
	e.resetLanes(p, instructions)
	var w *tracecache.Writer
	if st != nil {
		w, err = st.Create(key)
		if err != nil {
			return nil, err
		}
		defer w.Close() // no-op after Commit; discards the staged file on error
	}
	var bits [][]uint64
	if w != nil {
		bits = make([][]uint64, len(e.lanes))
	}
	totalEvents, missCursor := 0, 0
	offset := sim.DomainAddrOffset(0)
	for {
		if err := engineCheckpoint(ctx); err != nil {
			return nil, err
		}
		ops := chunks.Next()
		if len(ops) == 0 {
			break
		}
		e.events = e.events[:0]
		chunkMisses := 0
		for _, op := range ops {
			ev := feEvent{NonMem: op.NonMem}
			if op.IsMem() {
				addr := op.Addr + offset
				if e.l1.Access(addr) {
					ev.Kind = feL1Hit
				} else {
					ev.Kind = feL1Miss
					ev.Addr = addr
					chunkMisses++
				}
			}
			e.events = append(e.events, ev)
		}
		if w != nil {
			if err := w.WriteEvents(e.events); err != nil {
				return nil, err
			}
			totalEvents += len(e.events)
			words := (missCursor + chunkMisses + 63) / 64
			next := missCursor
			for i := range e.lanes {
				for len(bits[i]) < words {
					bits[i] = append(bits[i], 0)
				}
				next = e.lanes[i].replayTee(e.events, instructions, e.step, bits[i], missCursor)
			}
			missCursor = next
		} else {
			for i := range e.lanes {
				e.lanes[i].replay(e.events, instructions, e.step)
			}
		}
	}
	if w != nil {
		if err := w.Commit(); err != nil {
			return nil, err
		}
		if totalEvents <= replayMemBudget {
			if err := st.SaveLaneOutcomes(key, e.llcWays, e.sizes, uint64(missCursor), bits); err != nil {
				return nil, err
			}
		}
	}
	return e.collect(instructions), nil
}

// replayMemBudget caps the decoded-event buffer replayRun may hold: streams
// up to this many events replay lane-major from memory; larger streams fall
// back to the interleaved chunk loop, whose footprint is one chunk. 32 Mi
// events x 16 bytes = 512 MiB, far above every study in this repository but
// a real bound for full-scale (150M-instruction) campaigns.
const replayMemBudget = 32 << 20

// replayRun is the warm path: the event stream comes from the cache entry,
// and the generator and private L1 never run.
//
// When the whole stream fits replayMemBudget it is decoded once and each
// lane folds over it in turn (lane-major). The cold path cannot traverse
// this way — it produces events incrementally and would have to buffer the
// entire stream — but a warm pass has the stream at hand, and lane-major
// order keeps a single lane's LLC tag arrays and core state hot in the host
// CPU's caches instead of cycling nine tag arrays per chunk. The reordering
// is invisible in results: lanes never interact, and each lane still sees
// the identical event sequence, so every per-lane fold is bit-for-bit the
// interleaved one (TestTraceCacheWarmColdEquivalence covers this path).
//
// Oversized streams replay in the cold path's interleaved chunk order,
// re-reading nothing and holding one chunk in memory.
func (e *laneEngine) replayRun(ctx context.Context, st *tracecache.Store, key tracecache.Key, r *tracecache.Reader, p workload.Params, instructions uint64) ([]float64, error) {
	defer r.Close()
	e.resetLanes(p, instructions)
	if n := r.Count(); n <= replayMemBudget {
		return e.replayLaneMajor(ctx, st, key, r, int(n), instructions)
	}
	buf := e.events[:cap(e.events)]
	for {
		if err := engineCheckpoint(ctx); err != nil {
			return nil, err
		}
		n, err := r.Read(buf)
		for i := range e.lanes {
			e.lanes[i].replay(buf[:n], instructions, e.step)
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	return e.collect(instructions), nil
}

// replayLaneMajor decodes the whole entry once and replays it into one lane
// at a time, each lane in two phases: probe (LLC outcomes into a bitset)
// then replayResolved (the timing fold). Corruption surfaces during the
// decode, before any lane has consumed an event. The per-lane loops stay
// chunked only to keep the cancellation/fault checkpoint cadence of the
// interleaved path.
//
// The probe phase itself is memoized: a valid lane-outcome sidecar (written
// by the cold tee, or by the previous warm pass to re-probe) supplies every
// lane's bitset directly, reducing the pass to decode + timing folds. The
// sidecar is validated against the entry key, the LLC geometry, and the
// decoded miss count before use, and its payload CRC has already been
// checked — a rejected sidecar only costs the re-probe that rewrites it.
func (e *laneEngine) replayLaneMajor(ctx context.Context, st *tracecache.Store, key tracecache.Key, r *tracecache.Reader, n int, instructions uint64) ([]float64, error) {
	// The footer count sizes the buffer but is untrusted until the CRC
	// verifies, so cap the upfront allocation and let append grow past it.
	events := make([]feEvent, 0, min(n, 1<<20))
	buf := e.events[:cap(e.events)]
	for {
		if err := engineCheckpoint(ctx); err != nil {
			return nil, err
		}
		k, err := r.Read(buf)
		events = append(events, buf[:k]...)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	missAddrs := make([]uint64, 0, len(events))
	for i := range events {
		if events[i].Kind == feL1Miss {
			missAddrs = append(missAddrs, events[i].Addr)
		}
	}
	const span = 1 << 16
	bits, fromSidecar := st.OpenLaneOutcomes(key, e.llcWays, e.sizes, uint64(len(missAddrs)))
	if !fromSidecar {
		words := (len(missAddrs) + 63) / 64
		bits = make([][]uint64, len(e.lanes))
		for i := range e.lanes {
			bits[i] = make([]uint64, words)
			for off := 0; off < len(missAddrs); off += span {
				if err := engineCheckpoint(ctx); err != nil {
					return nil, err
				}
				e.lanes[i].probe(missAddrs[off:min(off+span, len(missAddrs))], bits[i], off)
			}
		}
	}
	for i := range e.lanes {
		cursor := 0
		for off := 0; off < len(events); off += span {
			if err := engineCheckpoint(ctx); err != nil {
				return nil, err
			}
			cursor = e.lanes[i].replayResolved(events[off:min(off+span, len(events))], bits[i], cursor, instructions, e.step)
		}
	}
	if !fromSidecar {
		if err := st.SaveLaneOutcomes(key, e.llcWays, e.sizes, uint64(len(missAddrs)), bits); err != nil {
			return nil, err
		}
	}
	return e.collect(instructions), nil
}

// enginePool recycles engines across study workers: each worker grabs one
// engine per benchmark and Reset gives it back fresh (the Reset ≡ fresh
// property is covered by the cache package's property tests, and implicitly
// by the oracle-equivalence test, whose sequential pass reuses one engine
// for all 36 benchmarks).
var enginePool = sync.Pool{New: func() any { return newLaneEngine() }}

// engineChunkHook is the multi-lane engine's fault-injection point: when
// set, it runs once per front-end chunk of every pass, and a returned error
// aborts the pass exactly like a mid-stream failure would. It exists so the
// robustness tests (internal/faultinject) can place a deterministic fault
// inside an engine pass without build tags; production runs never set it,
// and the load is a single atomic pointer read per chunk.
var engineChunkHook atomic.Pointer[func() error]

// SetEngineChunkHook installs the per-chunk fault hook (nil removes it).
// Test-only; the hook must be installed before passes start and not
// swapped while any run is in flight.
func SetEngineChunkHook(h func() error) {
	if h == nil {
		engineChunkHook.Store(nil)
		return
	}
	engineChunkHook.Store(&h)
}

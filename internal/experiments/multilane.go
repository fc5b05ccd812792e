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
// a compact event per op (plain run / L1 hit / L1 miss at address); one
// shadow-tag set holding all nine LLC sizes (cache.ShadowSet, as in the
// paper's UMON-style monitor) and nine cycle-accounting folds then consume
// the identical event sequence.
//
// Every pass, cold or warm, has one shape (laneEngine.pass): the front end —
// the generator and L1 when cold, the trace-cache reader when warm — fills a
// block of laneChunk events. A probing pass first resolves the block's L1
// misses, one shadow-set probe each, into the nine lanes' outcome bits;
// then each lane in turn folds the whole block from its bits. A warm pass
// with a valid lane-outcome sidecar reads those bits instead of probing; a
// cold pass's bits are the sidecar. Memory is one block plus the outcome
// bits, however long the stream.
//
// The fold is not an approximation of sim.Run — it is a transliteration of
// the driver's quantum machine (sim.Step's quantum around its one
// per-domain loop, runDomainUntil) for the exact configuration
// sensitivityPoint builds (Static scheme, one domain, Warmup 0,
// WarmupInstructions set):
// per-quantum horizons in cycles, the end-of-quantum warmup check against
// retired instructions, the finish snapshot before the idle AdvanceTo, and
// Result's instructions/cycles division, all in the same order with the
// same floating-point expressions. sensitivityPoint is retained as the
// oracle, and TestEngineMatchesOracle* require the engine to reproduce its
// per-size IPCs bitwise. The lanes stay a transliteration rather than nine
// Static-scheme sim back ends because the back end is the slower machine:
// nine sensitivityPoint runs of mcf_0 at 600k instructions cost 2.4 times
// one engine pass, of which the front end they could share is under a
// tenth (BenchmarkSensitivityOracle, DESIGN.md).
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/bits"
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

// laneChunk is the front-end batch size: one generator chunk of a cold
// pass, one reader batch of a warm one, and the cadence of
// engineCheckpoint in both. It is also the block a sensitivity pass folds
// lane by lane: each lane folds a whole chunk before the next lane starts.
// Stream determinism (isa.Stream's Fill-size independence) and lane
// independence make the value invisible in results; it only trades buffer
// footprint against per-chunk overhead. Larger blocks (16 Ki and 64 Ki
// events) were not measurably faster and raised peak memory
// (docs/PERFORMANCE.md).
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

// laneState is one partition size's replay: a private copy of the driver's
// per-domain quantum state machine. Each lane owns a real cpu.Core, so
// cycle accumulation uses the very same code path (and float expression
// shapes) as the oracle simulation.
type laneState struct {
	core    *cpu.Core
	now     time.Duration // end of the current quantum
	horizon float64       // now, in this core's cycles
	warm    bool
	base    cpu.Snapshot
}

// endQuantum performs the driver's quantum-boundary work: the warmup check
// (measurement starts at the first boundary where the domain has retired the
// warmup budget), then the step to the next horizon. It mirrors sim.Step's
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

// fold is the lane's one loop: the timing fold over one block of events,
// the block's first L1 miss at bit cursor of outcomes, each miss charged
// as an LLC hit or a memory access by its outcome bit. LLC outcomes are a
// pure function of the miss-address order and the lane's geometry — the
// core, the quantum machine and the timing never feed back into them — so
// whether a probe or a sidecar set the bit never changes the charges.
//
// The boundary catch-up loop before each event reproduces the driver's
// "consume ops only while the core is inside the quantum" condition:
// quanta in which this lane retires nothing still get their boundary (and
// warmup check), exactly as sim.Step re-enters its per-domain loop,
// runDomainUntil, with an advanced horizon. The charges — RetireNonMem,
// then the RetireMem level — follow the driver's order, so the
// floating-point cycle count is the oracle's bit for bit.
func (l *laneState) fold(events []feEvent, outcomes []uint64, cursor int, warmup uint64, step time.Duration) {
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
			if outcomes[cursor>>6]&(1<<(uint(cursor)&63)) != 0 {
				core.RetireMem(cpu.LLCHit)
			} else {
				core.RetireMem(cpu.Memory)
			}
			cursor++
		}
	}
}

// finish runs the driver's stream-dry sequence — catch up to the quantum the
// stream ends in, snapshot, idle forward to the quantum boundary, take that
// boundary (the warmup check may fire there) — and returns the measured IPC
// exactly as sim's Result computes it.
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

// laneEngine holds the shared front-end (L1 lane and the block buffer), the
// shadow set that resolves every size's LLC outcomes (one unsampled tag
// array per size), and the nine per-size lanes. Engines are reused across benchmarks via resetLanes, so
// a study allocates its tag arrays once per worker, not 324 times.
type laneEngine struct {
	sizes   []int64
	step    time.Duration
	l1      *cache.Lane
	llc     *cache.ShadowSet
	l1Bytes int64 // L1 geometry, part of the trace-cache key: a stream is
	l1Ways  int   // only replayable under the L1 that resolved it
	llcWays int   // LLC associativity, part of the sidecar geometry check
	lanes   []laneState

	// Per-pass state (see pass).
	block  []feEvent  // the front end's block buffer, laneChunk events
	addrs  []uint64   // the block's miss addresses, capacity laneChunk
	bits   [][]uint64 // each lane's LLC outcome bits: the sidecar payload
	misses int        // L1 misses folded so far this pass
	probe  bool       // the pass resolves outcomes itself (no sidecar)
	keep   bool       // a probing pass keeps the whole stream's bits
	limit  int        // a sidecar pass's outcome count
}

// newLaneEngine builds an engine with the exact geometry sensitivityPoint's
// configuration implies: the Table 3 L1 and LLC associativity, one lane per
// supported partition size, and the 100 µs sampling quantum.
func newLaneEngine() *laneEngine {
	cfg := sim.DefaultConfig(partition.DefaultScheme(partition.Static))
	llc, err := cache.NewShadowSet(cfg.Sizes, cfg.LLCWays, 0)
	if err != nil {
		panic(err)
	}
	return &laneEngine{
		sizes:   cfg.Sizes,
		step:    100 * time.Microsecond,
		l1:      cache.MustNewLane(cache.Config{SizeBytes: cfg.L1Bytes, Ways: cfg.L1Ways}),
		llc:     llc,
		l1Bytes: cfg.L1Bytes,
		l1Ways:  cfg.L1Ways,
		llcWays: cfg.LLCWays,
		lanes:   make([]laneState, len(cfg.Sizes)),
		block:   make([]feEvent, laneChunk),
		addrs:   make([]uint64, 0, laneChunk),
		bits:    make([][]uint64, len(cfg.Sizes)),
	}
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
// starts from: fresh core, first quantum horizon, measurement armed per the
// warmup budget (Warmup 0 + WarmupInstructions 0 means the driver begins
// measurement before the first quantum), and restarts the miss cursor. A
// probing pass also starts from a fresh LLC; a sidecar-served pass touches
// no tag array.
func (e *laneEngine) resetLanes(p workload.Params, instructions uint64) {
	if e.probe {
		e.llc.Reset()
	}
	cp := p.CPUParams()
	for i := range e.lanes {
		l := &e.lanes[i]
		l.core = cpu.New(cp)
		l.now = e.step
		l.horizon = l.core.DurationToCycles(l.now)
		l.warm = instructions == 0
		l.base = cpu.Snapshot{}
	}
	e.misses = 0
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

// errStaleOutcomes rejects a lane-outcome sidecar whose miss count
// disagrees with the stream it rides next to.
var errStaleOutcomes = errors.New("experiments: lane-outcome sidecar disagrees with its stream")

// pass is the engine's one traversal. next fills a block of at most
// laneChunk events and returns how many, with io.EOF at the end of the
// stream; engineCheckpoint runs before every block, and foldBlock hands
// each block to every lane in turn.
//
// side, when non-nil, is a sidecar holding limit outcomes per lane, and the
// pass folds from it without probing; it fails with errStaleOutcomes as
// soon as the stream's misses would outrun limit, or if they fall short of
// it at the end, and a failed pass never returns results. Otherwise the
// pass probes every block, and keep retains the whole stream's outcome
// bits in e.bits (e.misses of them) for a sidecar.
func (e *laneEngine) pass(ctx context.Context, p workload.Params, instructions uint64, side [][]uint64, limit uint64, keep bool, next func([]feEvent) (int, error)) ([]float64, error) {
	e.probe, e.keep, e.limit = side == nil, keep, int(limit)
	e.resetLanes(p, instructions)
	if side != nil {
		e.bits = side
	}
	for {
		if err := engineCheckpoint(ctx); err != nil {
			return nil, err
		}
		n, err := next(e.block)
		eof := errors.Is(err, io.EOF)
		if err != nil && !eof {
			return nil, err
		}
		if err := e.foldBlock(e.block[:n], instructions); err != nil {
			return nil, err
		}
		if eof {
			break
		}
	}
	if !e.probe && e.misses != e.limit {
		return nil, errStaleOutcomes
	}
	return e.collect(instructions), nil
}

// foldBlock folds block into every lane, one lane at a time, after
// resolving the block's misses into outcome bits (a probing pass) or
// checking that the sidecar still covers them.
func (e *laneEngine) foldBlock(block []feEvent, instructions uint64) error {
	addrs := e.addrs[:0]
	for i := range block {
		if block[i].Kind == feL1Miss {
			addrs = append(addrs, block[i].Addr)
		}
	}
	base := e.misses // bit index of the block's first miss
	switch {
	case !e.probe && base+len(addrs) > e.limit:
		return errStaleOutcomes
	case e.probe && !e.keep:
		base = 0 // the bits hold this block only
	}
	if e.probe {
		e.resolve(addrs, base)
	}
	for i := range e.lanes {
		e.lanes[i].fold(block, e.bits[i], base, instructions, e.step)
	}
	e.misses += len(addrs)
	return nil
}

// llcLookahead is how many misses ahead resolve prefetches the shadow sets
// of a later probe.
const llcLookahead = 8

// resolve sizes every lane's outcome bits for a block's misses, the first
// at bit base, and sets them: each miss probes the shadow set once, and
// bit i of the hit mask is lane i's outcome. The probes run as a pass of
// their own so that each can prefetch the sets of the miss llcLookahead
// ahead (cache.ShadowSet.Warm), as sim.FrontEnd does for the monitor.
func (e *laneEngine) resolve(addrs []uint64, base int) {
	words := (base + len(addrs) + 63) / 64
	for i := range e.bits {
		if base == 0 {
			e.bits[i] = e.bits[i][:0]
		}
		for len(e.bits[i]) < words {
			e.bits[i] = append(e.bits[i], 0)
		}
	}
	for j, addr := range addrs {
		if j+llcLookahead < len(addrs) {
			e.llc.Warm(addrs[j+llcLookahead])
		}
		c := base + j
		w, bit := c>>6, uint64(1)<<(uint(c)&63)
		for mask := e.llc.Access(addr); mask != 0; mask &= mask - 1 {
			e.bits[bits.TrailingZeros16(mask)][w] |= bit
		}
	}
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
// equivalent to cold generation because the stored sequence is exactly the
// cold sequence and both run the same pass over it
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

// generateRun is the cold path: the generator and the private L1 fill the
// pass's blocks, optionally teeing the event stream into st under key.
// The tee stages through fsutil.CreateAtomic and publishes only on a fully
// drained stream, so an aborted pass never leaves a partial entry. A
// teeing pass keeps every lane's probe bits and publishes them as the
// lane-outcome sidecar, so the very first warm pass already skips the
// probes.
func (e *laneEngine) generateRun(ctx context.Context, st *tracecache.Store, key tracecache.Key, p workload.Params, instructions uint64) ([]float64, error) {
	gen, err := workload.NewGenerator(p)
	if err != nil {
		return nil, err
	}
	chunks := isa.NewChunks(isa.NewLimited(gen, 2*instructions), laneChunk)
	e.l1.Reset()
	var w *tracecache.Writer
	if st != nil {
		w, err = st.Create(key)
		if err != nil {
			return nil, err
		}
		defer w.Close() // no-op after Commit; discards the staged file on error
	}
	offset := sim.DomainAddrOffset(0)
	ipcs, err := e.pass(ctx, p, instructions, nil, 0, w != nil, func(block []feEvent) (int, error) {
		ops := chunks.Next()
		if len(ops) == 0 {
			return 0, io.EOF
		}
		for k, op := range ops {
			ev := feEvent{NonMem: op.NonMem}
			if op.IsMem() {
				addr := op.Addr + offset
				if e.l1.Access(addr) {
					ev.Kind = feL1Hit
				} else {
					ev.Kind = feL1Miss
					ev.Addr = addr
				}
			}
			block[k] = ev
		}
		if w != nil {
			return len(ops), w.WriteEvents(block[:len(ops)])
		}
		return len(ops), nil
	})
	if err != nil || w == nil {
		return ipcs, err
	}
	if err := w.Commit(); err != nil {
		return nil, err
	}
	if err := st.SaveLaneOutcomes(key, e.llcWays, e.sizes, uint64(e.misses), e.bits); err != nil {
		return nil, err
	}
	return ipcs, nil
}

// replayRun is the warm path: the cache entry fills the pass's blocks, and
// the generator and private L1 never run. A valid lane-outcome sidecar
// (written by the cold tee, or by an earlier warm pass's re-probe)
// supplies every lane's bits, reducing the pass to decode plus timing
// folds. The sidecar's key, geometry and CRC are checked on load, but its
// miss count can only be checked against the stream while folding; a
// sidecar that fails that check discards its pass, and the entry is read
// once more with probing. Either way, a probing pass rewrites the sidecar.
func (e *laneEngine) replayRun(ctx context.Context, st *tracecache.Store, key tracecache.Key, r *tracecache.Reader, p workload.Params, instructions uint64) ([]float64, error) {
	if side, limit, ok := st.OpenLaneOutcomesUpTo(key, e.llcWays, e.sizes, r.Count()); ok {
		ipcs, err := e.pass(ctx, p, instructions, side, limit, true, r.Read)
		r.Close()
		if !errors.Is(err, errStaleOutcomes) {
			if err == nil {
				st.NoteLaneOutcomes(true)
			}
			return ipcs, err
		}
		if r, err = st.Open(key); err != nil {
			return nil, err
		}
		if r == nil {
			return nil, fmt.Errorf("%w: %s vanished during replay", tracecache.ErrCorrupt, st.EntryPath(key))
		}
	}
	defer r.Close()
	st.NoteLaneOutcomes(false)
	ipcs, err := e.pass(ctx, p, instructions, nil, 0, true, r.Read)
	if err != nil {
		return nil, err
	}
	if err := st.SaveLaneOutcomes(key, e.llcWays, e.sizes, uint64(e.misses), e.bits); err != nil {
		return nil, err
	}
	return ipcs, nil
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

// The fused mix engine: one front-end pass per mix serving all four
// scheme back-ends of the Figure 10 / Table 6 pipeline.
//
// Within one mix, the four RunMixContext simulations (Shared, Static,
// Time, Untangle) differ only below the shared LLC: partition backend,
// monitor windows, partition controller, accountant. Everything upstream
// is byte-identical across them — the generators (same parameters and
// seeds), the address-space offsets, the private L1s, and even the
// monitor's eligibility gate and shadow arrays (annotation filter + the
// monitor's own L1-sized filter cache, all pure functions of the op stream
// because Scheme.Annotated is uniform across the four kinds). The engine
// therefore runs each domain's front end once — workload generator +
// sim.FrontEnd, including the Seed+=0xA5A5 pressure variant — into an
// in-memory tape of rich tracecache events (hit/miss resolution, write
// bit, monitor and public-progress gates, shadow hit vectors, L1
// eviction/writeback counts), and replays the tape into four scheme lanes.
//
// Unlike the sensitivity engine's lean cache.Lane replay, a mix lane is a
// full sim.Sim fed through its only input seam, sim.ReplaySource
// (DomainSpec.Replay). The per-scheme oracle (runMixOracle) feeds the same
// simulator through the live source sim.New builds over the same
// sim.FrontEnd, so the two paths share the gates and the per-domain loop
// by construction; TestMixFusionMatchesOracle still requires IPCs,
// leakage, Table 6 rows, and telemetry buffers to match exactly, cold and
// fe-cache-warm, which pins the tape's chunking, the pressure-tail
// bookkeeping and the warm decode.
//
// With a front-end cache attached (SetFrontEndCache; -fe-cache on
// cmd/experiments), each domain's tape is persisted as a rich .fetrace
// entry: the measured stream, a KindMeasuredEnd marker, then a pressure
// tail sized to what the slowest lane actually consumed plus slack. Warm
// runs decode the entry instead of generating. The pressure tail is the
// one stored quantity whose needed length depends on the scheme mix — a
// warm run that drains it (a lane kept a domain alive longer than the
// recorded run did) discards its results, deletes the short entries, and
// regenerates them cold; see runMixFused.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"untangle/internal/isa"
	"untangle/internal/monitor"
	"untangle/internal/parallel"
	"untangle/internal/partition"
	"untangle/internal/sim"
	"untangle/internal/tracecache"
	"untangle/internal/workload"
)

// mixReplayEventBudget caps the events one mix's tapes may hold in memory
// (all eight domains together, measured plus pressure). Past it the fused
// path steps aside and the mix runs on the per-scheme oracle; the first
// over-budget scale is remembered so later mixes of the same campaign skip
// straight to the oracle instead of rediscovering the limit mid-run.
const mixReplayEventBudget = 64 << 20

// mixFusionMaxRestarts bounds the underrun-regeneration loop: each restart
// forces at least one more domain cold, so eight always suffice.
const mixFusionMaxRestarts = 8

// Sentinel conditions the fused engine resolves itself (oracle fallback or
// cold regeneration) when no telemetry sinks are attached, and surfaces as
// retryable errors when they are — a retry with fresh sinks (parallel.Retry
// in runMixUnit provides exactly that) takes the recovery path cleanly.
var (
	errMixOverBudget     = errors.New("experiments: fused mix tape exceeds the replay memory budget")
	errMixReplayUnderrun = errors.New("experiments: fused mix replay drained a cached pressure tail; short entries removed, retry regenerates them")
)

// mixOverBudgetScaleBits remembers (as math.Float64bits) the smallest scale
// whose tape overran mixReplayEventBudget in this process; zero means none.
var mixOverBudgetScaleBits atomic.Uint64

func noteMixOverBudget(scale float64) {
	bits := math.Float64bits(scale)
	for {
		cur := mixOverBudgetScaleBits.Load()
		if cur != 0 && math.Float64frombits(cur) <= scale {
			return
		}
		if mixOverBudgetScaleBits.CompareAndSwap(cur, bits) {
			return
		}
	}
}

func mixScaleOverBudget(scale float64) bool {
	cur := mixOverBudgetScaleBits.Load()
	return cur != 0 && scale >= math.Float64frombits(cur)
}

// mixStreamKey is the trace-cache identity of one mix domain's front-end
// stream: the pair, the domain slot (the address-space offset hashes into
// L1 set selection, so the same pair behaves differently per slot), the
// scaled phase lengths and total, the secret, and the annotation switch
// (both gates are baked into the recorded flags). The variant fields also
// suffix the benchmark name so every distinct key gets a distinct file.
func mixStreamKey(pair workload.Pair, idx int, scale float64, secret uint64, annotated bool, l1Bytes int64, l1Ways int) tracecache.Key {
	name := fmt.Sprintf("mix-%s-d%d", pair.String(), idx)
	if secret != 0 {
		name += fmt.Sprintf("-s%x", secret)
	}
	if !annotated {
		name += "-noannot"
	}
	return tracecache.Key{
		Benchmark:    name,
		Instructions: scaleCount(fullTotal, scale),
		L1Bytes:      l1Bytes,
		L1Ways:       l1Ways,
		ParamsTag:    cachedParamsTag(),
		Flavor:       "mix",
		Domain:       idx,
		CryptoPhase:  scaleCount(fullCryptoPhase, scale),
		SpecPhase:    scaleCount(fullSPECPhase, scale),
		Secret:       secret,
		Unannotated:  !annotated,
	}
}

// mixTape is one domain's shared event tape. Chunks are immutable once
// published; a live tape (fe != nil) extends lazily under mu when the
// leading lane outruns what exists, a sealed tape (decoded from the cache)
// never grows. measured marks the boundary between the measured stream and
// the pressure tail.
type mixTape struct {
	mu           sync.Mutex
	chunks       [][]feEvent
	total        int
	measured     int
	haveMeasured bool
	err          error
	cold         bool // generated this run (candidate for persisting)

	// A live tape's generator: the domain's front end, the measured stream
	// (nil once drained) and the endless pressure stream, both via
	// isa.Chunks.
	ctx      context.Context
	fe       *sim.FrontEnd
	stream   *isa.Chunks
	pressure *isa.Chunks
	budget   *atomic.Int64
}

// fail seals the tape with an error; every lane's source sees it drained.
func (t *mixTape) fail(err error) {
	t.err = err
	t.fe = nil
}

// produce extends the tape by one chunk (caller holds mu): the next batch
// of the measured stream, or — once it drains, recording the boundary —
// the pressure stream, resolved through the domain's front end.
func (t *mixTape) produce() {
	if err := engineCheckpoint(t.ctx); err != nil {
		t.fail(err)
		return
	}
	var ops []isa.Op
	if t.stream != nil {
		ops = t.stream.Next()
		if len(ops) == 0 {
			t.stream = nil
			t.measured = t.total
			t.haveMeasured = true
			return
		}
	} else {
		ops = t.pressure.Next()
		if len(ops) == 0 {
			t.fail(errors.New("experiments: mix pressure stream dried"))
			return
		}
	}
	chunk := t.fe.Resolve(ops, make([]feEvent, len(ops)))
	t.chunks = append(t.chunks, chunk)
	t.total += len(chunk)
	if t.budget.Add(int64(len(chunk))) > mixReplayEventBudget {
		t.fail(errMixOverBudget)
	}
}

// mixSource is one lane's private cursor over a tape; it implements
// sim.ReplaySource. Sources snapshot the tape's published state and only
// take the lock to pull more, so concurrent lanes replay lock-free over
// the immutable prefix.
type mixSource struct {
	t            *mixTape
	chunks       [][]feEvent
	total        int
	measured     int
	haveMeasured bool
	ci, off      int // cursor within the chunk snapshot
	pos          int // global event position
	sentEnd      bool
	underrun     bool
}

// NextEvents implements sim.ReplaySource: batches up to the measured-end
// boundary (delivered as one empty batch, the driver's finish signal),
// then pressure batches. A sealed tape that drains while the lane still
// wants events marks the source underrun — the recorded pressure tail was
// shorter than this scheme mix needs — and idles the lane out; the engine
// discards the attempt and regenerates.
func (s *mixSource) NextEvents() []feEvent {
	for {
		if s.haveMeasured && !s.sentEnd && s.pos == s.measured {
			s.sentEnd = true
			return nil
		}
		if s.pos >= s.total {
			if !s.refresh() {
				s.underrun = true
				return nil
			}
			continue
		}
		chunk := s.chunks[s.ci]
		if s.off >= len(chunk) {
			s.ci++
			s.off = 0
			continue
		}
		end := len(chunk)
		if s.haveMeasured && !s.sentEnd && s.measured < s.pos+(end-s.off) {
			end = s.off + (s.measured - s.pos)
		}
		batch := chunk[s.off:end]
		s.off = end
		s.pos += len(batch)
		return batch
	}
}

// refresh re-snapshots the tape, extending it first if it is live and the
// cursor has caught up. False means nothing more will come.
func (s *mixSource) refresh() bool {
	t := s.t
	t.mu.Lock()
	for s.pos >= t.total && t.fe != nil && t.err == nil {
		t.produce()
	}
	s.chunks = t.chunks
	s.total = t.total
	s.measured = t.measured
	s.haveMeasured = t.haveMeasured
	t.mu.Unlock()
	return s.pos < s.total || (s.haveMeasured && !s.sentEnd && s.pos == s.measured)
}

// annotateMonMasks replays a decoded tape's observed accesses through a
// fresh recorder, restoring the in-memory MonMask annotation the cache
// never stores. One shadow pass per warm domain, instead of one per
// dynamic lane.
func annotateMonMasks(t *mixTape, rec *monitor.Monitor) {
	for _, chunk := range t.chunks {
		for j := range chunk {
			if chunk[j].Flags&tracecache.FlagMonObserve != 0 {
				chunk[j].MonMask = rec.HitMask(chunk[j].Addr, chunk[j].Flags&tracecache.FlagWrite != 0)
			}
		}
	}
}

// runMixFused is RunMixContext's fused path. ok=false means the mix is
// ineligible (tape over the memory budget) and the caller should run the
// per-scheme oracle; it is only returned before any lane has emitted
// telemetry, or when no sinks are attached, so falling back never
// duplicates events. Errors from the sentinel conditions above are
// retryable: the recovery (cold regeneration, oracle fallback) engages on
// the next attempt.
func runMixFused(ctx context.Context, mix workload.Mix, opts Options) (*MixResult, bool, error) {
	scale := opts.scale()
	if mixScaleOverBudget(scale) {
		return nil, false, nil
	}
	st := FrontEndCache()
	annotated := !opts.DisableAnnotations
	// The L1 geometry every lane uses (scheme-independent, never scaled).
	geom := sim.Scaled(partition.DefaultScheme(partition.Static), scale)

	specs, err := BuildDomains(mix, scale, opts.Secret)
	if err != nil {
		return nil, false, err
	}
	keys := make([]tracecache.Key, len(specs))
	for i := range specs {
		keys[i] = mixStreamKey(mix.Pairs[i], i, scale, opts.Secret, annotated, geom.L1Bytes, geom.L1Ways)
	}

	// With telemetry or metrics sinks attached, a discarded attempt has
	// already emitted into them; recovery then needs fresh sinks, so it is
	// surfaced as a retryable error instead of restarting in place.
	canRestart := opts.TracerFor == nil && opts.MetricsFor == nil

	forceCold := make([]bool, len(keys))
	for attempt := 0; ; attempt++ {
		res, retry, ok, err := runMixFusedOnce(ctx, mix, opts, keys, forceCold, st, specs, scale)
		if err != nil || !ok || !retry {
			return res, ok, err
		}
		// retry: underrun entries were removed and their domains forced
		// cold; rebuild the consumed front-end streams and go again.
		if !canRestart {
			return nil, true, errMixReplayUnderrun
		}
		if attempt >= mixFusionMaxRestarts {
			return nil, true, fmt.Errorf("experiments: mix %d fused replay did not converge after %d regenerations", mix.ID, attempt)
		}
		if specs, err = BuildDomains(mix, scale, opts.Secret); err != nil {
			return nil, false, err
		}
	}
}

// runMixFusedOnce runs one fused attempt. retry=true asks the caller to
// regenerate (underrun entries already removed, forceCold updated);
// ok=false routes to the oracle.
func runMixFusedOnce(ctx context.Context, mix workload.Mix, opts Options, keys []tracecache.Key, forceCold []bool, st *tracecache.Store, specs []sim.DomainSpec, scale float64) (*MixResult, bool, bool, error) {
	budget := &atomic.Int64{}
	// One front end serves every lane, so it resolves under a dynamic
	// scheme's configuration: the L1 geometry, annotation switch, and
	// monitor gate and recorder are scheme-independent (sim.Scaled varies
	// only SchemeConfig across kinds), and static lanes ignore
	// FlagMonObserve. Telemetry belongs to the lanes.
	feOpts := opts
	feOpts.TracerFor, feOpts.MetricsFor = nil, nil
	feCfg := mixSimConfig(feOpts, partition.Untangle, scale)
	tapes := make([]*mixTape, len(keys))
	for i := range keys {
		t, ok, err := openMixTape(ctx, st, keys[i], budget, forceCold[i], scale)
		if err != nil {
			return nil, false, false, err
		}
		if !ok {
			return nil, false, false, nil // over budget: oracle
		}
		if t == nil {
			fe, err := sim.NewFrontEnd(feCfg, i)
			if err != nil {
				return nil, false, false, err
			}
			t = &mixTape{
				cold:     true,
				ctx:      ctx,
				fe:       fe,
				stream:   isa.NewChunks(specs[i].Stream, laneChunk),
				pressure: isa.NewChunks(specs[i].Pressure, laneChunk),
				budget:   budget,
			}
		} else {
			rec, err := monitor.New(feCfg.MonitorConfig())
			if err != nil {
				return nil, false, false, err
			}
			annotateMonMasks(t, rec)
		}
		tapes[i] = t
	}

	res := &MixResult{Mix: mix, Scale: scale, PerScheme: map[partition.Kind]*sim.Result{}}
	kinds := opts.kinds()
	sources := make([][]*mixSource, len(kinds))
	for i := range kinds {
		sources[i] = make([]*mixSource, len(tapes))
		for d, t := range tapes {
			sources[i][d] = &mixSource{t: t}
		}
	}
	results, err := parallel.Map(ctx, len(kinds), opts.Jobs, func(_ context.Context, i int) (*sim.Result, error) {
		kind := kinds[i]
		cfg := mixSimConfig(opts, kind, res.Scale)
		laneSpecs := make([]sim.DomainSpec, len(specs))
		for d := range specs {
			laneSpecs[d] = sim.DomainSpec{
				Name:   specs[d].Name,
				Replay: sources[i][d],
				CPU:    specs[d].CPU,
			}
		}
		s, err := sim.New(cfg, laneSpecs)
		if err != nil {
			return nil, fmt.Errorf("mix %d, %v: %w", mix.ID, kind, err)
		}
		r, err := s.Run()
		if err != nil {
			return nil, fmt.Errorf("mix %d, %v: %w", mix.ID, kind, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, false, false, err
	}
	// A failed front-end poisons every lane that fed from it; surface the
	// cause rather than the garbage results.
	for _, t := range tapes {
		if t.err == nil {
			continue
		}
		if errors.Is(t.err, errMixOverBudget) {
			noteMixOverBudget(scale)
			if opts.TracerFor == nil && opts.MetricsFor == nil {
				return nil, false, false, nil // oracle, silently
			}
			return nil, false, false, t.err // retry lands on the oracle via the scale note
		}
		return nil, false, false, t.err
	}
	// An underrun lane idled out on a short cached pressure tail: its
	// timing no longer matches the oracle. Remove the short entries and
	// regenerate those domains cold.
	consumed := make([]int, len(tapes))
	retry := false
	for d := range tapes {
		for i := range kinds {
			src := sources[i][d]
			if src.pos > consumed[d] {
				consumed[d] = src.pos
			}
			if src.underrun {
				retry = true
				forceCold[d] = true
			}
		}
	}
	if retry {
		for d, t := range tapes {
			if forceCold[d] && !t.cold && st != nil {
				unlock := st.Lock(keys[d])
				os.Remove(st.EntryPath(keys[d]))
				unlock()
			}
		}
		return nil, true, true, nil
	}
	// Success: persist the cold tapes, with a pressure tail sized to the
	// hungriest lane plus slack so same-options warm runs never underrun.
	if st != nil {
		for d, t := range tapes {
			if !t.cold {
				continue
			}
			if err := persistMixTape(st, keys[d], t, consumed[d]); err != nil {
				return nil, false, false, err
			}
		}
	}
	for i, kind := range kinds {
		res.PerScheme[kind] = results[i]
	}
	return res, false, true, nil
}

// openMixTape loads a domain's sealed tape from the cache. Returns
// (nil, true, nil) on a miss or when forceCold — the caller generates.
// ok=false means the entry outgrew the replay budget (detected before any
// lane ran, so the oracle fallback is always clean).
func openMixTape(ctx context.Context, st *tracecache.Store, key tracecache.Key, budget *atomic.Int64, forceCold bool, scale float64) (*mixTape, bool, error) {
	if st == nil || forceCold {
		return nil, true, nil
	}
	unlock := st.Lock(key)
	defer unlock()
	r, err := st.Open(key)
	if err != nil {
		return nil, false, err
	}
	if r == nil {
		return nil, true, nil
	}
	defer r.Close()
	if !r.Rich() {
		if st.RebuildEnabled() {
			st.NoteRebuild()
			return nil, true, nil
		}
		return nil, false, fmt.Errorf("%w: %s is not a rich mix entry (key %s) — delete it or rerun with -fe-cache-rebuild",
			tracecache.ErrKeyMismatch, st.EntryPath(key), key)
	}
	t, err := decodeMixTape(ctx, r, budget)
	if err != nil {
		if errors.Is(err, errMixOverBudget) {
			noteMixOverBudget(scale)
			return nil, false, nil
		}
		if errors.Is(err, tracecache.ErrCorrupt) && st.RebuildEnabled() {
			st.NoteRebuild()
			return nil, true, nil
		}
		return nil, false, err
	}
	return t, true, nil
}

// decodeMixTape decodes a rich entry into a sealed tape, splitting at the
// measured-end marker. The per-batch checkpoint keeps the warm path's
// cancellation and fault cadence aligned with the cold path's.
func decodeMixTape(ctx context.Context, r *tracecache.Reader, budget *atomic.Int64) (*mixTape, error) {
	t := &mixTape{}
	buf := make([]feEvent, laneChunk)
	for {
		if err := engineCheckpoint(ctx); err != nil {
			return nil, err
		}
		n, err := r.Read(buf)
		seg := buf[:n]
		for len(seg) > 0 {
			cut := len(seg)
			marker := false
			for i, ev := range seg {
				if ev.Kind == tracecache.KindMeasuredEnd {
					cut, marker = i, true
					break
				}
			}
			if cut > 0 {
				chunk := make([]feEvent, cut)
				copy(chunk, seg[:cut])
				t.chunks = append(t.chunks, chunk)
				t.total += cut
				if budget.Add(int64(cut)) > mixReplayEventBudget {
					return nil, errMixOverBudget
				}
			}
			if marker {
				if t.haveMeasured {
					return nil, fmt.Errorf("%w: second measured-end marker", tracecache.ErrCorrupt)
				}
				t.measured = t.total
				t.haveMeasured = true
				cut++
			}
			seg = seg[cut:]
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if !t.haveMeasured {
		return nil, fmt.Errorf("%w: no measured-end marker", tracecache.ErrCorrupt)
	}
	return t, nil
}

// persistMixTape writes a cold tape to the cache: measured events, the
// marker, then the pressure tail extended to consumed + 1/8 slack (clamped
// by the budget — a truncated tail only means a future underrun rebuild).
func persistMixTape(st *tracecache.Store, key tracecache.Key, t *mixTape, consumed int) error {
	target := consumed + consumed/8 + laneChunk
	t.mu.Lock()
	for t.total < target && t.fe != nil && t.err == nil {
		t.produce()
	}
	err := t.err
	t.mu.Unlock()
	if err != nil && !errors.Is(err, errMixOverBudget) {
		return err
	}
	unlock := st.Lock(key)
	defer unlock()
	w, err := st.CreateRich(key)
	if err != nil {
		return err
	}
	defer w.Close()
	if err := writeMixTape(w, t); err != nil {
		return err
	}
	return w.Commit()
}

// writeMixTape streams a tape's chunks into a rich writer, inserting the
// measured-end marker at the recorded boundary.
func writeMixTape(w *tracecache.Writer, t *mixTape) error {
	marker := []feEvent{{Kind: tracecache.KindMeasuredEnd}}
	pos := 0
	markerDone := false
	for _, chunk := range t.chunks {
		if !markerDone && t.haveMeasured && t.measured >= pos && t.measured <= pos+len(chunk) {
			cut := t.measured - pos
			if cut > 0 {
				if err := w.WriteEvents(chunk[:cut]); err != nil {
					return err
				}
			}
			if err := w.WriteEvents(marker); err != nil {
				return err
			}
			if cut < len(chunk) {
				if err := w.WriteEvents(chunk[cut:]); err != nil {
					return err
				}
			}
			markerDone = true
		} else if err := w.WriteEvents(chunk); err != nil {
			return err
		}
		pos += len(chunk)
	}
	if !markerDone {
		return w.WriteEvents(marker)
	}
	return nil
}

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
// sim.FrontEnd, including the Seed+=0xA5A5 pressure variant — into a tape
// of rich tracecache events (hit/miss resolution, write bit, monitor and
// public-progress gates, shadow hit vectors, L1 eviction/writeback
// counts), and replays the tape into four scheme lanes. The lanes'
// monitors take the recorded hit vectors and build no shadow arrays.
//
// Unlike the sensitivity engine's lean cache.Lane replay, a mix lane is a
// full sim.Sim fed through its only input seam, sim.ReplaySource
// (DomainSpec.Replay). The per-scheme oracle (runMixOracle) feeds the same
// simulator through the live source sim.New builds over the same
// sim.FrontEnd, so the two paths share the gates and the per-domain loop
// by construction; TestMixFusionMatchesOracle still requires IPCs,
// leakage, Table 6 rows, and telemetry buffers to match exactly, cold and
// fe-cache-warm, inline and concurrent, which pins the tape's chunking,
// the pressure-tail bookkeeping and the warm decode.
//
// The lanes run in rounds: each round, every unfinished lane takes one
// sim.Step, a quantum, so at every round boundary all lanes stand at the
// same simulated time. Their tape cursors then differ only by the spread
// between the fastest and slowest scheme, and the tape keeps just that
// window: the chunks every live lane has passed go back to a per-mix ring
// (mixRing) that the front ends refill from. Tape memory follows the
// cursor spread, not the stream length (TestMixTapeFollowsWindow); the
// peak is the gauge obs.mix.tape_window_events. The window still grows
// with the stream, so mixReplayEventBudget caps it and a mix past the cap
// runs on the oracle.
//
// With a front-end cache attached (SetFrontEndCache; -fe-cache on
// cmd/experiments), each cold domain's events stream into a rich .fetrace
// entry as they are produced: the measured stream, a KindMeasuredEnd
// marker, then a pressure tail extended after the lanes to what the
// hungriest lane consumed plus slack. Warm runs pull the entry chunk by
// chunk through a tracecache.Reader instead of generating: the entry holds
// the hit vectors too, so a warm tape only decodes and no warm domain
// simulates shadow arrays. The vectors depend on the recorder's geometry,
// which a non-default one (Options.WayPartitioned's way-granular sizes)
// therefore adds to the entry's key (pinMonitorGeometry). The pressure
// tail is the one stored quantity whose needed length depends on the
// scheme mix — a warm run that drains it (a lane kept a domain alive
// longer than the recorded run did) discards its results, deletes the
// short entries, and regenerates them cold; see runMixFused.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"untangle/internal/isa"
	"untangle/internal/monitor"
	"untangle/internal/parallel"
	"untangle/internal/partition"
	"untangle/internal/sim"
	"untangle/internal/telemetry"
	"untangle/internal/tracecache"
	"untangle/internal/workload"
)

// mixReplayEventBudget caps the live tape window of one mix: the events its
// eight domains' tapes hold at a round boundary, from the trailing lane's
// chunk to the leading lane's. The window grows with the stream length, so
// past the cap the fused path steps aside and the mix runs on the
// per-scheme oracle; the first over-budget scale is remembered so later
// mixes of the same campaign skip straight to the oracle instead of
// rediscovering the limit mid-run.
const mixReplayEventBudget = 64 << 20

// mixFusionMaxRestarts bounds the underrun-regeneration loop: each restart
// forces at least one more domain cold, so eight always suffice.
const mixFusionMaxRestarts = 8

// Sentinel conditions the fused engine resolves itself (oracle fallback or
// cold regeneration) when no telemetry sinks are attached, and surfaces as
// retryable errors when they are — a retry with fresh sinks
// (parallel.RetryUnit in cmd/experiments' runMixUnit provides exactly
// that) takes the recovery path cleanly.
var (
	errMixOverBudget    = errors.New("experiments: fused mix tape window exceeds the replay memory budget")
	errMixEntryRejected = errors.New("experiments: fused mix replay rejected a cached entry (pressure tail too short, or corrupt); entry removed, retry regenerates it")
)

// mixOverBudgetScaleBits remembers (as math.Float64bits) the smallest scale
// whose tape window overran mixReplayEventBudget in this process; zero
// means none.
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

// pinMonitorGeometry keys a stream whose MonMask values were recorded
// under rec, when rec's shadow-array geometry — the sizes, ways and sample
// factor HitMask depends on — differs from def, the default at the
// stream's scale: the key's Monitor field names it and a hash of it
// suffixes the benchmark name, so the entry gets a file of its own. A
// default-geometry key is returned unchanged.
func pinMonitorGeometry(key tracecache.Key, rec, def monitor.Config) tracecache.Key {
	if slices.Equal(rec.Sizes, def.Sizes) && rec.Ways == def.Ways && rec.SampleLog2 == def.SampleLog2 {
		return key
	}
	key.Monitor = fmt.Sprintf("sizes=%v ways=%d sample=%d", rec.Sizes, rec.Ways, rec.SampleLog2)
	h := fnv.New32a()
	h.Write([]byte(key.Monitor))
	key.Benchmark += fmt.Sprintf("-m%08x", h.Sum32())
	return key
}

// mixRing recycles one mix's tape chunks. Every chunk buffer holds
// laneChunk events; the engine hands a chunk back once every live lane has
// passed it, and produce takes from here before it allocates, so the
// buffers a mix makes number its peak live chunks.
type mixRing struct {
	mu        sync.Mutex
	free      [][]feEvent
	allocated int // chunk buffers made
}

func (r *mixRing) get() []feEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.free); n > 0 {
		c := r.free[n-1]
		r.free = r.free[:n-1]
		return c[:laneChunk]
	}
	r.allocated++
	return make([]feEvent, laneChunk)
}

func (r *mixRing) put(c []feEvent) {
	r.mu.Lock()
	r.free = append(r.free, c)
	r.mu.Unlock()
}

// mixTape is one domain's shared event tape: the live chunks from the one
// the trailing lane reads to the newest, numbered absolutely from the
// stream's start. During a round the look-ahead task (lookAhead), or a
// lane whose cursor reaches the end, extends the tape under mu; between
// rounds the engine releases the chunks behind every live lane. The measured stream ends at a chunk boundary:
// chunk measured is the pressure tail's first.
type mixTape struct {
	ring     *mixRing
	mu       sync.Mutex
	chunks   [][]feEvent // chunks[0] is chunk number first
	first    int
	live     int // events in chunks
	total    int // events produced
	produced int // chunks produced
	measured int // -1 until the measured stream has ended
	done     bool
	err      error
	cold     bool // generated this run (persisted on success)

	ctx context.Context
	// A cold tape's producer: the domain's front end over the measured
	// stream (nil once drained) and the endless pressure stream, the ops
	// of their last batch not yet resolved, and the fe-cache entry every
	// chunk is appended to (nil without a store).
	fe       *sim.FrontEnd
	stream   *isa.Chunks
	pressure *isa.Chunks
	ops      []isa.Op
	w        *tracecache.Writer
	// A warm tape's producer: the entry's reader and its batch buffer.
	r   *tracecache.Reader
	buf []feEvent
}

func (t *mixTape) end() int { return t.first + len(t.chunks) }

// produce extends the tape by one front-end batch. The caller holds mu (a
// deferred unlock, so that a panicking front end cannot stall the other
// workers of its round), or the lanes are stopped. A failure seals the tape: every lane's source
// then sees it drained, and the engine surfaces t.err.
func (t *mixTape) produce() {
	err := engineCheckpoint(t.ctx)
	if err == nil {
		if t.r != nil {
			err = t.read()
		} else {
			err = t.generate()
		}
	}
	if err != nil {
		t.err, t.done = err, true
	}
}

// generate fills the next chunk with the measured stream or, once that
// drains, the pressure stream, resolved through the domain's front end, and
// appends it to the fe-cache entry. Op batches come from isa.Chunks as
// they always have and are packed into whole chunks, so only the measured
// stream's last chunk is short.
func (t *mixTape) generate() error {
	var c []feEvent
	n := 0
	for c == nil || n < len(c) {
		if len(t.ops) == 0 {
			if t.stream != nil {
				if t.ops = t.stream.Next(); len(t.ops) == 0 {
					t.stream = nil
					break
				}
			} else if t.ops = t.pressure.Next(); len(t.ops) == 0 {
				if c != nil {
					t.ring.put(c)
				}
				return errors.New("experiments: mix pressure stream dried")
			}
		}
		if c == nil {
			c = t.ring.get()
		}
		k := min(len(t.ops), len(c)-n)
		t.fe.Resolve(t.ops[:k], c[n:])
		t.ops = t.ops[k:]
		n += k
	}
	if n > 0 {
		c = c[:n]
		if t.w != nil {
			if err := t.w.WriteEvents(c); err != nil {
				return err
			}
		}
		t.publish(c)
	}
	if t.stream == nil && t.measured < 0 {
		return t.markMeasured()
	}
	return nil
}

// read decodes the next batch of a warm entry into the tape's read buffer
// and copies it into chunks, split at the measured-end marker. Chunks are
// taken from the ring only for events, so the buffers a mix makes do not
// depend on how concurrent lanes interleave. The per-batch checkpoint in
// produce keeps the warm path's cancellation and fault cadence aligned
// with the cold path's.
func (t *mixTape) read() error {
	n, err := t.r.Read(t.buf)
	seg := t.buf[:n]
	if m := slices.IndexFunc(seg, isMeasuredEnd); m >= 0 {
		t.publishCopy(seg[:m])
		if merr := t.markMeasured(); merr != nil {
			return merr
		}
		seg = seg[m+1:]
		if slices.IndexFunc(seg, isMeasuredEnd) >= 0 {
			return fmt.Errorf("%w: second measured-end marker", tracecache.ErrCorrupt)
		}
	}
	t.publishCopy(seg)
	if errors.Is(err, io.EOF) {
		t.done = true
		if t.measured < 0 {
			return fmt.Errorf("%w: no measured-end marker", tracecache.ErrCorrupt)
		}
		return nil
	}
	return err
}

// publishCopy appends a copy of decoded events as one chunk.
func (t *mixTape) publishCopy(seg []feEvent) {
	if len(seg) == 0 {
		return
	}
	c := t.ring.get()[:len(seg)]
	copy(c, seg)
	t.publish(c)
}

func isMeasuredEnd(ev feEvent) bool { return ev.Kind == tracecache.KindMeasuredEnd }

// markMeasured ends the measured stream at the next chunk boundary and
// writes the marker there into a cold tape's entry.
func (t *mixTape) markMeasured() error {
	if t.measured >= 0 {
		return fmt.Errorf("%w: second measured-end marker", tracecache.ErrCorrupt)
	}
	t.measured = t.end()
	if t.w != nil {
		return t.w.WriteEvents([]feEvent{{Kind: tracecache.KindMeasuredEnd}})
	}
	return nil
}

// publish appends a chunk to the tape.
func (t *mixTape) publish(c []feEvent) {
	t.chunks = append(t.chunks, c)
	t.live += len(c)
	t.total += len(c)
	t.produced++
}

// release hands the chunks numbered below keep back to the ring. Only the
// engine calls it, between rounds. A source's snapshot of chunks may share
// the backing array; it never reads below its own cursor, which keep does
// not pass.
func (t *mixTape) release(keep int) {
	for t.first < keep && len(t.chunks) > 0 {
		c := t.chunks[0]
		t.chunks[0] = nil
		t.chunks = t.chunks[1:]
		t.first++
		t.live -= len(c)
		t.ring.put(c)
	}
}

// finish runs a tape's producer on past the lanes, every chunk straight
// back into the ring: a warm tape drains its reader, because the entry's
// event count and CRC are verified only at its end, and a cold tape with
// an entry extends its pressure tail to target events.
func (t *mixTape) finish(target int) {
	t.release(t.end())
	for !t.done && (t.r != nil || (t.w != nil && t.total < target)) {
		t.produce()
		t.release(t.end())
	}
}

// close releases the tape's reader and discards an uncommitted entry.
func (t *mixTape) close() {
	if t.r != nil {
		t.r.Close()
		t.r = nil
	}
	if t.w != nil {
		t.w.Close()
		t.w = nil
	}
}

// mixSource is one lane's cursor over a tape; it implements
// sim.ReplaySource. A source hands out whole chunks from a snapshot of the
// tape and takes the lock only to pull more, so concurrent lanes replay
// lock-free over the published chunks. The lane may still be reading the
// chunk it was handed last, next-1, so the engine keeps that one.
type mixSource struct {
	t        *mixTape
	chunks   [][]feEvent // snapshot of t.chunks, numbered from first
	first    int
	measured int
	next     int // number of the next chunk to hand out
	pos      int // events handed out
	sentEnd  bool
	underrun bool
}

// NextEvents implements sim.ReplaySource: the measured stream's chunks,
// one empty batch at its end (the driver's finish signal), then pressure
// chunks. A warm tape that drains while the lane still wants events marks
// the source underrun — the recorded pressure tail was shorter than this
// scheme mix needs — and idles the lane out; the engine discards the
// attempt and regenerates.
func (s *mixSource) NextEvents() []feEvent {
	for {
		if !s.sentEnd && s.next == s.measured {
			s.sentEnd = true
			return nil
		}
		if i := s.next - s.first; i < len(s.chunks) {
			s.next++
			s.pos += len(s.chunks[i])
			return s.chunks[i]
		}
		if !s.refresh() {
			s.underrun = true
			return nil
		}
	}
}

// refresh re-snapshots the tape, extending it first while the cursor is at
// its end. False means nothing more will come.
func (s *mixSource) refresh() bool {
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	for s.next == t.end() && !t.done && (s.sentEnd || s.next != t.measured) {
		t.produce()
	}
	s.chunks, s.first, s.measured = t.chunks, t.first, t.measured
	return s.next < s.first+len(s.chunks) || (!s.sentEnd && s.next == s.measured)
}

// mixLane is one scheme's simulation over the mix's tapes.
type mixLane struct {
	mixID int
	kind  partition.Kind
	sim   *sim.Sim
	srcs  []*mixSource // one per domain
	res   *sim.Result  // set once the simulation has finished
}

// step runs the lane for one round, one quantum, recording its result
// when it finishes.
func (l *mixLane) step() error {
	done, err := l.sim.Step()
	if err != nil {
		return fmt.Errorf("mix %d, %v: %w", l.mixID, l.kind, err)
	}
	if done {
		l.res = l.sim.Result()
	}
	return nil
}

// lookAhead makes the tape hold chunk next, the one its leading lane asks
// for next. As the first task of a round it lets the front ends run beside
// the lanes on a second worker, instead of inside whichever lane reaches
// the end of a tape first; lanes still extend a tape themselves when a
// round carries them past it.
func (t *mixTape) lookAhead(next int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for !t.done && t.end() <= next {
		t.produce()
	}
}

// runRound runs one round's tasks, inline in order when jobs is 1, else on
// at most jobs goroutines. A panic fails the round like a returned error,
// as it would in a parallel pool; the first error in task order wins.
func runRound(tasks []func() error, jobs int) error {
	errs := make([]error, len(tasks))
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = &parallel.PanicError{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		errs[i] = tasks[i]()
	}
	if jobs = min(jobs, len(tasks)); jobs <= 1 {
		for i := range tasks {
			if run(i); errs[i] != nil {
				return errs[i]
			}
		}
		return nil
	}
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < len(tasks); i = int(next.Add(1) - 1) {
			run(i)
		}
	}
	var wg sync.WaitGroup
	for k := 1; k < jobs; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mixTapeStats measures one fused attempt's tape memory.
type mixTapeStats struct {
	window    int // peak live tape events at a round boundary, all domains
	produced  int // chunks the front ends produced
	allocated int // chunk buffers the ring made
	restarts  int // attempts discarded to regenerate short or corrupt entries
}

// mixTapeWindowPeak is the largest window any fused mix attempt in this
// process held: the gauge obs.mix.tape_window_events.
var mixTapeWindowPeak atomic.Int64

func noteMixTapeWindow(n int) {
	for {
		cur := mixTapeWindowPeak.Load()
		if int64(n) <= cur || mixTapeWindowPeak.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// MixTapeWindowPeak returns the peak number of tape events the fused mix
// engine has held live at once in this process, summed over one mix's
// domains and sampled at round boundaries.
func MixTapeWindowPeak() int64 { return mixTapeWindowPeak.Load() }

// RegisterMixMetrics exposes MixTapeWindowPeak on a telemetry registry as
// the lazy gauge obs.mix.tape_window_events. Nil-safe.
func RegisterMixMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("obs.mix.tape_window_events", func() float64 { return float64(mixTapeWindowPeak.Load()) })
}

// runMixFused is RunMixContext's fused path. ok=false means the mix is
// ineligible (its live tape window outgrew the memory budget) and the
// caller should run the per-scheme oracle; it is only returned when no
// sinks are attached or before any lane has run, so falling back never
// duplicates events. Errors from the sentinel conditions above are
// retryable: the recovery (cold regeneration, oracle fallback) engages on
// the next attempt.
func runMixFused(ctx context.Context, mix workload.Mix, opts Options) (*MixResult, mixTapeStats, bool, error) {
	var stats mixTapeStats
	scale := opts.scale()
	if mixScaleOverBudget(scale) {
		return nil, stats, false, nil
	}
	st := FrontEndCache()
	annotated := !opts.DisableAnnotations
	// The L1 geometry every lane uses (scheme-independent, never scaled),
	// and the shadow-array geometry the front ends record masks under.
	geom := sim.Scaled(partition.DefaultScheme(partition.Static), scale)
	rec := mixSimConfig(opts, partition.Untangle, scale).MonitorConfig()

	specs, err := BuildDomains(mix, scale, opts.Secret)
	if err != nil {
		return nil, stats, false, err
	}
	keys := make([]tracecache.Key, len(specs))
	for i := range specs {
		key := mixStreamKey(mix.Pairs[i], i, scale, opts.Secret, annotated, geom.L1Bytes, geom.L1Ways)
		keys[i] = pinMonitorGeometry(key, rec, geom.MonitorConfig())
	}

	// With telemetry sinks attached, a discarded attempt has already
	// emitted into them; recovery then needs fresh sinks, so it is
	// surfaced as a retryable error instead of restarting in place.
	canRestart := opts.TracerFor == nil

	forceCold := make([]bool, len(keys))
	for attempt := 0; ; attempt++ {
		stats = mixTapeStats{restarts: attempt}
		res, retry, ok, err := runMixFusedOnce(ctx, mix, opts, keys, forceCold, st, specs, scale, &stats)
		if err != nil || !ok || !retry {
			return res, stats, ok, err
		}
		// retry: rejected entries were removed and their domains forced
		// cold; rebuild the consumed front-end streams and go again.
		if !canRestart {
			return nil, stats, true, errMixEntryRejected
		}
		if attempt >= mixFusionMaxRestarts {
			return nil, stats, true, fmt.Errorf("experiments: mix %d fused replay did not converge after %d regenerations", mix.ID, attempt)
		}
		if specs, err = BuildDomains(mix, scale, opts.Secret); err != nil {
			return nil, stats, false, err
		}
	}
}

// runMixFusedOnce runs one fused attempt. retry=true asks the caller to
// regenerate (rejected entries already removed, forceCold updated);
// ok=false routes to the oracle.
func runMixFusedOnce(ctx context.Context, mix workload.Mix, opts Options, keys []tracecache.Key, forceCold []bool, st *tracecache.Store, specs []sim.DomainSpec, scale float64, stats *mixTapeStats) (*MixResult, bool, bool, error) {
	// One front end serves every lane, so it resolves under a dynamic
	// scheme's configuration: the L1 geometry, annotation switch, and
	// monitor gate and recorder are scheme-independent (sim.Scaled varies
	// only SchemeConfig across kinds), and static lanes ignore
	// FlagMonObserve. Telemetry belongs to the lanes.
	feOpts := opts
	feOpts.TracerFor = nil
	feCfg := mixSimConfig(feOpts, partition.Untangle, scale)
	ring := &mixRing{}
	tapes := make([]*mixTape, 0, len(keys))
	defer func() {
		for _, t := range tapes {
			t.close()
		}
	}()
	for i := range keys {
		t := &mixTape{ring: ring, measured: -1, ctx: ctx}
		tapes = append(tapes, t)
		r, err := openMixEntry(st, keys[i], forceCold[i])
		if err != nil {
			return nil, false, false, err
		}
		if r != nil {
			t.r, t.buf = r, make([]feEvent, laneChunk)
			continue
		}
		t.cold = true
		if t.fe, err = sim.NewFrontEnd(feCfg, i); err != nil {
			return nil, false, false, err
		}
		t.stream = isa.NewChunks(specs[i].Stream, laneChunk)
		t.pressure = isa.NewChunks(specs[i].Pressure, laneChunk)
		if st != nil {
			if t.w, err = st.CreateRich(keys[i]); err != nil {
				return nil, false, false, err
			}
		}
	}

	kinds := opts.kinds()
	lanes := make([]*mixLane, len(kinds))
	for i, kind := range kinds {
		l := &mixLane{mixID: mix.ID, kind: kind, srcs: make([]*mixSource, len(tapes))}
		laneSpecs := make([]sim.DomainSpec, len(specs))
		for d := range specs {
			l.srcs[d] = &mixSource{t: tapes[d], measured: -1}
			laneSpecs[d] = sim.DomainSpec{
				Name:   specs[d].Name,
				Replay: l.srcs[d],
				CPU:    specs[d].CPU,
			}
		}
		s, err := sim.New(mixSimConfig(opts, kind, scale), laneSpecs)
		if err != nil {
			return nil, false, false, fmt.Errorf("mix %d, %v: %w", mix.ID, kind, err)
		}
		l.sim = s
		lanes[i] = l
	}

	// Rounds: every live lane steps to the same simulated time, then the
	// chunks all of them have passed go back to the ring. A failed front
	// end or a drained warm tail spoils the attempt; stop stepping then.
	jobs := parallel.Jobs(opts.Jobs)
	live := slices.Clone(lanes)
	next := make([]int, len(tapes))
	tasks := make([]func() error, 0, 1+len(lanes))
	for len(live) > 0 && !mixAttemptSpoiled(tapes, lanes) {
		for d := range tapes {
			next[d] = 0
			for _, l := range live {
				next[d] = max(next[d], l.srcs[d].next)
			}
		}
		tasks = append(tasks[:0], func() error {
			for d, t := range tapes {
				t.lookAhead(next[d])
			}
			return nil
		})
		for _, l := range live {
			tasks = append(tasks, l.step)
		}
		if err := runRound(tasks, jobs); err != nil {
			return nil, false, false, err
		}
		live = slices.DeleteFunc(live, func(l *mixLane) bool { return l.res != nil })
		window := 0
		for _, t := range tapes {
			window += t.live
		}
		if window > stats.window {
			stats.window = window
			noteMixTapeWindow(window)
		}
		if window > mixReplayEventBudget {
			noteMixOverBudget(scale)
			if opts.TracerFor == nil {
				return nil, false, false, nil // oracle, silently
			}
			return nil, false, false, errMixOverBudget // retry lands on the oracle via the scale note
		}
		for d, t := range tapes {
			keep := t.end()
			for _, l := range live {
				keep = min(keep, l.srcs[d].next-1)
			}
			t.release(keep)
		}
	}

	// Past the lanes: drain the warm readers, extend the cold tails to
	// what the hungriest lane consumed plus slack so same-options warm
	// runs never underrun. A failed front end poisons every lane that fed
	// from it; surface the cause, unless it is a corrupt entry the store
	// may rebuild. An underrun lane idled out on a short cached pressure
	// tail: its timing no longer matches the oracle.
	retry := false
	for d, t := range tapes {
		if t.err == nil && !mixAttemptSpoiled(tapes, lanes) {
			consumed := 0
			for _, l := range lanes {
				consumed = max(consumed, l.srcs[d].pos)
			}
			t.finish(consumed + consumed/8 + laneChunk)
		}
		switch {
		case t.err == nil:
			for _, l := range lanes {
				if l.srcs[d].underrun {
					retry = true
					forceCold[d] = true
				}
			}
		case !t.cold && errors.Is(t.err, tracecache.ErrCorrupt) && st.RebuildEnabled():
			st.NoteRebuild()
			retry = true
			forceCold[d] = true
		default:
			return nil, false, false, t.err
		}
	}
	if retry {
		for d, t := range tapes {
			t.close()
			if forceCold[d] && !t.cold {
				unlock := st.Lock(keys[d])
				os.Remove(st.EntryPath(keys[d]))
				unlock()
			}
		}
		return nil, true, true, nil
	}
	for d, t := range tapes {
		stats.produced += t.produced
		if t.w != nil {
			unlock := st.Lock(keys[d])
			err := t.w.Commit()
			unlock()
			if err != nil {
				return nil, false, false, err
			}
		}
	}
	stats.allocated = ring.allocated
	res := &MixResult{Mix: mix, Scale: scale, PerScheme: map[partition.Kind]*sim.Result{}}
	for _, l := range lanes {
		res.PerScheme[l.kind] = l.res
	}
	return res, false, true, nil
}

// mixAttemptSpoiled reports whether a tape has failed or a lane has
// drained a warm tape: the attempt's results will be discarded.
func mixAttemptSpoiled(tapes []*mixTape, lanes []*mixLane) bool {
	for d, t := range tapes {
		if t.err != nil {
			return true
		}
		for _, l := range lanes {
			if l.srcs[d].underrun {
				return true
			}
		}
	}
	return false
}

// openMixEntry opens a domain's cached entry for a warm tape. It returns
// nil on a miss, when forceCold, or for an entry the store may rebuild:
// the caller generates.
func openMixEntry(st *tracecache.Store, key tracecache.Key, forceCold bool) (*tracecache.Reader, error) {
	if st == nil || forceCold {
		return nil, nil
	}
	unlock := st.Lock(key)
	defer unlock()
	r, err := st.Open(key)
	if err != nil || r == nil {
		return nil, err
	}
	if !r.Rich() {
		r.Close()
		if st.RebuildEnabled() {
			st.NoteRebuild()
			return nil, nil
		}
		return nil, fmt.Errorf("%w: %s is not a rich mix entry (key %s) — delete it or rerun with -fe-cache-rebuild",
			tracecache.ErrKeyMismatch, st.EntryPath(key), key)
	}
	return r, nil
}

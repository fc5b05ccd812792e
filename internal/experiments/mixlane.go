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
// Unlike the sensitivity engine's lean lanes, which fold outcome bits from
// one shadow-set probe per L1 miss, a mix lane is a full sim.Sim fed
// through its only input seam, sim.ReplaySource (DomainSpec.Replay). The
// per-scheme oracle (runMixOracle) feeds the same simulator through the
// live source sim.New builds over the same sim.FrontEnd, so the two paths
// share the gates and the per-domain loop by construction;
// TestMixFusionMatchesOracle still requires IPCs, leakage, Table 6 rows,
// and telemetry buffers to match exactly, cold and fe-cache-warm, inline
// and concurrent, which pins the tape's chunking, the pressure-tail
// bookkeeping and the warm decode.
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
// therefore adds to the entry's key (pinMonitorGeometry).
//
// Each distinct key has one front end per process. A cold stream is a
// mixStream registered under its key while mixes consume it: a mix that
// opens a key another mix is generating attaches, reads what is written
// through its own follower of the staged entry, and generates the next
// batch itself when it reaches the head. The last consumer out extends
// the tail to the hungriest consumer's need and commits, and a commit
// never replaces a longer tail (tracecache.Writer.CommitLonger).
//
// A warm tape has one way to recover: it continues cold in place
// (mixTape.resume) — it regenerates the events already served into a
// fresh entry and produces on. It does so when its entry runs out while a
// lane still wants events (the pressure tail is the one stored quantity
// whose needed length depends on the scheme mix), and, under the store's
// rebuild policy, when its reader finds a run of the entry corrupt. A
// reader verifies each run before it serves any event of it, so every
// event the lanes have taken is sound and no mix is ever restarted;
// without rebuild a corrupt entry fails the mix. Nor is a warm entry read
// past what the lanes take: there is no end-of-entry check left to reach.
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

// errMixOverBudget is the one condition the fused engine cannot resolve in
// place once a lane has emitted into telemetry sinks: the mix belongs on
// the oracle. Without sinks the engine falls back silently; with them it
// surfaces this retryable error, and a retry with fresh sinks
// (parallel.RetryUnit in cmd/experiments' runMixUnit) lands on the oracle
// through the scale note.
var errMixOverBudget = errors.New("experiments: fused mix tape window exceeds the replay memory budget")

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

// mixOrigin is what a domain's tape needs to generate its stream: the
// front end's configuration and domain slot, the domain's streams (not
// consumed until a tape generates from them), and the fe-cache store
// (nil without one) and key.
type mixOrigin struct {
	st   *tracecache.Store
	key  tracecache.Key
	idx  int
	cfg  sim.Config
	spec sim.DomainSpec
}

// mixStream is one domain stream being generated: the front end over the
// measured and the endless pressure op stream, and the fe-cache entry the
// events go to. The tapes that read it are its consumers. A consumer
// behind the written head reads through its own follower of the entry
// (tracecache.Writer.Follow); a consumer at the head generates the next
// batch itself, under mu, and the others read it from the entry. No
// consumer waits for another to produce, so two mixes that each follow a
// stream the other produces cannot deadlock. With a store the stream is
// registered under its key (mixStreams) while it has consumers: the first
// mix that misses on the key starts it, and mixes that open the key
// meanwhile attach instead of generating again. The last consumer to
// detach extends the pressure tail to the hungriest consumer's need and
// commits the entry.
type mixStream struct {
	o *mixOrigin

	mu       sync.Mutex
	fe       *sim.FrontEnd
	stream   *isa.Chunks // nil once the measured stream has drained
	pressure *isa.Chunks
	ops      []isa.Op // the last batch's ops not yet resolved
	w        *tracecache.Writer
	count    int // events written, the marker included
	events   int // events generated: count less the marker
	mark     int // the marker's index, -1 until the measured stream ends
	err      error

	// Guarded by mixStreamsMu.
	consumers int
	need      int // events the hungriest detached consumer wants
}

// mixStreamID names a registered stream: a key within one store.
type mixStreamID struct {
	st  *tracecache.Store
	key tracecache.Key
}

// mixStreams is the process's registry of live streams. Its lock is held
// across an opening tape's look-up, entry open and registration, and
// across the last consumer's commit, so each key has at most one stream
// and a key is never missed while its stream is live. Lock order: a
// tape's mu, then mixStreamsMu, then a stream's mu.
var (
	mixStreamsMu sync.Mutex
	mixStreams   = map[mixStreamID]*mixStream{}
)

// errMixStreamAbandoned fails a stream whose producer panicked mid-batch.
var errMixStreamAbandoned = errors.New("experiments: mix stream producer failed mid-batch")

// newMixStream starts a stream from the origin's unconsumed domain streams.
func newMixStream(o *mixOrigin) (*mixStream, error) {
	fe, err := sim.NewFrontEnd(o.cfg, o.idx)
	if err != nil {
		return nil, err
	}
	s := &mixStream{
		o:        o,
		fe:       fe,
		stream:   isa.NewChunks(o.spec.Stream, laneChunk),
		pressure: isa.NewChunks(o.spec.Pressure, laneChunk),
		mark:     -1,
	}
	if o.st != nil {
		if s.w, err = o.st.CreateRich(o.key); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// next generates the stream's next batch of at most limit events into a
// chunk from ring and writes it to the entry, then the marker if the
// measured stream has just ended (marked). Op batches come from
// isa.Chunks as they always have and are packed into whole chunks, so
// only the measured stream's last chunk is short; the chunk is nil when
// the measured stream ended on a chunk boundary. The caller holds mu. A
// failure, or a panicking front end, fails the stream for every consumer.
func (s *mixStream) next(ring *mixRing, limit int) (c []feEvent, marked bool, err error) {
	s.err = errMixStreamAbandoned
	c, marked, err = s.generate(ring, limit)
	s.err = err
	return c, marked, err
}

func (s *mixStream) generate(ring *mixRing, limit int) ([]feEvent, bool, error) {
	var c []feEvent
	n := 0
	for c == nil || n < len(c) {
		if len(s.ops) == 0 {
			if s.stream != nil {
				if s.ops = s.stream.Next(); len(s.ops) == 0 {
					s.stream = nil
					break
				}
			} else if s.ops = s.pressure.Next(); len(s.ops) == 0 {
				if c != nil {
					ring.put(c)
				}
				return nil, false, errors.New("experiments: mix pressure stream dried")
			}
		}
		if c == nil {
			c = ring.get()[:limit]
		}
		k := min(len(s.ops), len(c)-n)
		s.fe.Resolve(s.ops[:k], c[n:])
		s.ops = s.ops[k:]
		n += k
	}
	if n > 0 {
		c = c[:n]
		if s.w != nil {
			if err := s.w.WriteEvents(c); err != nil {
				return nil, false, err
			}
		}
		s.count += n
		s.events += n
	}
	if s.stream != nil || s.mark >= 0 {
		return c, false, nil
	}
	s.mark = s.count
	s.count++
	if s.w != nil {
		if err := s.w.WriteEvents([]feEvent{{Kind: tracecache.KindMeasuredEnd}}); err != nil {
			return nil, false, err
		}
	}
	return c, true, nil
}

// mixTape is one domain's event tape within one mix: the live chunks from
// the one the trailing lane reads to the newest, numbered absolutely from
// the stream's start. During a round the look-ahead task (lookAhead), or a
// lane whose cursor reaches the end, extends the tape under mu; between
// rounds the engine releases the chunks behind every live lane. The
// measured stream ends at a chunk boundary: chunk measured is the pressure
// tail's first.
//
// A tape extends itself from one of two producers. A warm tape reads a
// committed fe-cache entry. Every other tape consumes a mixStream, whose
// front end this or another mix runs; a warm tape whose entry runs out
// while a lane still wants events, or turns out corrupt under the store's
// rebuild policy, turns into one (resume).
type mixTape struct {
	ring     *mixRing
	mu       sync.Mutex
	chunks   [][]feEvent // chunks[0] is chunk number first
	first    int
	live     int // events in chunks
	produced int // chunks published, pressure-tail extension included
	measured int // -1 until the measured stream has ended
	done     bool
	err      error

	ctx context.Context
	o   *mixOrigin
	// pos counts the stream's events the tape has passed, the marker
	// included; markAt is the marker's index as the tape saw it, which a
	// continued tape compares with its stream's (inherited).
	pos       int
	markAt    int
	inherited bool
	continued bool
	attached  bool // joined a stream another mix started

	// A warm tape's producer: the entry's reader and its batch buffer,
	// which a consumer's follower reads into too.
	r   *tracecache.Reader
	buf []feEvent
	// A consumer's stream and its follower of the stream's entry: fpos is
	// the follower's index, and seek the point after the tape's last
	// generated batch, where the follower resumes (reseek).
	s      *mixStream
	fr     *tracecache.Reader
	fpos   int
	seek   tracecache.Pos
	reseek bool
}

func (t *mixTape) end() int { return t.first + len(t.chunks) }

// open starts the tape on its key: a live stream of the key if there is
// one, else the committed entry, else a new stream.
func (t *mixTape) open() error {
	o := t.o
	if o.st == nil {
		s, err := newMixStream(o)
		if err != nil {
			return err
		}
		t.join(s)
		return nil
	}
	mixStreamsMu.Lock()
	defer mixStreamsMu.Unlock()
	if s := mixStreams[mixStreamID{o.st, o.key}]; s != nil {
		t.attach(s)
		return nil
	}
	r, err := openMixEntry(o.st, o.key)
	if err != nil {
		return err
	}
	if r != nil {
		t.r, t.buf = r, make([]feEvent, laneChunk)
		return nil
	}
	return t.startStream()
}

// startStream registers a new stream of the tape's key and joins it. The
// caller holds mixStreamsMu.
func (t *mixTape) startStream() error {
	s, err := newMixStream(t.o)
	if err != nil {
		return err
	}
	mixStreams[mixStreamID{t.o.st, t.o.key}] = s
	t.join(s)
	return nil
}

// join makes the tape a consumer of s. The caller holds mixStreamsMu, or s
// is unregistered.
func (t *mixTape) join(s *mixStream) {
	s.consumers++
	t.s = s
}

// attach joins a stream another mix started. The caller holds
// mixStreamsMu.
func (t *mixTape) attach(s *mixStream) {
	t.join(s)
	t.attached = true
	mixAttached.Add(1)
}

// resume continues a warm tape cold from where its entry stopped serving:
// the entry's end, once a lane still wants events, or a run that failed
// its CRC (read). Every event the entry served was verified. The tape now
// consumes its key's stream — a live stream it attaches to, else one it
// starts from the domain's unconsumed streams and regenerates up to the
// tape's position (the events already served, re-encoded into a fresh
// entry, whose marker must fall where the old entry's did, if the tape
// saw it). Only a lane's demand runs a tape past its entry's end, so a
// warm run with the options that wrote its entries never continues. The
// caller holds mu; false means the tape cannot produce again.
func (t *mixTape) resume() bool {
	if t.r == nil || t.err != nil {
		return false
	}
	t.r.Close()
	t.r = nil
	var err error
	mixStreamsMu.Lock()
	if s := mixStreams[mixStreamID{t.o.st, t.o.key}]; s != nil {
		t.attach(s)
	} else {
		err = t.startStream()
	}
	mixStreamsMu.Unlock()
	if err != nil {
		t.err = err
		return false
	}
	t.done, t.continued, t.inherited = false, true, t.markAt >= 0
	mixContinued.Add(1)
	return true
}

// detach ends the tape's use of its stream, recording need, the events its
// lanes want the pressure tail to hold (0 for a mix that failed). The last
// consumer out extends the tail to the hungriest need and commits the
// entry, keeping a longer one already committed; a stream that failed, or
// that no consumer finished with, is discarded.
func (t *mixTape) detach(need int) error {
	s := t.s
	if s == nil {
		return nil
	}
	t.s = nil
	if t.fr != nil {
		t.fr.Close()
		t.fr = nil
	}
	mixStreamsMu.Lock()
	defer mixStreamsMu.Unlock()
	s.consumers--
	s.need = max(s.need, need)
	if s.consumers > 0 || s.w == nil {
		return nil // a stream without a store has one consumer and no entry
	}
	delete(mixStreams, mixStreamID{s.o.st, s.o.key})
	defer s.w.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil || s.mark < 0 || s.need == 0 {
		return nil
	}
	for s.events < s.need {
		if err := engineCheckpoint(t.ctx); err != nil {
			return err
		}
		c, _, err := s.next(t.ring, laneChunk)
		if err != nil {
			return err
		}
		t.produced++
		t.ring.put(c)
	}
	unlock := s.o.st.Lock(s.o.key)
	defer unlock()
	_, err := s.w.CommitLonger()
	return err
}

// produce extends the tape by one batch. The caller holds mu (a deferred
// unlock, so that a panicking front end cannot stall the other workers of
// its round), or the lanes are stopped. A failure seals the tape: every
// lane's source then sees it drained, and the engine surfaces t.err.
func (t *mixTape) produce() {
	err := engineCheckpoint(t.ctx)
	if err == nil {
		if t.r != nil {
			err = t.read()
		} else {
			err = t.follow()
		}
	}
	if err != nil {
		t.err, t.done = err, true
	}
}

// read decodes the next batch of a warm entry into the tape's read buffer
// and publishes a copy. A corrupt run the store may rebuild removes the
// entry, so that the regenerated one replaces it, and resumes the tape
// cold after the verified events before the run. The per-batch checkpoint
// in produce keeps the warm path's cancellation and fault cadence aligned
// with the cold path's.
func (t *mixTape) read() error {
	n, err := t.r.Read(t.buf)
	if terr := t.take(t.buf[:n], t.pos); terr != nil {
		return terr
	}
	t.pos += n
	switch {
	case errors.Is(err, io.EOF):
		t.done = true
		if t.measured < 0 {
			return fmt.Errorf("%w: no measured-end marker", tracecache.ErrCorrupt)
		}
		return nil
	case errors.Is(err, tracecache.ErrCorrupt) && t.o.st.RebuildEnabled():
		st, key := t.o.st, t.o.key
		mixStreamsMu.Lock() // the lock order of open
		unlock := st.Lock(key)
		err = os.Remove(st.EntryPath(key))
		unlock()
		mixStreamsMu.Unlock()
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		st.NoteRebuild()
		if !t.resume() {
			return t.err
		}
		return nil
	}
	return err
}

// follow extends a consumer's tape from its stream: through the follower
// while the tape is behind the written head, else by generating the next
// batch.
func (t *mixTape) follow() error {
	s := t.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	var err error
	if t.pos < s.count {
		err = t.readStream()
	} else {
		err = t.generate()
	}
	if err == nil {
		err = t.checkMark()
	}
	return err
}

// generate produces the stream's next batch. A tape ahead of the head —
// a continued tape, which has served more of the stream than the stream
// has written — generates up to its position and publishes nothing.
func (t *mixTape) generate() error {
	s := t.s
	limit, ahead := laneChunk, t.pos > s.count
	if ahead {
		limit = min(limit, t.pos-s.count)
	}
	c, marked, err := s.next(t.ring, limit)
	if err != nil {
		return err
	}
	if s.w != nil {
		t.seek, t.reseek = s.w.Pos(), true
	}
	if ahead {
		if c != nil {
			t.ring.put(c)
		}
		return nil
	}
	if c != nil {
		t.publish(c)
	}
	t.pos = s.count
	if marked {
		t.markAt = s.mark
		return t.markMeasured()
	}
	return nil
}

// readStream reads the next batch the stream has written through the
// tape's follower, which resumes after the tape's last generated batch. A
// follower behind the tape's position — one that attached past the
// stream's start — skips to it.
func (t *mixTape) readStream() error {
	s := t.s
	if t.fr == nil || t.reseek {
		if t.fr == nil {
			fr, err := s.w.Follow(t.seek)
			if err != nil {
				return err
			}
			t.fr = fr
			if t.buf == nil {
				t.buf = make([]feEvent, laneChunk)
			}
		} else {
			t.fr.Seek(t.seek)
		}
		t.fpos, t.reseek = int(t.seek.Events), false
	}
	skip := t.fpos < t.pos
	hi := s.count
	if skip {
		hi = min(hi, t.pos)
	}
	want := min(laneChunk, hi-t.fpos)
	n, err := t.fr.Read(t.buf[:want])
	if err == nil && n < want {
		err = fmt.Errorf("experiments: %s: follower read %d of %d written events", s.o.key.Benchmark, n, want)
	}
	if err != nil {
		return err
	}
	base := t.fpos
	t.fpos += n
	if skip {
		return nil
	}
	t.pos += n
	return t.take(t.buf[:n], base)
}

// checkMark compares a continued tape's marker, read from its entry, with
// the stream's once the stream has passed it: a stream whose measured part
// ends elsewhere is not the one the entry recorded.
func (t *mixTape) checkMark() error {
	s := t.s
	if !t.inherited || (s.mark < 0 && s.count <= t.markAt) {
		return nil
	}
	t.inherited = false
	if s.mark != t.markAt {
		return fmt.Errorf("%w: %s: regenerated measured stream ends at event %d, the entry's at %d",
			tracecache.ErrCorrupt, s.o.key.Benchmark, s.mark, t.markAt)
	}
	return nil
}

// take publishes decoded events, split at the measured-end marker; base is
// the first one's index in the stream.
func (t *mixTape) take(seg []feEvent, base int) error {
	if m := slices.IndexFunc(seg, isMeasuredEnd); m >= 0 {
		t.publishCopy(seg[:m])
		t.markAt = base + m
		if err := t.markMeasured(); err != nil {
			return err
		}
		seg = seg[m+1:]
		if slices.IndexFunc(seg, isMeasuredEnd) >= 0 {
			return fmt.Errorf("%w: second measured-end marker", tracecache.ErrCorrupt)
		}
	}
	t.publishCopy(seg)
	return nil
}

// publishCopy appends a copy of decoded events as one chunk. Chunks are
// taken from the ring only for events, so the buffers a mix makes do not
// depend on how concurrent lanes interleave.
func (t *mixTape) publishCopy(seg []feEvent) {
	if len(seg) == 0 {
		return
	}
	c := t.ring.get()[:len(seg)]
	copy(c, seg)
	t.publish(c)
}

func isMeasuredEnd(ev feEvent) bool { return ev.Kind == tracecache.KindMeasuredEnd }

// markMeasured ends the tape's measured stream at the next chunk boundary.
func (t *mixTape) markMeasured() error {
	if t.measured >= 0 {
		return fmt.Errorf("%w: second measured-end marker", tracecache.ErrCorrupt)
	}
	t.measured = t.end()
	return nil
}

// publish appends a chunk to the tape.
func (t *mixTape) publish(c []feEvent) {
	t.chunks = append(t.chunks, c)
	t.live += len(c)
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

// close releases the tape's reader and leaves its stream.
func (t *mixTape) close() {
	if t.r != nil {
		t.r.Close()
		t.r = nil
	}
	t.detach(0)
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
}

// NextEvents implements sim.ReplaySource: the measured stream's chunks,
// one empty batch at its end (the driver's finish signal), then pressure
// chunks. Only a failed tape runs dry; the lane then idles out, and the
// engine surfaces the tape's error.
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
			return nil
		}
	}
}

// refresh re-snapshots the tape, extending it first while the cursor is at
// its end — continuing a drained warm tape cold if need be. False means
// nothing more will come.
func (s *mixSource) refresh() bool {
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	for s.next == t.end() && (s.sentEnd || s.next != t.measured) && (!t.done || t.resume()) {
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

// mixTapeStats measures one fused mix's tape memory and its recovery work.
type mixTapeStats struct {
	window    int // peak live tape events at a round boundary, all domains
	produced  int // chunks published, pressure-tail extension included
	allocated int // chunk buffers the ring made
	continued int // warm tapes that went on cold: entry ran out or corrupt
	attached  int // tapes that joined a stream another mix started
}

// Process-wide counts of the fused engine's recovery work: warm tapes
// continued cold past their entry's end or a corrupt run of it, and tapes
// that attached to a stream another mix was generating.
var mixContinued, mixAttached atomic.Int64

// mixTapeWindowPeak is the largest window any fused mix in this
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

// RegisterMixMetrics exposes MixTapeWindowPeak and the recovery counts on
// a telemetry registry as the lazy gauges obs.mix.tape_window_events,
// obs.mix.continued and obs.mix.attached. Nil-safe.
func RegisterMixMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("obs.mix.tape_window_events", func() float64 { return float64(mixTapeWindowPeak.Load()) })
	reg.GaugeFunc("obs.mix.continued", func() float64 { return float64(mixContinued.Load()) })
	reg.GaugeFunc("obs.mix.attached", func() float64 { return float64(mixAttached.Load()) })
}

// runMixFused is RunMixContext's fused path. ok=false means the mix is
// ineligible (its live tape window outgrew the memory budget) and the
// caller should run the per-scheme oracle; it is only returned when no
// sinks are attached or before any lane has run, so falling back never
// duplicates events. With sinks, the over-budget condition surfaces as the
// retryable errMixOverBudget instead.
func runMixFused(ctx context.Context, mix workload.Mix, opts Options) (*MixResult, mixTapeStats, bool, error) {
	var stats mixTapeStats
	scale := opts.scale()
	if mixScaleOverBudget(scale) {
		return nil, stats, false, nil
	}
	specs, err := BuildDomains(mix, scale, opts.Secret)
	if err != nil {
		return nil, stats, false, err
	}
	st := FrontEndCache()
	annotated := !opts.DisableAnnotations
	// The L1 geometry every lane uses (scheme-independent, never scaled),
	// and the shadow-array geometry the front ends record masks under.
	geom := sim.Scaled(partition.DefaultScheme(partition.Static), scale)
	rec := mixSimConfig(opts, partition.Untangle, scale).MonitorConfig()
	// One front end serves every lane, so it resolves under a dynamic
	// scheme's configuration: the L1 geometry, annotation switch, and
	// monitor gate and recorder are scheme-independent (sim.Scaled varies
	// only SchemeConfig across kinds), and static lanes ignore
	// FlagMonObserve. Telemetry belongs to the lanes.
	feOpts := opts
	feOpts.TracerFor = nil
	feCfg := mixSimConfig(feOpts, partition.Untangle, scale)
	ring := &mixRing{}
	tapes := make([]*mixTape, 0, len(mix.Pairs))
	defer func() {
		for _, t := range tapes {
			t.close()
		}
	}()
	for i, pair := range mix.Pairs {
		key := mixStreamKey(pair, i, scale, opts.Secret, annotated, geom.L1Bytes, geom.L1Ways)
		t := &mixTape{
			ring:     ring,
			measured: -1,
			markAt:   -1,
			ctx:      ctx,
			o:        &mixOrigin{st: st, key: pinMonitorGeometry(key, rec, geom.MonitorConfig()), idx: i, cfg: feCfg, spec: specs[i]},
		}
		tapes = append(tapes, t)
		if err := t.open(); err != nil {
			return nil, stats, false, err
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
			return nil, stats, false, fmt.Errorf("mix %d, %v: %w", mix.ID, kind, err)
		}
		l.sim = s
		lanes[i] = l
	}

	// Rounds: every live lane steps to the same simulated time, then the
	// chunks all of them have passed go back to the ring. A failed tape
	// poisons every lane that fed from it: stop stepping and surface the
	// cause.
	jobs := parallel.Jobs(opts.Jobs)
	live := slices.Clone(lanes)
	next := make([]int, len(tapes))
	tasks := make([]func() error, 0, 1+len(lanes))
	for len(live) > 0 {
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
			return nil, stats, false, err
		}
		for _, t := range tapes {
			if t.err != nil {
				return nil, stats, false, t.err
			}
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
				return nil, stats, false, nil // oracle, silently
			}
			return nil, stats, false, errMixOverBudget // retry lands on the oracle via the scale note
		}
		for d, t := range tapes {
			keep := t.end()
			for _, l := range live {
				keep = min(keep, l.srcs[d].next-1)
			}
			t.release(keep)
		}
	}

	// Leave the streams, asking for a pressure tail of what the hungriest
	// lane consumed plus slack, so same-options warm runs never run out:
	// the last consumer of each stream commits it.
	for d, t := range tapes {
		consumed := 0
		for _, l := range lanes {
			consumed = max(consumed, l.srcs[d].pos)
		}
		if err := t.detach(consumed + consumed/8 + laneChunk); err != nil {
			return nil, stats, false, err
		}
		stats.produced += t.produced
		if t.continued {
			stats.continued++
		}
		if t.attached {
			stats.attached++
		}
	}
	stats.allocated = ring.allocated
	res := &MixResult{Mix: mix, Scale: scale, PerScheme: map[partition.Kind]*sim.Result{}}
	for _, l := range lanes {
		res.PerScheme[l.kind] = l.res
	}
	return res, stats, true, nil
}

// openMixEntry opens a domain's cached entry for a warm tape. It returns
// nil on a miss or for an entry the store may rebuild: the caller
// generates.
func openMixEntry(st *tracecache.Store, key tracecache.Key) (*tracecache.Reader, error) {
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

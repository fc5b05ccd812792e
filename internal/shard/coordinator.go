package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"untangle/internal/campaign"
	"untangle/internal/parallel"
)

// Proc is one spawned worker as the coordinator sees it: a pair of byte
// streams plus lifecycle hooks. cmd wrappers back it with an exec.Cmd and
// OS pipes; the package tests back it with io.Pipe and a goroutine.
type Proc struct {
	// In carries coordinator→worker protocol lines (the worker's stdin).
	In io.WriteCloser
	// Out carries worker→coordinator lines (the worker's stdout).
	Out io.Reader
	// Kill forcibly terminates the worker; must be safe to call twice and
	// after Wait.
	Kill func()
	// Wait blocks until the worker has exited and releases its resources.
	Wait func() error
}

// Spawn starts the worker process for a shard index. Respawns after a death
// reuse the same index, so the replacement opens the same per-shard journal
// and replays whatever its predecessor completed.
type Spawn func(shard int) (*Proc, error)

// Options tunes the coordinator.
type Options struct {
	// Workers is the number of worker processes (shards). Minimum 1.
	Workers int

	// Lease is how long a worker may stay silent (no result, no heartbeat)
	// while it runs a unit before it is declared dead and the unit run
	// again. Zero disables liveness monitoring — death is then detected
	// only by stream EOF.
	Lease time.Duration

	// MaxRespawns bounds replacement workers across the coordinator's
	// lifetime, preventing a crash-looping unit from respawning forever.
	// Default: Workers.
	MaxRespawns int

	// Recover harvests a dead worker's per-shard journal
	// (checkpoint.ReadUnits) so a unit it completed-but-never-streamed is
	// not recomputed. May be nil (the unit in flight is recomputed).
	Recover func(shard int) (map[string]json.RawMessage, error)

	// Logf reports worker lifecycle events (death, recovery, respawn).
	// Default: discard.
	Logf func(format string, args ...any)
}

// Stats counts coordinator lifecycle events, for tests and campaign logs.
type Stats struct {
	Spawned    int // workers started, including replacements
	Died       int // workers declared dead (EOF, stream error, lease expiry)
	Assigned   int // assignment messages sent
	Completed  int // distinct units completed
	Recovered  int // units harvested from dead workers' journals
	Requeued   int // in-flight units run again after a death
	Duplicates int // byte-identical duplicate results discarded
}

// Coordinator executes units on worker processes, one unit per worker at a
// time. It schedules nothing: its caller — the campaign service, whose
// Exec it is, or Run — decides which unit runs when, and Exec only finds an
// idle live worker for it, waits for the result, and recovers from the
// worker's death. Exec and Stats are safe for concurrent use; Broadcast
// belongs between phases, when no unit is in flight, and Shutdown after
// the last Exec.
type Coordinator struct {
	spawn Spawn
	opts  Options

	// free holds the idle shard indices. A slot taken from it is owned by
	// one Exec until released, which is what keeps a worker to one unit.
	free chan int

	mu       sync.Mutex // guards everything below
	workers  []*workerState
	contexts []message // broadcasts, replayed to respawned workers
	respawns int

	// results holds every completed unit, to verify that duplicates
	// (recovery races) are byte-identical.
	results map[string]json.RawMessage
	stats   Stats
}

type workerState struct {
	shard int
	proc  *Proc
	// sendq decouples callers from the worker's stdin: a wedged worker that
	// stops reading must never block Exec (a synchronous send would also
	// stall the lease check that is supposed to detect exactly that
	// worker). A dedicated sender goroutine drains the queue; callers only
	// ever enqueue, and a full queue is treated as worker death.
	sendq chan message
	// events carries the reader goroutine's messages; quit, closed when the
	// worker is buried or shut down, releases a reader blocked on it.
	events chan event
	quit   chan struct{}
	// inflight is the unit assigned and not yet answered; owned by the
	// slot's holder. A unit outlives its Exec only when that Exec's context
	// ended; the next holder waits for it before assigning another.
	inflight string
	dead     bool // guarded by Coordinator.mu
}

// enqueue hands a message to the worker's sender goroutine without ever
// blocking. The queue is sized so it can only fill when the worker has
// stopped draining its stdin for a long time — the caller treats false as
// worker death. Callers check dead (under the coordinator's lock) or own
// the worker's slot, so the queue is never closed under them.
func (w *workerState) enqueue(m message) bool {
	select {
	case w.sendq <- m:
		return true
	default:
		return false
	}
}

// event is one item from a worker's reader goroutine. A nil err carries a
// protocol message; a non-nil err (io.EOF included) means the stream ended.
type event struct {
	msg message
	err error
}

// New spawns the workers and returns a coordinator ready for Broadcast,
// Exec and Run. On error, any workers already spawned are killed.
func New(spawn Spawn, opts Options) (*Coordinator, error) {
	if opts.Workers < 1 {
		return nil, fmt.Errorf("shard: Workers = %d, need at least 1", opts.Workers)
	}
	if opts.MaxRespawns == 0 {
		opts.MaxRespawns = opts.Workers
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	c := &Coordinator{
		spawn:   spawn,
		opts:    opts,
		free:    make(chan int, opts.Workers),
		results: make(map[string]json.RawMessage),
	}
	for i := 0; i < opts.Workers; i++ {
		w, err := c.startWorker(i, nil)
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		c.workers = append(c.workers, w)
		c.free <- i
	}
	return c, nil
}

// startWorker spawns the process for a shard index and replays the
// campaign context broadcast so far to it.
func (c *Coordinator) startWorker(shard int, contexts []message) (*workerState, error) {
	proc, err := c.spawn(shard)
	if err != nil {
		return nil, fmt.Errorf("shard: spawn worker %d: %w", shard, err)
	}
	w := &workerState{
		shard: shard,
		proc:  proc,
		// One assignment + context replays + shutdown all fit with room to
		// spare; see enqueue.
		sendq: make(chan message, len(contexts)+16),
		// A unit's answer plus the heartbeats of an idle stretch; beyond
		// that, heartbeats are dropped (see the reader).
		events: make(chan event, 16),
		quit:   make(chan struct{}),
	}
	c.mu.Lock()
	c.stats.Spawned++
	c.mu.Unlock()
	// Sender: owns the worker's stdin. Exits when the queue is closed
	// (bury/Shutdown) or a write fails, closing stdin on the way out so the
	// worker also sees EOF.
	go func() {
		out := newStream(proc.In)
		for m := range w.sendq {
			if err := out.send(m); err != nil {
				// The reader goroutine will surface the death (its end of
				// the pipes fails too); just drain so enqueuers never
				// block, until the queue is closed.
				for range w.sendq {
				}
				break
			}
		}
		proc.In.Close()
	}()
	// Reader: drains the worker's stdout to EOF, even after quit, so the
	// worker never wedges on a full pipe while finishing its last unit.
	go func() {
		deliver := func(ev event) {
			select {
			case w.events <- ev:
			case <-w.quit:
			}
		}
		sc := reader(proc.Out)
		for sc.Scan() {
			m, err := decode(sc.Bytes())
			switch {
			case err != nil:
				deliver(event{err: err})
				return
			case m.Kind == kindHeartbeat:
				// Advisory: dropped while nobody is waiting on the worker.
				select {
				case w.events <- event{msg: m}:
				default:
				}
			default:
				deliver(event{msg: m})
			}
		}
		err := sc.Err()
		if err == nil {
			err = io.EOF
		}
		deliver(event{err: err})
	}()
	for _, m := range contexts {
		w.sendq <- m // sized to hold them all: never blocks
	}
	return w, nil
}

// Broadcast sends shared campaign state (e.g. the assembled sensitivity
// study) to every live worker and stores it for replay to respawns.
func (c *Coordinator) Broadcast(name string, value json.RawMessage) error {
	m := message{Kind: kindContext, Name: name, Value: value}
	var full []int
	c.mu.Lock()
	c.contexts = append(c.contexts, m)
	for _, w := range c.workers {
		if !w.dead && !w.enqueue(m) {
			full = append(full, w.shard)
		}
	}
	c.mu.Unlock()
	for _, shard := range full {
		// The worker will be declared dead when its next unit sees the
		// stream end or the lease expire; don't fail the campaign.
		c.opts.Logf("shard: broadcast %q to worker %d: queue full", name, shard)
	}
	return nil
}

// Exec runs one unit on an idle live worker and returns its journal value.
// A worker that dies — before or while running the unit — is harvested:
// the unit is returned from its shard journal if it got there, and run
// again on a respawned worker otherwise; once the respawn budget is spent,
// Exec fails. A unit the worker replayed from its own journal (or that was
// harvested from one) reports the "resumed" outcome to the campaign
// service (campaign.ReportOutcome).
func (c *Coordinator) Exec(ctx context.Context, key string) (json.RawMessage, error) {
	var slot int
	select {
	case slot = <-c.free:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { c.free <- slot }()
	for {
		w, err := c.ready(slot)
		if err != nil {
			return nil, err
		}
		var m message
		died := false
		if w.inflight == "" {
			w.inflight = key
			if died = !w.enqueue(message{Kind: kindAssign, Key: key}); died {
				c.opts.Logf("shard: assign %s to worker %d: queue full, declaring dead", key, w.shard)
			} else {
				c.mu.Lock()
				c.stats.Assigned++
				c.mu.Unlock()
			}
		}
		if !died {
			if m, died, err = c.await(ctx, w); err != nil {
				return nil, err // ctx ended; the unit stays in flight on w
			}
		}
		if died {
			unit := w.inflight
			raw, ok, err := c.bury(w)
			if err != nil {
				return nil, err
			}
			if ok && unit == key {
				campaign.ReportOutcome(ctx, "resumed")
				return raw, nil
			}
			continue // respawn and (re)assign key
		}
		w.inflight = ""
		if m.Key != key {
			// A unit a canceled Exec left behind on this worker finished;
			// keep its result for the byte checks, then run ours.
			if m.Kind == kindResult {
				if err := c.accept(m.Key, m.Value, w.shard); err != nil {
					return nil, err
				}
			}
			continue
		}
		if m.Kind == kindError {
			return nil, fmt.Errorf("shard: worker %d unit %s: %s", w.shard, key, m.Error)
		}
		if m.Resumed {
			campaign.ReportOutcome(ctx, "resumed")
		}
		return m.Value, c.accept(key, m.Value, w.shard)
	}
}

// ready returns the slot's live worker, respawning a dead one while the
// budget lasts. A death that happened while the worker sat idle is noticed
// here, before a unit is handed to it.
func (c *Coordinator) ready(slot int) (*workerState, error) {
	c.mu.Lock()
	w := c.workers[slot]
	c.mu.Unlock()
	// Events of an idle stretch are heartbeats, or the worker's death.
	for idle := w.inflight == ""; idle; {
		select {
		case ev := <-w.events:
			if ev.err != nil {
				c.opts.Logf("shard: worker %d exited while idle", w.shard)
				if _, _, err := c.bury(w); err != nil {
					return nil, err
				}
				idle = false
			}
		default:
			idle = false
		}
	}
	c.mu.Lock()
	w = c.workers[slot]
	dead, spent := w.dead, c.respawns >= c.opts.MaxRespawns
	if dead && !spent {
		c.respawns++
	}
	used, contexts := c.respawns, c.contexts
	c.mu.Unlock()
	switch {
	case !dead:
		return w, nil
	case spent:
		return nil, fmt.Errorf("shard: worker %d dead and the respawn budget (%d) exhausted", slot, c.opts.MaxRespawns)
	}
	c.opts.Logf("shard: respawning worker %d (%d/%d respawns used)", slot, used, c.opts.MaxRespawns)
	nw, err := c.startWorker(slot, contexts)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.workers[slot] = nw
	c.mu.Unlock()
	return nw, nil
}

// await waits for the answer to w's unit in flight: a result or a unit
// error (m), the worker's death (died), or the end of ctx (err). Leases
// measure silence from the moment the wait starts.
func (c *Coordinator) await(ctx context.Context, w *workerState) (m message, died bool, err error) {
	var leaseTick <-chan time.Time
	if c.opts.Lease > 0 {
		t := time.NewTicker(c.opts.Lease / 2)
		defer t.Stop()
		leaseTick = t.C
	}
	lastSeen := time.Now()
	for {
		select {
		case <-ctx.Done():
			return message{}, false, ctx.Err()
		case <-leaseTick:
			if silent := time.Since(lastSeen); silent > c.opts.Lease {
				c.opts.Logf("shard: worker %d silent for %s, declaring dead", w.shard, silent.Round(time.Millisecond))
				return message{}, true, nil
			}
		case ev := <-w.events:
			switch {
			case ev.err == io.EOF:
				c.opts.Logf("shard: worker %d exited unexpectedly", w.shard)
				return message{}, true, nil
			case ev.err != nil:
				c.opts.Logf("shard: worker %d stream: %v", w.shard, ev.err)
				return message{}, true, nil
			}
			lastSeen = time.Now()
			switch ev.msg.Kind {
			case kindHeartbeat:
			case kindResult, kindError:
				return ev.msg, false, nil
			default:
				return message{}, false, fmt.Errorf("shard: worker %d sent unexpected %q", w.shard, ev.msg.Kind)
			}
		}
	}
}

// accept records a completed unit, verifying that a duplicate (a unit that
// ran on a presumed-dead worker and again on its replacement) is
// byte-identical — anything else means the campaign is nondeterministic and
// its outputs can't be trusted.
func (c *Coordinator) accept(key string, value json.RawMessage, shard int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.results[key]; ok {
		if !bytes.Equal(prev, value) {
			return fmt.Errorf("shard: unit %s produced different bytes on re-execution (worker %d) — nondeterministic unit or fingerprint drift", key, shard)
		}
		c.stats.Duplicates++
		return nil
	}
	c.results[key] = value
	c.stats.Completed++
	return nil
}

// bury declares w dead, stops its process and harvests its shard journal:
// units it completed and fsynced but never streamed survive its death. It
// reports whether the unit in flight was among them (raw, true); otherwise
// that unit counts as requeued. The slot's next ready respawns the worker.
func (c *Coordinator) bury(w *workerState) (json.RawMessage, bool, error) {
	c.mu.Lock()
	if w.dead { // Shutdown got there first
		c.mu.Unlock()
		return nil, false, nil
	}
	w.dead = true
	close(w.sendq) // release the sender goroutine
	close(w.quit)  // and a reader blocked on events
	c.stats.Died++
	c.mu.Unlock()
	w.proc.Kill()
	w.proc.Wait()

	unit := w.inflight
	w.inflight = ""
	var recovered map[string]json.RawMessage
	if c.opts.Recover != nil {
		var err error
		if recovered, err = c.opts.Recover(w.shard); err != nil {
			return nil, false, fmt.Errorf("shard: recover worker %d journal: %w", w.shard, err)
		}
	}
	// The journal also holds units the worker streamed earlier: verify them
	// against what was collected — a mismatch is the same determinism
	// violation accept guards against.
	c.mu.Lock()
	for key, raw := range recovered {
		if prev, ok := c.results[key]; ok && !bytes.Equal(prev, raw) {
			c.mu.Unlock()
			return nil, false, fmt.Errorf("shard: worker %d journal disagrees with streamed result for %s", w.shard, key)
		}
	}
	raw, ok := recovered[unit]
	switch {
	case unit == "":
	case ok:
		c.stats.Recovered++
	default:
		c.stats.Requeued++
	}
	c.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	c.opts.Logf("shard: worker %d: unit %s recovered from journal", w.shard, unit)
	return raw, true, c.accept(unit, raw, w.shard)
}

// Run executes the given unit keys across the workers and returns every
// key's result; the workers stay alive for further calls. It is a fan-out
// of Workers goroutines over Exec — the campaign service does the same
// with its own pool — and adds no scheduling of its own.
func (c *Coordinator) Run(ctx context.Context, keys []string) (map[string]json.RawMessage, error) {
	vals, err := parallel.Map(ctx, len(keys), c.opts.Workers, func(ctx context.Context, i int) (json.RawMessage, error) {
		return c.Exec(ctx, keys[i])
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]json.RawMessage, len(keys))
	for i, k := range keys {
		out[k] = vals[i]
	}
	return out, nil
}

// Shutdown tells every live worker to exit and waits for them; a worker
// still running a unit finishes it (and journals it) first. Safe after
// partial construction and after worker deaths.
func (c *Coordinator) Shutdown() error {
	var firstErr error
	var live []*workerState
	c.mu.Lock()
	for _, w := range c.workers {
		if w == nil || w.dead {
			continue
		}
		if !w.enqueue(message{Kind: kindShutdown}) && firstErr == nil {
			firstErr = fmt.Errorf("shard: worker %d: shutdown queue full", w.shard)
		}
		// Closing the queue makes the sender flush the shutdown message and
		// then close the worker's stdin — either is enough for a clean exit.
		close(w.sendq)
		close(w.quit)
		w.dead = true
		live = append(live, w)
	}
	c.mu.Unlock()
	for _, w := range live {
		if err := w.proc.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard: worker %d: %w", w.shard, err)
		}
	}
	return firstErr
}

// Stats returns a snapshot of lifecycle counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

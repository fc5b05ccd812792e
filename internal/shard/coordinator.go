package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
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

	// Window caps units in flight per worker. The default 2 keeps every
	// worker's next unit queued behind its current one — enough to hide
	// assignment latency without letting a dying worker strand a long
	// backlog. This is the coordinator's backpressure bound: at most
	// Workers×Window units are outstanding.
	Window int

	// Lease is how long a worker may stay silent (no result, no heartbeat)
	// before it is declared dead and its units reassigned. Zero disables
	// liveness monitoring — death is then detected only by stream EOF.
	Lease time.Duration

	// MaxRespawns bounds replacement workers across the coordinator's
	// lifetime, preventing a crash-looping unit from respawning forever.
	// Default: Workers.
	MaxRespawns int

	// Recover harvests a dead worker's per-shard journal
	// (checkpoint.ReadUnits) so units it completed-but-never-streamed are
	// not recomputed. May be nil (everything in flight is recomputed).
	Recover func(shard int) (map[string]json.RawMessage, error)

	// OnAssign and OnResult observe unit flow (observability spans,
	// progress counting, main-journal recording). Called from the Run
	// goroutine, never concurrently.
	OnAssign func(key string, shard int)
	OnResult func(key string, shard int, value json.RawMessage, resumed bool)

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
	Requeued   int // in-flight units reassigned after a death
	Duplicates int // byte-identical duplicate results discarded
}

// Coordinator partitions unit keys across worker processes and collects
// their results. It is not safe for concurrent use — drive it from one
// goroutine (Broadcast and Run between phases, then Shutdown).
type Coordinator struct {
	spawn Spawn
	opts  Options

	workers  []*workerState
	events   chan event
	contexts []message // broadcasts, replayed to respawned workers
	respawns int

	// results accumulates every completed unit across Run calls, both to
	// return and to verify that duplicates (recovery races) are
	// byte-identical.
	results map[string]json.RawMessage

	mu    sync.Mutex // guards stats (read by Stats from any goroutine)
	stats Stats
}

type workerState struct {
	shard int
	proc  *Proc
	// sendq decouples the coordinator's event loop from the worker's stdin:
	// a wedged worker that stops reading must never block Run (a
	// synchronous send there would also stall the lease ticker that is
	// supposed to detect exactly that worker). A dedicated sender goroutine
	// drains the queue; the coordinator only ever enqueues, and a full
	// queue is treated as worker death.
	sendq    chan message
	inflight []string // FIFO: assigned, no result yet
	lastSeen time.Time
	dead     bool
}

// enqueue hands a message to the worker's sender goroutine without ever
// blocking. The queue is sized so it can only fill when the worker has
// stopped draining its stdin for a long time — the caller treats false as
// worker death. Must not be called after handleDeath closed the queue
// (every call site checks dead first).
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
	w   *workerState
	msg message
	err error
}

// New spawns the workers and returns a coordinator ready for Broadcast and
// Run. On error, any workers already spawned are killed.
func New(spawn Spawn, opts Options) (*Coordinator, error) {
	if opts.Workers < 1 {
		return nil, fmt.Errorf("shard: Workers = %d, need at least 1", opts.Workers)
	}
	if opts.Window <= 0 {
		opts.Window = 2
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
		events:  make(chan event, 256),
		results: make(map[string]json.RawMessage),
	}
	for i := 0; i < opts.Workers; i++ {
		w, err := c.startWorker(i)
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		c.workers = append(c.workers, w)
	}
	return c, nil
}

func (c *Coordinator) startWorker(shard int) (*workerState, error) {
	proc, err := c.spawn(shard)
	if err != nil {
		return nil, fmt.Errorf("shard: spawn worker %d: %w", shard, err)
	}
	w := &workerState{
		shard: shard,
		proc:  proc,
		// Window assignments + context replays + shutdown all fit with
		// room to spare; see enqueue.
		sendq:    make(chan message, c.opts.Window+len(c.contexts)+16),
		lastSeen: time.Now(),
	}
	c.mu.Lock()
	c.stats.Spawned++
	c.mu.Unlock()
	// Sender: owns the worker's stdin. Exits when the queue is closed
	// (handleDeath/Shutdown) or a write fails, closing stdin on the way out
	// so the worker also sees EOF.
	go func() {
		out := newStream(proc.In)
		for m := range w.sendq {
			if err := out.send(m); err != nil {
				// The reader goroutine will surface the death (its end of
				// the pipes fails too); just drain so enqueuers never
				// block, until handleDeath closes the queue.
				for range w.sendq {
				}
				break
			}
		}
		proc.In.Close()
	}()
	go func() {
		sc := reader(proc.Out)
		for sc.Scan() {
			m, err := decode(sc.Bytes())
			if err != nil {
				c.events <- event{w: w, err: err}
				return
			}
			if m.Kind == kindHeartbeat {
				// Heartbeats are advisory and must never stall this
				// reader: between Run calls nothing drains the event
				// channel, and a reader blocked here would stop draining
				// the worker's pipe until the worker itself wedged on a
				// full pipe mid-send. Drop them when the channel is full.
				select {
				case c.events <- event{w: w, msg: m}:
				default:
				}
				continue
			}
			c.events <- event{w: w, msg: m}
		}
		err := sc.Err()
		if err == nil {
			err = io.EOF
		}
		c.events <- event{w: w, err: err}
	}()
	// Replay campaign context so a respawned worker has everything its
	// predecessor was sent. The queue was sized to hold all of it.
	for _, m := range c.contexts {
		if !w.enqueue(m) {
			proc.Kill()
			proc.Wait()
			return nil, fmt.Errorf("shard: replay context to worker %d: queue full", shard)
		}
	}
	return w, nil
}

// Broadcast sends shared campaign state (e.g. the assembled sensitivity
// study) to every live worker and stores it for replay to respawns.
func (c *Coordinator) Broadcast(name string, value json.RawMessage) error {
	m := message{Kind: kindContext, Name: name, Value: value}
	c.contexts = append(c.contexts, m)
	for _, w := range c.workers {
		if w.dead {
			continue
		}
		if !w.enqueue(m) {
			// The worker will be declared dead when Run observes its
			// stream end or lease expiry; don't fail the whole campaign.
			c.opts.Logf("shard: broadcast %q to worker %d: queue full", name, w.shard)
		}
	}
	return nil
}

// Run executes the given unit keys across the workers and returns every
// key's result. Workers stay alive afterwards for further Run calls.
// Results already collected in a previous Run (or recovered from a journal)
// are returned without re-execution.
func (c *Coordinator) Run(ctx context.Context, keys []string) (map[string]json.RawMessage, error) {
	want := make(map[string]bool, len(keys))
	pending := make([]string, 0, len(keys))
	for _, k := range keys {
		want[k] = true
		if _, done := c.results[k]; !done {
			pending = append(pending, k)
		}
	}
	remaining := len(pending)

	// Leases measure silence while the campaign is actively running, so
	// each Run starts every live worker fresh — heartbeats arriving between
	// phases may have been dropped (see the reader goroutine), and that
	// must not read as death.
	for _, w := range c.workers {
		if !w.dead {
			w.lastSeen = time.Now()
		}
	}
	var leaseTick <-chan time.Time
	if c.opts.Lease > 0 {
		t := time.NewTicker(c.opts.Lease / 2)
		defer t.Stop()
		leaseTick = t.C
	}

	for remaining > 0 {
		// Hand out pending units before blocking, each to the least-loaded
		// live worker, so a phase with fewer units than Workers×Window
		// still runs on every worker instead of queueing on the first.
		for len(pending) > 0 {
			w := c.leastLoaded()
			if w == nil {
				break // every live worker's window is full
			}
			key := pending[0]
			if !w.enqueue(message{Kind: kindAssign, Key: key}) {
				c.opts.Logf("shard: assign %s to worker %d: queue full, declaring dead", key, w.shard)
				requeued, err := c.handleDeath(w, want)
				if err != nil {
					return nil, err
				}
				pending = append(pending, requeued...)
				continue
			}
			pending = pending[1:]
			w.inflight = append(w.inflight, key)
			c.mu.Lock()
			c.stats.Assigned++
			c.mu.Unlock()
			if c.opts.OnAssign != nil {
				c.opts.OnAssign(key, w.shard)
			}
		}
		// Recovery during handleDeath may have completed units.
		if remaining = countRemaining(want, c.results); remaining == 0 {
			break
		}
		if err := c.liveOrLost(pending); err != nil {
			return nil, err
		}

		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-leaseTick:
			for _, w := range c.workers {
				if w.dead || time.Since(w.lastSeen) <= c.opts.Lease {
					continue
				}
				c.opts.Logf("shard: worker %d silent for %s, declaring dead", w.shard, time.Since(w.lastSeen).Round(time.Millisecond))
				w.proc.Kill()
				requeued, err := c.handleDeath(w, want)
				if err != nil {
					return nil, err
				}
				pending = append(pending, requeued...)
			}
		case ev := <-c.events:
			w := ev.w
			if w.dead {
				break // stale event from a killed worker's reader
			}
			if ev.err != nil {
				if ev.err != io.EOF {
					c.opts.Logf("shard: worker %d stream: %v", w.shard, ev.err)
				} else {
					c.opts.Logf("shard: worker %d exited unexpectedly", w.shard)
				}
				requeued, err := c.handleDeath(w, want)
				if err != nil {
					return nil, err
				}
				pending = append(pending, requeued...)
				break
			}
			w.lastSeen = time.Now()
			switch ev.msg.Kind {
			case kindHeartbeat:
				// lastSeen update above is the whole point.
			case kindResult:
				w.inflight = removeKey(w.inflight, ev.msg.Key)
				if err := c.accept(ev.msg.Key, ev.msg.Value, w.shard, ev.msg.Resumed); err != nil {
					return nil, err
				}
			case kindError:
				return nil, fmt.Errorf("shard: worker %d unit %s: %s", w.shard, ev.msg.Key, ev.msg.Error)
			default:
				return nil, fmt.Errorf("shard: worker %d sent unexpected %q", w.shard, ev.msg.Kind)
			}
		}
		remaining = countRemaining(want, c.results)
	}

	out := make(map[string]json.RawMessage, len(keys))
	for _, k := range keys {
		out[k] = c.results[k]
	}
	return out, nil
}

// leastLoaded returns the live worker with the fewest units in flight and
// room in its window, the lowest shard index on ties; nil when every live
// worker's window is full.
func (c *Coordinator) leastLoaded() *workerState {
	var best *workerState
	for _, w := range c.workers {
		if w.dead || len(w.inflight) >= c.opts.Window {
			continue
		}
		if best == nil || len(w.inflight) < len(best.inflight) {
			best = w
		}
	}
	return best
}

// liveOrLost fails the campaign when units remain but no worker can run
// them.
func (c *Coordinator) liveOrLost(pending []string) error {
	for _, w := range c.workers {
		if !w.dead {
			return nil
		}
	}
	return fmt.Errorf("shard: all %d workers dead with %d units unassigned (respawn budget %d exhausted)",
		len(c.workers), len(pending), c.opts.MaxRespawns)
}

// accept records a completed unit, verifying that a duplicate (a unit that
// ran on a presumed-dead worker and again on its replacement) is
// byte-identical — anything else means the campaign is nondeterministic and
// its outputs can't be trusted.
func (c *Coordinator) accept(key string, value json.RawMessage, shard int, resumed bool) error {
	if prev, ok := c.results[key]; ok {
		if !bytes.Equal(prev, value) {
			return fmt.Errorf("shard: unit %s produced different bytes on re-execution (worker %d) — nondeterministic unit or fingerprint drift", key, shard)
		}
		c.mu.Lock()
		c.stats.Duplicates++
		c.mu.Unlock()
		return nil
	}
	c.results[key] = value
	c.mu.Lock()
	c.stats.Completed++
	c.mu.Unlock()
	if c.opts.OnResult != nil {
		c.opts.OnResult(key, shard, value, resumed)
	}
	return nil
}

// handleDeath marks w dead, harvests its journal, and requeues what could
// not be recovered. It respawns a replacement on the same shard index if
// the budget allows; the replacement's journal replay makes recovered-here
// units cheap even if they get reassigned to it. Returns the keys to
// requeue.
func (c *Coordinator) handleDeath(w *workerState, want map[string]bool) ([]string, error) {
	if w.dead {
		return nil, nil
	}
	w.dead = true
	close(w.sendq) // release the sender goroutine
	w.proc.Kill()
	w.proc.Wait()
	c.mu.Lock()
	c.stats.Died++
	c.mu.Unlock()

	// Harvest the shard journal: units the worker completed and fsynced
	// but never streamed survive its death.
	var recovered map[string]json.RawMessage
	if c.opts.Recover != nil {
		var err error
		recovered, err = c.opts.Recover(w.shard)
		if err != nil {
			return nil, fmt.Errorf("shard: recover worker %d journal: %w", w.shard, err)
		}
	}
	var requeue []string
	for _, key := range w.inflight {
		if raw, ok := recovered[key]; ok {
			c.mu.Lock()
			c.stats.Recovered++
			c.mu.Unlock()
			c.opts.Logf("shard: worker %d: unit %s recovered from journal", w.shard, key)
			if err := c.accept(key, raw, w.shard, true); err != nil {
				return nil, err
			}
			continue
		}
		c.mu.Lock()
		c.stats.Requeued++
		c.mu.Unlock()
		requeue = append(requeue, key)
	}
	// The journal may also hold units from keys not currently in flight
	// (earlier phases, or streamed results we already have): verify them
	// against what we collected — a mismatch is the same determinism
	// violation accept guards against.
	for key, raw := range recovered {
		if prev, ok := c.results[key]; ok && !bytes.Equal(prev, raw) {
			return nil, fmt.Errorf("shard: worker %d journal disagrees with streamed result for %s", w.shard, key)
		} else if !ok && want[key] {
			c.mu.Lock()
			c.stats.Recovered++
			c.mu.Unlock()
			if err := c.accept(key, raw, w.shard, true); err != nil {
				return nil, err
			}
		}
	}
	w.inflight = nil

	if c.respawns < c.opts.MaxRespawns {
		c.respawns++
		c.opts.Logf("shard: respawning worker %d (%d/%d respawns used)", w.shard, c.respawns, c.opts.MaxRespawns)
		nw, err := c.startWorker(w.shard)
		if err != nil {
			return nil, err
		}
		// Replace in place so shard indices stay stable.
		for i, cur := range c.workers {
			if cur == w {
				c.workers[i] = nw
			}
		}
	}
	return requeue, nil
}

// Shutdown tells every live worker to exit and waits for them. Safe after
// partial construction and after worker deaths.
func (c *Coordinator) Shutdown() error {
	var firstErr error
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
		if err := w.proc.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard: worker %d: %w", w.shard, err)
		}
		w.dead = true
	}
	return firstErr
}

// Stats returns a snapshot of lifecycle counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func removeKey(keys []string, key string) []string {
	for i, k := range keys {
		if k == key {
			return append(keys[:i], keys[i+1:]...)
		}
	}
	return keys
}

func countRemaining(want map[string]bool, results map[string]json.RawMessage) int {
	n := 0
	for k := range want {
		if _, ok := results[k]; !ok {
			n++
		}
	}
	return n
}

package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"untangle/internal/checkpoint"
)

// WorkerConfig wires one worker process (or in-process test harness) to its
// unit executor and its per-shard checkpoint journal.
type WorkerConfig struct {
	// Shard is this worker's index, for log lines.
	Shard int

	// Journal is the worker's own checkpoint file (required). Every
	// completed unit is recorded here *before* its result is streamed back,
	// so a worker that dies between the two leaves the result recoverable,
	// and a re-assigned unit replays from the journal instead of
	// recomputing.
	Journal *checkpoint.Journal

	// Exec runs one unit and returns its journal-encoded value. The worker
	// runs units strictly sequentially — the process count is the
	// parallelism, which keeps each unit's inner execution identical to the
	// sequential campaign's.
	Exec func(ctx context.Context, key string) (json.RawMessage, error)

	// SetContext receives campaign state broadcast by the coordinator
	// before it is needed (e.g. the assembled sensitivity study that mix
	// units consume). May be nil if the campaign has no shared state.
	SetContext func(name string, value json.RawMessage) error

	// HeartbeatEvery is the liveness pulse interval; zero disables the
	// heartbeat goroutine (tests that drive the loop synchronously).
	HeartbeatEvery time.Duration

	// OnBeat, if set, runs after each heartbeat send — the commands use it
	// to also touch the shard journal's on-disk heartbeat sidecar.
	OnBeat func()

	// PostRecord, if set, runs after a unit is journaled but before its
	// result is streamed — the window a crashing worker leaves a
	// journaled-but-unstreamed unit in. Tests inject kills here.
	PostRecord func(key string)
}

// RunWorker consumes assignments from in and streams results to out until
// the coordinator sends shutdown or closes the stream. A unit execution
// error is reported to the coordinator, which decides whether the campaign
// survives; the worker takes the next assignment.
func RunWorker(ctx context.Context, in io.Reader, out io.Writer, cfg WorkerConfig) error {
	if cfg.Exec == nil || cfg.Journal == nil {
		return fmt.Errorf("shard: worker %d needs an Exec and a Journal", cfg.Shard)
	}
	w := newStream(out)

	// Deferred LIFO order matters here: the wait must run after the
	// cancel, or the worker would block on a heartbeat goroutine that was
	// never told to stop.
	var wg sync.WaitGroup
	defer wg.Wait()
	if cfg.HeartbeatEvery > 0 {
		beatCtx, stopBeats := context.WithCancel(ctx)
		defer stopBeats()
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(cfg.HeartbeatEvery)
			defer tick.Stop()
			for {
				select {
				case <-beatCtx.Done():
					return
				case <-tick.C:
					// A send failure means the coordinator is gone; the
					// main loop will see the same on its next send.
					if w.send(message{Kind: kindHeartbeat}) != nil {
						return
					}
					if cfg.OnBeat != nil {
						cfg.OnBeat()
					}
				}
			}
		}()
	}

	sc := reader(in)
	for sc.Scan() {
		if err := ctx.Err(); err != nil {
			return err
		}
		m, err := decode(sc.Bytes())
		if err != nil {
			return err
		}
		switch m.Kind {
		case kindShutdown:
			return nil
		case kindContext:
			if cfg.SetContext == nil {
				return fmt.Errorf("shard: worker %d received context %q but has no SetContext", cfg.Shard, m.Name)
			}
			if err := cfg.SetContext(m.Name, m.Value); err != nil {
				return fmt.Errorf("shard: worker %d context %q: %w", cfg.Shard, m.Name, err)
			}
		case kindAssign:
			if err := w.send(runUnit(ctx, cfg, m.Key)); err != nil {
				return fmt.Errorf("shard: worker %d stream %s: %w", cfg.Shard, m.Key, err)
			}
		default:
			return fmt.Errorf("shard: worker %d received unexpected %q", cfg.Shard, m.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("shard: worker %d read assignments: %w", cfg.Shard, err)
	}
	// Coordinator closed our stdin without a shutdown message — treated the
	// same (it already has every result we streamed).
	return nil
}

// runUnit executes (or replays) one assigned unit and returns the protocol
// message to stream back.
func runUnit(ctx context.Context, cfg WorkerConfig, key string) message {
	var raw json.RawMessage
	ok, err := cfg.Journal.Lookup(key, &raw)
	if err != nil {
		return message{Kind: kindError, Key: key, Error: err.Error()}
	}
	if ok {
		return message{Kind: kindResult, Key: key, Value: raw, Resumed: true}
	}
	value, err := cfg.Exec(ctx, key)
	if err == nil {
		err = cfg.Journal.Record(key, value)
	}
	if err != nil {
		return message{Kind: kindError, Key: key, Error: err.Error()}
	}
	if cfg.PostRecord != nil {
		cfg.PostRecord(key)
	}
	return message{Kind: kindResult, Key: key, Value: value}
}

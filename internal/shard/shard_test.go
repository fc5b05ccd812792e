package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"untangle/internal/campaign"
	"untangle/internal/checkpoint"
)

func testFP() checkpoint.Fingerprint {
	return checkpoint.Fingerprint{Scale: 0.01, Instructions: 1000, Seed: 42,
		Schemes: []string{"a", "b"}, Units: "shard-test", ParamsTag: "tag"}
}

// harness spawns in-process workers over io.Pipe pairs — the same
// RunWorker loop the commands re-exec, without the process boundary.
type harness struct {
	t   *testing.T
	dir string
	fp  checkpoint.Fingerprint

	// exec runs a unit; incarnation counts how many times each shard index
	// has been spawned (1 for the original, 2+ for respawns).
	exec func(ctx context.Context, shard, incarnation int, key string) (json.RawMessage, error)
	// tweak adjusts a worker's config before it starts (kill injection,
	// heartbeat suppression). May be nil.
	tweak func(shard, incarnation int, cfg *WorkerConfig)

	// tap, when set, sees every protocol line the coordinator writes to
	// (toWorker) or reads from a worker. May be nil.
	tap func(shard int, toWorker bool, line []byte)

	mu      sync.Mutex
	spawns  map[int]int
	closers map[[2]int]func() // (shard, incarnation) → sever output stream
}

// lineTap is an io.Writer that hands each complete line to fn.
type lineTap struct {
	buf []byte
	fn  func(line []byte)
}

func (t *lineTap) Write(p []byte) (int, error) {
	t.buf = append(t.buf, p...)
	for {
		i := bytes.IndexByte(t.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		t.fn(t.buf[:i])
		t.buf = t.buf[i+1:]
	}
}

// tapWriter mirrors every write to the protocol stream into a lineTap.
type tapWriter struct {
	io.WriteCloser
	tap *lineTap
}

func (w tapWriter) Write(p []byte) (int, error) {
	w.tap.Write(p)
	return w.WriteCloser.Write(p)
}

func (h *harness) journalPath(shard int) string {
	return filepath.Join(h.dir, fmt.Sprintf("run.ckpt.shard%d", shard))
}

func (h *harness) recover(shard int) (map[string]json.RawMessage, error) {
	return checkpoint.ReadUnits(h.journalPath(shard), h.fp)
}

// kill severs a worker incarnation's result stream, simulating a process
// death from inside the worker: the pending (or next) send fails, the
// worker loop exits, and the coordinator observes a broken stream.
func (h *harness) kill(shard, incarnation int) {
	h.mu.Lock()
	closer := h.closers[[2]int{shard, incarnation}]
	h.mu.Unlock()
	if closer != nil {
		closer()
	}
}

func (h *harness) spawn(shard int) (*Proc, error) {
	h.mu.Lock()
	h.spawns[shard]++
	incarnation := h.spawns[shard]
	h.mu.Unlock()

	j, err := checkpoint.Open(h.journalPath(shard), h.fp)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	inR, inW := io.Pipe()   // coordinator → worker
	outR, outW := io.Pipe() // worker → coordinator
	h.mu.Lock()
	h.closers[[2]int{shard, incarnation}] = func() { outW.CloseWithError(io.ErrClosedPipe) }
	h.mu.Unlock()

	cfg := WorkerConfig{
		Shard:   shard,
		Journal: j,
		Exec: func(ctx context.Context, key string) (json.RawMessage, error) {
			return h.exec(ctx, shard, incarnation, key)
		},
		HeartbeatEvery: 10 * time.Millisecond,
	}
	if h.tweak != nil {
		h.tweak(shard, incarnation, &cfg)
	}

	done := make(chan error, 1)
	go func() {
		err := RunWorker(ctx, inR, outW, cfg)
		j.Close()
		outW.CloseWithError(io.EOF)
		inR.Close()
		done <- err
	}()

	var in io.WriteCloser = inW
	var out io.Reader = outR
	if h.tap != nil {
		in = tapWriter{inW, &lineTap{fn: func(line []byte) { h.tap(shard, true, line) }}}
		out = io.TeeReader(outR, &lineTap{fn: func(line []byte) { h.tap(shard, false, line) }})
	}
	var waitOnce sync.Once
	var waitErr error
	return &Proc{
		In:  in,
		Out: out,
		Kill: func() {
			cancel()
			inR.CloseWithError(io.ErrClosedPipe)
			outW.CloseWithError(io.ErrClosedPipe)
		},
		Wait: func() error {
			waitOnce.Do(func() { waitErr = <-done })
			return waitErr
		},
	}, nil
}

func newHarness(t *testing.T, exec func(ctx context.Context, shard, incarnation int, key string) (json.RawMessage, error)) *harness {
	return &harness{t: t, dir: t.TempDir(), fp: testFP(), exec: exec,
		spawns: map[int]int{}, closers: map[[2]int]func(){}}
}

// valueFor is the deterministic unit function most tests use: the same key
// yields the same bytes no matter which shard or incarnation runs it.
func valueFor(key string) json.RawMessage {
	raw, _ := json.Marshal(map[string]string{"unit": key, "out": strings.ToUpper(key)})
	return raw
}

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("unit/%d", i)
	}
	return out
}

func TestShardedRunDistributesAndMerges(t *testing.T) {
	var execs atomic.Int64
	h := newHarness(t, func(_ context.Context, _, _ int, key string) (json.RawMessage, error) {
		execs.Add(1)
		return valueFor(key), nil
	})
	c, err := New(h.spawn, Options{Workers: 3, Recover: h.recover, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	ks := keys(10)
	results, err := c.Run(context.Background(), ks)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		if string(results[k]) != string(valueFor(k)) {
			t.Errorf("%s: got %s", k, results[k])
		}
	}
	if got := execs.Load(); got != 10 {
		t.Errorf("execs = %d, want 10", got)
	}
	st := c.Stats()
	if st.Completed != 10 || st.Assigned != 10 || st.Spawned != 3 || st.Died != 0 {
		t.Errorf("stats = %+v", st)
	}
	if err := c.Shutdown(); err != nil {
		t.Errorf("shutdown: %v", err)
	}

	// Every unit landed in exactly one shard journal, and the journals
	// merge into a complete picture.
	main, err := checkpoint.Open(filepath.Join(h.dir, "main.ckpt"), h.fp)
	if err != nil {
		t.Fatal(err)
	}
	defer main.Close()
	total := 0
	for shard := 0; shard < 3; shard++ {
		added, err := main.MergeFrom(h.journalPath(shard))
		if err != nil {
			t.Fatal(err)
		}
		total += added
	}
	if total != 10 || main.Len() != 10 {
		t.Errorf("merged %d units into Len %d, want 10", total, main.Len())
	}
}

// A worker killed after journaling a unit but before streaming it: the
// coordinator must harvest the unit from the shard journal (no recompute)
// and keep the campaign going on a respawned worker.
func TestWorkerDeathRecoversJournaledUnit(t *testing.T) {
	const victim = "unit/3"
	var perKey sync.Map
	h := newHarness(t, func(_ context.Context, _, _ int, key string) (json.RawMessage, error) {
		n, _ := perKey.LoadOrStore(key, new(atomic.Int64))
		n.(*atomic.Int64).Add(1)
		return valueFor(key), nil
	})
	var killed atomic.Bool
	h.tweak = func(shard, incarnation int, cfg *WorkerConfig) {
		cfg.PostRecord = func(key string) {
			if key == victim && killed.CompareAndSwap(false, true) {
				h.kill(shard, incarnation)
			}
		}
	}
	c, err := New(h.spawn, Options{Workers: 2, Recover: h.recover, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	ks := keys(8)
	results, err := c.Run(context.Background(), ks)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		if string(results[k]) != string(valueFor(k)) {
			t.Errorf("%s: got %s", k, results[k])
		}
	}
	st := c.Stats()
	if st.Died != 1 {
		t.Errorf("Died = %d, want 1 (stats %+v)", st.Died, st)
	}
	if st.Recovered < 1 {
		t.Errorf("Recovered = %d, want >= 1 (stats %+v)", st.Recovered, st)
	}
	if n, ok := perKey.Load(victim); !ok || n.(*atomic.Int64).Load() != 1 {
		t.Errorf("victim executed %v times, want exactly 1 (journal recovery, not recompute)", n)
	}
}

// The coordinator keeps at most one unit in flight per worker: an
// assignment goes out only after the worker answered the previous one.
// Measured on the wire, from the coordinator's side of the pipes.
func TestOneUnitInFlightPerWorker(t *testing.T) {
	h := newHarness(t, func(_ context.Context, _, _ int, key string) (json.RawMessage, error) {
		time.Sleep(time.Millisecond)
		return valueFor(key), nil
	})
	var mu sync.Mutex
	inflight := map[int]int{}
	maxInflight, assigns := 0, 0
	h.tap = func(shard int, toWorker bool, line []byte) {
		m, err := decode(line)
		if err != nil {
			t.Errorf("shard %d: %v", shard, err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		switch {
		case toWorker && m.Kind == kindAssign:
			assigns++
			if inflight[shard]++; inflight[shard] > maxInflight {
				maxInflight = inflight[shard]
			}
		case !toWorker && (m.Kind == kindResult || m.Kind == kindError):
			inflight[shard]--
		}
	}
	c, err := New(h.spawn, Options{Workers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if _, err := c.Run(context.Background(), keys(20)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if maxInflight != 1 {
		t.Errorf("max units in flight on one worker = %d, want 1", maxInflight)
	}
	if assigns != 20 {
		t.Errorf("assignments = %d, want 20", assigns)
	}
}

// The coordinator is the campaign service's executor: a 2-unit phase on a
// 2-worker service runs on both shards rather than queueing on the first.
func TestServicePhaseSpreadsAcrossShards(t *testing.T) {
	var ranOn sync.Map // key → shard
	h := newHarness(t, func(_ context.Context, shard, _ int, key string) (json.RawMessage, error) {
		ranOn.Store(key, shard)
		return valueFor(key), nil
	})
	c, err := New(h.spawn, Options{Workers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	svc := campaign.New(campaign.Options{Workers: 2})
	defer svc.Drain(context.Background())
	job, err := svc.Submit(campaign.JobSpec{
		ID:      "phase",
		Journal: checkpoint.Memory(h.fp),
		Phases:  []campaign.PhaseSpec{{Name: "ph", Keys: keys(2)}},
		Exec:    c.Exec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	shards := map[int]bool{}
	ranOn.Range(func(_, v any) bool { shards[v.(int)] = true; return true })
	if len(shards) != 2 {
		t.Errorf("2 units on 2 workers ran on shards %v, want both shards", shards)
	}
	if st := job.Status(); st.Done != 2 {
		t.Errorf("job status = %+v", st)
	}
}

// A worker that dies while idle — between phases — is noticed by the next
// Exec before any unit is handed to it: it is respawned and the unit runs
// on the replacement, with nothing requeued.
func TestIdleWorkerDeathDetectedOnNextExec(t *testing.T) {
	h := newHarness(t, func(_ context.Context, _, _ int, key string) (json.RawMessage, error) {
		return valueFor(key), nil
	})
	h.tweak = func(_, _ int, cfg *WorkerConfig) { cfg.HeartbeatEvery = 0 }
	c, err := New(h.spawn, Options{Workers: 1, Recover: h.recover, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	ctx := context.Background()
	if _, err := c.Run(ctx, keys(2)); err != nil {
		t.Fatal(err)
	}

	h.kill(0, 1)
	c.mu.Lock()
	w := c.workers[0]
	c.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for len(w.events) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the idle worker's death never reached the coordinator")
		}
		time.Sleep(time.Millisecond)
	}

	raw, err := c.Exec(ctx, "next-phase/0")
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(valueFor("next-phase/0")) {
		t.Errorf("got %s", raw)
	}
	st := c.Stats()
	if st.Died != 1 || st.Spawned != 2 || st.Requeued != 0 || st.Assigned != 3 {
		t.Errorf("stats = %+v, want one death, one respawn, nothing requeued, 3 assignments", st)
	}
}

// A worker that goes silent (no heartbeat, no results) is declared dead at
// lease expiry and its units finish elsewhere.
func TestLeaseExpiryReassigns(t *testing.T) {
	h := newHarness(t, nil)
	h.exec = func(ctx context.Context, shard, incarnation int, key string) (json.RawMessage, error) {
		if shard == 1 && incarnation == 1 {
			// Wedged: never returns until killed.
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return valueFor(key), nil
	}
	h.tweak = func(shard, incarnation int, cfg *WorkerConfig) {
		if shard == 1 && incarnation == 1 {
			cfg.HeartbeatEvery = 0 // silent as well as wedged
		}
	}
	c, err := New(h.spawn, Options{Workers: 2, Lease: 100 * time.Millisecond, Recover: h.recover, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	ks := keys(6)
	results, err := c.Run(context.Background(), ks)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		if string(results[k]) != string(valueFor(k)) {
			t.Errorf("%s: got %s", k, results[k])
		}
	}
	if st := c.Stats(); st.Died != 1 || st.Requeued == 0 {
		t.Errorf("stats = %+v, want Died 1 and Requeued > 0", st)
	}
}

// Broadcast state must reach workers spawned after the broadcast (respawn
// replay) — mix units need the sensitivity study no matter which
// incarnation runs them.
func TestBroadcastReplaysToRespawnedWorker(t *testing.T) {
	h := newHarness(t, nil)
	var contexts sync.Map // shard*100+incarnation → value
	h.exec = func(ctx context.Context, shard, incarnation int, key string) (json.RawMessage, error) {
		v, ok := contexts.Load(shard*100 + incarnation)
		if !ok {
			return nil, fmt.Errorf("worker %d/%d executing %s without campaign context", shard, incarnation, key)
		}
		raw, _ := json.Marshal(map[string]string{"unit": key, "study": v.(string)})
		return raw, nil
	}
	var killed atomic.Bool
	h.tweak = func(shard, incarnation int, cfg *WorkerConfig) {
		cfg.SetContext = func(name string, value json.RawMessage) error {
			var s string
			if err := json.Unmarshal(value, &s); err != nil {
				return err
			}
			contexts.Store(shard*100+incarnation, s)
			return nil
		}
		if incarnation == 1 {
			cfg.PostRecord = func(key string) {
				if shard == 0 && killed.CompareAndSwap(false, true) {
					h.kill(shard, incarnation)
				}
			}
		}
	}
	c, err := New(h.spawn, Options{Workers: 2, Recover: h.recover, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	study, _ := json.Marshal("figure-11-study")
	if err := c.Broadcast("study", study); err != nil {
		t.Fatal(err)
	}
	ks := keys(8)
	results, err := c.Run(context.Background(), ks)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		var got map[string]string
		if err := json.Unmarshal(results[k], &got); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if got["study"] != "figure-11-study" {
			t.Errorf("%s: study = %q", k, got["study"])
		}
	}
	if st := c.Stats(); st.Died != 1 || st.Spawned != 3 {
		t.Errorf("stats = %+v, want one death and one respawn", st)
	}
}

// Workers replay their own journals: a unit already journaled by a previous
// session is streamed back without re-execution and flagged resumed.
func TestWorkerReplaysOwnJournal(t *testing.T) {
	var execs atomic.Int64
	h := newHarness(t, func(_ context.Context, _, _ int, key string) (json.RawMessage, error) {
		execs.Add(1)
		return valueFor(key), nil
	})
	// Pre-journal three units into shard 0's journal, as a killed previous
	// campaign session would have left them.
	pre, err := checkpoint.Open(h.journalPath(0), h.fp)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"unit/0", "unit/1", "unit/2"} {
		if err := pre.Record(k, json.RawMessage(valueFor(k))); err != nil {
			t.Fatal(err)
		}
	}
	pre.Close()

	c, err := New(h.spawn, Options{Workers: 1, Recover: h.recover, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	// Through the campaign service, the replayed units settle "resumed".
	var mu sync.Mutex
	outcomes := map[string]string{}
	svc := campaign.New(campaign.Options{Workers: 1})
	defer svc.Drain(context.Background())
	main := checkpoint.Memory(h.fp)
	ks := keys(5)
	job, err := svc.Submit(campaign.JobSpec{
		ID:      "replay",
		Journal: main,
		Phases:  []campaign.PhaseSpec{{Name: "ph", Keys: ks}},
		Exec:    c.Exec,
		Observe: func(_, key string) func(string, error) {
			return func(outcome string, _ error) {
				mu.Lock()
				outcomes[key] = outcome
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		var raw json.RawMessage
		if ok, err := main.Lookup(k, &raw); !ok || err != nil || string(raw) != string(valueFor(k)) {
			t.Errorf("%s: got %s (ok %v, err %v)", k, raw, ok, err)
		}
	}
	if got := execs.Load(); got != 2 {
		t.Errorf("execs = %d, want 2 (three replayed)", got)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, k := range []string{"unit/0", "unit/1", "unit/2"} {
		if outcomes[k] != "resumed" {
			t.Errorf("%s settled %q, want resumed", k, outcomes[k])
		}
	}
	for _, k := range []string{"unit/3", "unit/4"} {
		if outcomes[k] != "" {
			t.Errorf("%s settled %q, want generated", k, outcomes[k])
		}
	}
}

// A unit that fails (after the worker's own retries) fails the campaign
// fast, naming the unit.
func TestUnitErrorFailsFast(t *testing.T) {
	h := newHarness(t, func(_ context.Context, _, _ int, key string) (json.RawMessage, error) {
		if key == "unit/2" {
			return nil, fmt.Errorf("engine exploded")
		}
		return valueFor(key), nil
	})
	c, err := New(h.spawn, Options{Workers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	_, err = c.Run(context.Background(), keys(5))
	if err == nil {
		t.Fatal("failing unit did not fail the run")
	}
	if !strings.Contains(err.Error(), "unit/2") || !strings.Contains(err.Error(), "engine exploded") {
		t.Errorf("error does not name unit and cause: %v", err)
	}
}

// Divergent duplicate bytes — a nondeterministic unit — must fail loudly,
// never silently pick a side.
func TestDivergentDuplicateRejected(t *testing.T) {
	c := &Coordinator{results: map[string]json.RawMessage{"mix/1": json.RawMessage(`{"v":1}`)}}
	if err := c.accept("mix/1", json.RawMessage(`{"v":2}`), 0); err == nil {
		t.Fatal("divergent duplicate accepted")
	} else if !strings.Contains(err.Error(), "mix/1") {
		t.Errorf("error does not name the unit: %v", err)
	}
	if err := c.accept("mix/1", json.RawMessage(`{"v":1}`), 0); err != nil {
		t.Errorf("identical duplicate rejected: %v", err)
	}
	if c.Stats().Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1", c.Stats().Duplicates)
	}
}

// Cancelling the campaign context unwinds Run promptly even with a wedged
// worker.
func TestRunHonorsContextCancel(t *testing.T) {
	h := newHarness(t, func(ctx context.Context, _, _ int, key string) (json.RawMessage, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	c, err := New(h.spawn, Options{Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(30 * time.Millisecond); cancel() }()
	if _, err := c.Run(ctx, keys(3)); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Workers are wedged on their own ctx — kill them directly.
	for _, w := range c.workers {
		w.proc.Kill()
		w.proc.Wait()
	}
}

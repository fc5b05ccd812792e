package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"untangle/internal/checkpoint"
	"untangle/internal/parallel"
	"untangle/internal/telemetry"
)

func testJournal(t *testing.T, dir string) *checkpoint.Journal {
	t.Helper()
	j, err := checkpoint.Open(filepath.Join(dir, "svc.ckpt"),
		checkpoint.Fingerprint{Scale: 0.5, Instructions: 1000, Units: "svc", ParamsTag: "tag"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func drainAll(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// okExec journals each key's value as its key string.
func okExec(ctx context.Context, key string) (json.RawMessage, error) {
	return json.Marshal("ran:" + key)
}

func TestServiceRunsPhasesInOrder(t *testing.T) {
	j := testJournal(t, t.TempDir())
	s := New(Options{Workers: 4, QueueDepth: 8})
	defer drainAll(t, s)

	sensKeys := []string{"sens/a", "sens/b", "sens/c"}
	job, err := s.Submit(JobSpec{
		ID:      "c1",
		Journal: j,
		Phases: []PhaseSpec{
			{Name: "sens", Keys: sensKeys},
			{Name: "mix", Keys: []string{"mix/1", "mix/2"}},
		},
		Exec: func(ctx context.Context, key string) (json.RawMessage, error) {
			if strings.HasPrefix(key, "mix/") {
				for _, sk := range sensKeys {
					if !j.Done(sk) {
						return nil, fmt.Errorf("mix unit %s ran before %s was journaled", key, sk)
					}
				}
			}
			return okExec(ctx, key)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := job.Status()
	if st.State != StateCompleted || st.Done != 5 || st.Total != 5 || st.Dead != 0 {
		t.Fatalf("status = %+v", st)
	}
	for _, key := range []string{"sens/a", "sens/b", "sens/c", "mix/1", "mix/2"} {
		var v string
		if ok, err := j.Lookup(key, &v); err != nil || !ok || v != "ran:"+key {
			t.Fatalf("journal %s: ok=%v err=%v v=%q", key, ok, err, v)
		}
	}
	if !strings.Contains(st.Summary, "completed 5/5") {
		t.Errorf("summary = %q", st.Summary)
	}
}

// A unit that exhausts its executor's retries dead-letters with its attempt
// count; the rest of the campaign completes untouched and the job ends
// completed-degraded, not failed.
func TestServicePoisonedUnitDeadLetters(t *testing.T) {
	j := testJournal(t, t.TempDir())
	s := New(Options{Workers: 2})
	defer drainAll(t, s)

	poison := errors.New("disk on fire")
	job, err := s.Submit(JobSpec{
		ID:      "c1",
		Journal: j,
		Phases:  []PhaseSpec{{Name: "mix", Keys: []string{"mix/1", "mix/2", "mix/3"}}},
		Exec: func(ctx context.Context, key string) (json.RawMessage, error) {
			if key == "mix/2" {
				// The executor's own bounded retry, exhausted — the shape
				// experiments.RunSensitivityUnit hands back.
				return nil, parallel.RetryUnit(ctx, key, 3, time.Nanosecond,
					func(context.Context, int) error { return poison })
			}
			return okExec(ctx, key)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatalf("degraded completion must not error: %v", err)
	}
	st := job.Status()
	if st.State != StateCompleted || st.Done != 2 || st.Dead != 1 {
		t.Fatalf("status = %+v", st)
	}
	if len(st.DeadKeys) != 1 || st.DeadKeys[0] != "mix/2" {
		t.Fatalf("dead keys = %v", st.DeadKeys)
	}
	if !strings.Contains(st.Summary, "(1 dead-lettered)") {
		t.Errorf("summary = %q", st.Summary)
	}
	dl, ok := j.Dead("mix/2")
	if !ok || dl.Attempts != 3 || !strings.Contains(dl.Error, "disk on fire") {
		t.Fatalf("dead letter = %+v ok=%v", dl, ok)
	}
	if j.Done("mix/2") {
		t.Error("poisoned unit recorded as done")
	}
}

// A panicking unit is a bug, not a crash: it dead-letters with the stack
// and the service keeps running.
func TestServicePanickingUnitDeadLettersWithStack(t *testing.T) {
	j := testJournal(t, t.TempDir())
	s := New(Options{Workers: 2})
	defer drainAll(t, s)

	job, err := s.Submit(JobSpec{
		ID:      "c1",
		Journal: j,
		Phases:  []PhaseSpec{{Name: "mix", Keys: []string{"mix/1", "mix/2"}}},
		Exec: func(ctx context.Context, key string) (json.RawMessage, error) {
			if key == "mix/1" {
				panic("index out of range in the point")
			}
			return okExec(ctx, key)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	dl, ok := j.Dead("mix/1")
	if !ok {
		t.Fatal("panicking unit not dead-lettered")
	}
	if !strings.Contains(dl.Error, "index out of range") || dl.Stack == "" {
		t.Fatalf("dead letter = %+v", dl)
	}
	if !strings.Contains(dl.Stack, "goroutine") {
		t.Errorf("stack = %q", dl.Stack)
	}
	if !j.Done("mix/2") {
		t.Error("healthy sibling did not complete")
	}
}

// Without ReplayDead a resubmission skips known-dead keys (no retry burn);
// with it, the dead keys are re-driven and a now-healthy unit's record
// supersedes the dead letter — the replay repair.
func TestServiceDeadSkipAndReplay(t *testing.T) {
	j := testJournal(t, t.TempDir())
	s := New(Options{Workers: 2})
	defer drainAll(t, s)

	spec := func(id string, replay bool, execCount *int, fixed bool) JobSpec {
		var mu sync.Mutex
		return JobSpec{
			ID:         id,
			Journal:    j,
			ReplayDead: replay,
			Phases:     []PhaseSpec{{Name: "mix", Keys: []string{"mix/1", "mix/2"}}},
			Exec: func(ctx context.Context, key string) (json.RawMessage, error) {
				mu.Lock()
				*execCount++
				mu.Unlock()
				if key == "mix/2" && !fixed {
					return nil, errors.New("still poisoned")
				}
				return okExec(ctx, key)
			},
		}
	}

	var n1 int
	job, err := s.Submit(spec("c1", false, &n1, false))
	if err != nil {
		t.Fatal(err)
	}
	job.Wait(context.Background())
	if j.DeadLen() != 1 {
		t.Fatalf("DeadLen = %d", j.DeadLen())
	}

	// Resubmission: mix/1 resumes, mix/2 skips as dead — zero executions.
	var n2 int
	job, err = s.Submit(spec("c2", false, &n2, true))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := job.Status()
	if n2 != 0 || st.Resumed != 1 || st.Dead != 1 {
		t.Fatalf("skip run: execs=%d status=%+v", n2, st)
	}

	// Replay: only the dead key re-runs; success clears the DLQ.
	var n3 int
	job, err = s.Submit(spec("c3", true, &n3, true))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st = job.Status()
	if n3 != 1 || st.Dead != 0 || st.Done != 2 {
		t.Fatalf("replay run: execs=%d status=%+v", n3, st)
	}
	if j.DeadLen() != 0 {
		t.Fatalf("DLQ not cleared: %d", j.DeadLen())
	}
	var v string
	if ok, _ := j.Lookup("mix/2", &v); !ok || v != "ran:mix/2" {
		t.Fatalf("replayed unit value = %q ok=%v", v, ok)
	}
}

// Cancellation abandons units — they are neither journaled nor
// dead-lettered, so a resume re-runs them in full.
func TestServiceCancelAbandonsUnits(t *testing.T) {
	j := testJournal(t, t.TempDir())
	s := New(Options{Workers: 1, QueueDepth: 8})
	defer drainAll(t, s)

	started := make(chan struct{})
	var once sync.Once
	job, err := s.Submit(JobSpec{
		ID:      "c1",
		Journal: j,
		Phases:  []PhaseSpec{{Name: "mix", Keys: []string{"mix/1", "mix/2", "mix/3"}}},
		Exec: func(ctx context.Context, key string) (json.RawMessage, error) {
			once.Do(func() { close(started) })
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	job.Cancel()
	if err := job.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v", err)
	}
	st := job.Status()
	if st.State != StateCanceled || st.Abandoned != 3 || st.Dead != 0 {
		t.Fatalf("status = %+v", st)
	}
	if j.Len() != 0 || j.DeadLen() != 0 {
		t.Fatalf("canceled units touched the journal: len=%d dead=%d", j.Len(), j.DeadLen())
	}
}

// Reject mode: a job whose units cannot fit the remaining queue depth is
// refused with ErrQueueFull instead of blocking the feeder.
func TestServiceRejectModeFailsFast(t *testing.T) {
	j := testJournal(t, t.TempDir())
	s := New(Options{Workers: 1, QueueDepth: 1, Reject: true})
	defer drainAll(t, s)

	gate := make(chan struct{})
	started := make(chan struct{})
	blocker, err := s.Submit(JobSpec{
		ID:      "blocker",
		Journal: j,
		Phases:  []PhaseSpec{{Name: "mix", Keys: []string{"b/1"}}},
		Exec: func(ctx context.Context, key string) (json.RawMessage, error) {
			close(started)
			<-gate
			return okExec(ctx, key)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started // b/1 in flight on the only worker; the queue is empty again

	// filler occupies the queue's single slot behind the pinned worker.
	filler, err := s.Submit(JobSpec{
		ID:      "filler",
		Journal: j,
		Phases:  []PhaseSpec{{Name: "mix", Keys: []string{"f/1"}}},
		Exec:    okExec,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s.Queue().Len == 0 {
		time.Sleep(time.Millisecond)
	}
	victim, err := s.Submit(JobSpec{
		ID:      "victim",
		Journal: j,
		Phases:  []PhaseSpec{{Name: "mix", Keys: []string{"v/1"}}},
		Exec:    okExec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.Wait(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Wait = %v, want ErrQueueFull", err)
	}
	if st := victim.Status(); st.State != StateFailed {
		t.Fatalf("status = %+v", st)
	}
	close(gate)
	if err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := filler.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// Blocking mode: a job bigger than the queue completes — the feeder blocks
// on backpressure and progresses as workers free slots.
func TestServiceBackpressureBlockingMode(t *testing.T) {
	j := testJournal(t, t.TempDir())
	s := New(Options{Workers: 2, QueueDepth: 2})
	defer drainAll(t, s)

	keys := make([]string, 20)
	for i := range keys {
		keys[i] = fmt.Sprintf("u/%d", i)
	}
	job, err := s.Submit(JobSpec{
		ID:      "big",
		Journal: j,
		Phases:  []PhaseSpec{{Name: "mix", Keys: keys}},
		Exec:    okExec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := job.Status(); st.Done != 20 {
		t.Fatalf("status = %+v", st)
	}
}

// Higher-priority jobs preempt at dequeue: with one worker pinned, queued
// high-priority units run before earlier-queued low-priority ones.
func TestServicePriorityPreemptsAtDequeue(t *testing.T) {
	jdir := t.TempDir()
	j := testJournal(t, jdir)
	s := New(Options{Workers: 1, QueueDepth: 16})
	defer drainAll(t, s)

	gate := make(chan struct{})
	started := make(chan struct{})
	var mu sync.Mutex
	var order []string
	exec := func(ctx context.Context, key string) (json.RawMessage, error) {
		if key == "pin" {
			close(started)
			<-gate
		} else {
			mu.Lock()
			order = append(order, key)
			mu.Unlock()
		}
		return okExec(ctx, key)
	}
	pin, err := s.Submit(JobSpec{
		ID: "pin", Journal: j, Priority: 0,
		Phases: []PhaseSpec{{Name: "mix", Keys: []string{"pin"}}},
		Exec:   exec,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	lo, err := s.Submit(JobSpec{
		ID: "lo", Journal: j, Priority: 0,
		Phases: []PhaseSpec{{Name: "mix", Keys: []string{"lo/1", "lo/2"}}},
		Exec:   exec,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the low-priority units are queued, then submit high.
	for s.Queue().Len < 2 {
		time.Sleep(time.Millisecond)
	}
	hi, err := s.Submit(JobSpec{
		ID: "hi", Journal: j, Priority: 9,
		Phases: []PhaseSpec{{Name: "mix", Keys: []string{"hi/1", "hi/2"}}},
		Exec:   exec,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s.Queue().Len < 4 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	for _, job := range []*Job{pin, lo, hi} {
		if err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"hi/1", "hi/2", "lo/1", "lo/2"}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Drain: the in-flight unit finishes and journals; queued units are
// abandoned; the job ends interrupted; a fresh service over the same
// journal resumes exactly the abandoned remainder.
func TestServiceDrainInterruptsThenResumes(t *testing.T) {
	dir := t.TempDir()
	j := testJournal(t, dir)
	s := New(Options{Workers: 1, QueueDepth: 8})

	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	exec := func(ctx context.Context, key string) (json.RawMessage, error) {
		once.Do(func() { close(started) })
		<-release
		return okExec(ctx, key)
	}
	keys := []string{"u/1", "u/2", "u/3", "u/4"}
	job, err := s.Submit(JobSpec{
		ID: "c1", Journal: j,
		Phases: []PhaseSpec{{Name: "mix", Keys: keys}},
		Exec:   exec,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	<-s.q.done // queue closed: no further dequeues can happen
	close(release)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Wait = %v, want ErrInterrupted", err)
	}
	st := job.Status()
	if st.State != StateInterrupted || st.Done != 1 || st.Abandoned != 3 {
		t.Fatalf("status = %+v", st)
	}
	if !j.Done("u/1") || j.Done("u/2") {
		t.Fatalf("journal: u/1 done=%v u/2 done=%v", j.Done("u/1"), j.Done("u/2"))
	}

	// Submissions to a draining service are refused.
	if _, err := s.Submit(JobSpec{ID: "late", Journal: j, Exec: okExec}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining = %v", err)
	}

	// Restart: a fresh service over the same journal resumes the remainder.
	s2 := New(Options{Workers: 2})
	defer drainAll(t, s2)
	job2, err := s2.Submit(JobSpec{
		ID: "c1", Journal: j,
		Phases: []PhaseSpec{{Name: "mix", Keys: keys}},
		Exec:   okExec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st = job2.Status()
	if st.State != StateCompleted || st.Done != 4 || st.Resumed != 1 {
		t.Fatalf("resumed status = %+v", st)
	}
	for _, key := range keys {
		if !j.Done(key) {
			t.Fatalf("%s missing after resume", key)
		}
	}
}

// The observer sees every unit with the right outcome, and the registry
// gauges reflect queue capacity and DLQ depth.
func TestServiceObserverAndMetrics(t *testing.T) {
	j := testJournal(t, t.TempDir())
	reg := telemetry.NewRegistry()
	s := New(Options{Workers: 2, QueueDepth: 5, Registry: reg})
	defer drainAll(t, s)

	var mu sync.Mutex
	outcomes := map[string]string{}
	job, err := s.Submit(JobSpec{
		ID: "c1", Journal: j,
		Phases: []PhaseSpec{{Name: "mix", Keys: []string{"mix/1", "mix/2"}}},
		Exec: func(ctx context.Context, key string) (json.RawMessage, error) {
			if key == "mix/2" {
				return nil, errors.New("poison")
			}
			return okExec(ctx, key)
		},
		Observe: func(phase, key string) func(string, error) {
			return func(outcome string, err error) {
				mu.Lock()
				outcomes[phase+":"+key] = outcome
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
	mu.Lock()
	if outcomes["mix:mix/1"] != "" || outcomes["mix:mix/2"] != "dead" {
		t.Fatalf("outcomes = %v", outcomes)
	}
	mu.Unlock()

	g := reg.Snapshot().Gauges
	if got := g["campaign.queue.capacity"]; got != 5 {
		t.Errorf("queue capacity gauge = %v", got)
	}
	if got := g["campaign.dlq.depth"]; got != 1 {
		t.Errorf("dlq depth gauge = %v", got)
	}
	if got := g["campaign.units.dead"]; got != 1 {
		t.Errorf("units dead gauge = %v", got)
	}
}

// A FailFast job fails on its first poisoned unit — naming it, journaling
// no dead letter — and cancels the units behind it.
func TestServiceFailFastCancelsRest(t *testing.T) {
	j := testJournal(t, t.TempDir())
	s := New(Options{Workers: 1, QueueDepth: 8})
	defer drainAll(t, s)

	var mu sync.Mutex
	var ran []string
	job, err := s.Submit(JobSpec{
		ID: "c1", Journal: j, FailFast: true,
		Phases: []PhaseSpec{
			{Name: "mix", Keys: []string{"mix/1", "mix/2", "mix/3"}},
			{Name: "late", Keys: []string{"late/1"}},
		},
		Exec: func(ctx context.Context, key string) (json.RawMessage, error) {
			mu.Lock()
			ran = append(ran, key)
			mu.Unlock()
			if key == "mix/2" {
				return nil, errors.New("engine exploded")
			}
			return okExec(ctx, key)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = job.Wait(context.Background())
	if err == nil || !strings.Contains(err.Error(), "mix/2") || !strings.Contains(err.Error(), "engine exploded") {
		t.Fatalf("err = %v, want the failed unit and its cause", err)
	}
	st := job.Status()
	if st.State != StateFailed || st.Dead != 0 || j.DeadLen() != 0 {
		t.Errorf("status = %+v, journal dead = %d; want failed with no dead letters", st, j.DeadLen())
	}
	mu.Lock()
	defer mu.Unlock()
	if strings.Join(ran, ",") != "mix/1,mix/2" {
		t.Errorf("ran %v, want the units up to the failure only", ran)
	}
	if !j.Done("mix/1") || j.Done("mix/3") {
		t.Error("journal does not hold exactly the units that completed")
	}
}

// An executor refines its unit's outcome through ReportOutcome; the
// observer sees it from the moment the unit begins, and the accounting
// keeps resumed units apart.
func TestServiceReportOutcome(t *testing.T) {
	j := testJournal(t, t.TempDir())
	s := New(Options{Workers: 1})
	defer drainAll(t, s)

	var mu sync.Mutex
	outcomes := map[string]string{}
	began := map[string]bool{}
	job, err := s.Submit(JobSpec{
		ID: "c1", Journal: j,
		Phases: []PhaseSpec{{Name: "sens", Keys: []string{"sens/a", "sens/b", "sens/c"}}},
		Exec: func(ctx context.Context, key string) (json.RawMessage, error) {
			mu.Lock()
			open := began[key]
			mu.Unlock()
			if !open {
				return nil, fmt.Errorf("%s executing before its span opened", key)
			}
			switch key {
			case "sens/a":
				ReportOutcome(ctx, "replayed")
			case "sens/b":
				ReportOutcome(ctx, "resumed")
			}
			return okExec(ctx, key)
		},
		Observe: func(phase, key string) func(string, error) {
			mu.Lock()
			began[key] = true
			mu.Unlock()
			return func(outcome string, err error) {
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
	mu.Lock()
	defer mu.Unlock()
	if outcomes["sens/a"] != "replayed" || outcomes["sens/b"] != "resumed" || outcomes["sens/c"] != "" {
		t.Errorf("outcomes = %v", outcomes)
	}
	if st := job.Status(); st.Done != 3 || st.Resumed != 1 {
		t.Errorf("status = %+v, want 3 done, 1 resumed", st)
	}
	ReportOutcome(context.Background(), "replayed") // no slot: a no-op
}

// Run cancels the job with its context, and a unit behind the one whose
// hook canceled never starts — the deterministic stop point the
// kill-and-resume tests rely on.
func TestServiceRunStopsAtCancel(t *testing.T) {
	j := testJournal(t, t.TempDir())
	s := New(Options{Workers: 1})
	defer drainAll(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var ran []string
	err := s.Run(ctx, JobSpec{
		ID: "c1", Journal: j,
		Phases: []PhaseSpec{{Name: "mix", Keys: []string{"mix/1", "mix/2", "mix/3"}}},
		Exec: func(ctx context.Context, key string) (json.RawMessage, error) {
			mu.Lock()
			ran = append(ran, key)
			mu.Unlock()
			return okExec(ctx, key)
		},
		PostRecord: func(key string) { cancel() },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 1 || j.Len() != 1 {
		t.Errorf("ran %v, journaled %d; want only mix/1", ran, j.Len())
	}
}

// TestServiceUnitAllocs pins what one unit costs on its way through the
// service — queue push and pop, execution, journaling, settling — and
// requires that cost not to grow with the job: the allocations a job of n
// units makes beyond an empty job, divided by n, are the same whole
// number at 4 units as at 64. The remainder the division drops is not
// per-unit work: what an empty job skips besides its units, the in-memory
// journal's index growing by a few allocations per doubling, and an
// occasional extra allocation when the feeder and the worker interleave
// differently.
func TestServiceUnitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	const want = 10 // okExec's own encoding included
	svc := New(Options{Workers: 1})
	defer drainAll(t, svc)
	jobs := 0
	jobAllocs := func(units int) float64 {
		keys := make([]string, units)
		for i := range keys {
			keys[i] = fmt.Sprintf("unit/%d", i)
		}
		return testing.AllocsPerRun(20, func() {
			jobs++
			if err := svc.Run(context.Background(), JobSpec{
				ID:      fmt.Sprintf("job-%d", jobs),
				Phases:  []PhaseSpec{{Name: "p", Keys: keys}},
				Exec:    okExec,
				Journal: checkpoint.Memory(checkpoint.Fingerprint{}),
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	empty := jobAllocs(0)
	for _, units := range []int{4, 64} {
		total := jobAllocs(units)
		if per := int(total-empty) / units; per != want {
			t.Errorf("job of %d units: %v allocs (empty job %v), %d per unit, want %d",
				units, total, empty, per, want)
		}
	}
}

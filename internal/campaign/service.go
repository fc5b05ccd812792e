// The resident campaign service. A Service owns a worker pool fed by one
// bounded priority queue; a submitted job decomposes into phases of keyed
// units that flow through the queue onto the workers. It is the only unit
// scheduler in the repository: every campaign of cmd/experiments runs as
// jobs here, executing its units either in-process or on shard worker
// processes (JobSpec.Exec = shard.Coordinator.Exec).
//
// A unit that fails for real — exhausted retries inside its executor, or a
// panic — is settled by the job's failure policy. By default it lands in
// the job's dead-letter journal (checkpoint.RecordDead) instead of failing
// the campaign: the job completes degraded, reporting how many units died,
// and a later replay submission (ReplayDead) re-drives exactly the dead
// keys. A FailFast job instead fails on the first such unit and cancels
// the rest. docs/ROBUSTNESS.md "Dead-letter journal" walks the lifecycle.
package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"untangle/internal/checkpoint"
	"untangle/internal/parallel"
	"untangle/internal/telemetry"
)

// DefaultQueueDepth bounds the unit queue when Options.QueueDepth is zero.
// Deep enough that a whole paper campaign (36 sensitivity passes + 16
// mixes) stages without blocking, small enough that a runaway submitter
// feels backpressure quickly.
const DefaultQueueDepth = 64

// ErrInterrupted marks a job a drain stopped: its in-flight units finished
// and journaled, its queued units were abandoned, and resubmitting the same
// campaign against the same journal resumes it.
var ErrInterrupted = errors.New("campaign: interrupted by drain")

// ErrDraining rejects submissions to a service that is shutting down.
var ErrDraining = errors.New("campaign: service draining")

// Job states.
const (
	StateRunning     = "running"
	StateCompleted   = "completed" // possibly degraded; see Status.Dead
	StateFailed      = "failed"    // journal or phase-assembly error, or rejected
	StateCanceled    = "canceled"
	StateInterrupted = "interrupted" // drain; resubmit to resume
)

// Options configures a Service.
type Options struct {
	// Workers is the unit executor pool size; <= 0 uses GOMAXPROCS.
	Workers int
	// QueueDepth bounds the unit queue; <= 0 uses DefaultQueueDepth.
	QueueDepth int
	// Reject makes a full queue reject a job's unit push (the job fails
	// with ErrQueueFull) instead of blocking the job's feeder.
	Reject bool
	// Registry, when set, receives the service's gauges and counters
	// (campaign.queue.depth, campaign.dlq.depth, campaign.units.*).
	Registry *telemetry.Registry
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// PhaseSpec is one stage of a job: an ordered key list. Every key of a
// phase settles before the next phase's units are enqueued.
type PhaseSpec struct {
	Name string
	Keys []string
}

// JobSpec describes one submitted campaign.
type JobSpec struct {
	// ID names the job; must be unique among live jobs.
	ID string
	// Priority orders this job's units against other jobs' at dequeue
	// (higher first; FIFO within a priority).
	Priority int
	Phases   []PhaseSpec
	// Exec runs one unit and returns its journal value. Exec owns unit
	// retries (the executors in internal/experiments wrap parallel.RetryUnit);
	// the service classifies the final error, it does not retry.
	Exec func(ctx context.Context, key string) (json.RawMessage, error)
	// Journal is the job's checkpoint journal: results are recorded there,
	// completed keys are skipped as resumed, and poisoned units dead-letter
	// there. Required.
	Journal *checkpoint.Journal
	// ReplayDead re-drives keys the journal holds dead letters for. Without
	// it, dead keys are skipped (still dead, counted) so a resubmitted
	// campaign does not burn retries on a unit known to be poisoned.
	ReplayDead bool
	// Observe, when set, is notified as each unit begins, mirroring
	// experiments.UnitObserver. Outcomes: "" ran (or whatever the executor
	// reported through ReportOutcome), "resumed" journal skip, "dead"
	// dead-lettered (fresh or skipped), "abandoned" never ran.
	Observe func(phase, key string) func(outcome string, err error)
	// PostRecord, when set, runs after a unit's result is journaled — the
	// kill-injection seam the drain tests use.
	PostRecord func(key string)
	// FailFast is the failure policy. Zero value: a unit that fails for
	// real dead-letters and the job completes degraded. Set: the first such
	// unit fails the job and cancels its remaining units.
	FailFast bool
}

// outcomeKey carries a unit's outcome slot in the context handed to Exec.
type outcomeKey struct{}

// ReportOutcome lets an executor refine the outcome its successful unit
// settles with — experiments.UnitReplayed for a unit served from the
// front-end trace cache, "resumed" for one a shard worker replayed from its
// own journal — so observers keep fast units out of their rate estimates.
// Outside a service Exec (or a CaptureOutcome context) it is a no-op.
func ReportOutcome(ctx context.Context, outcome string) {
	if p, ok := ctx.Value(outcomeKey{}).(*string); ok {
		*p = outcome
	}
}

// CaptureOutcome returns ctx with a fresh outcome slot that ReportOutcome
// fills, and the slot: the service runs every Exec under one, and a shard
// worker uses it to send its unit's outcome back to the coordinator.
func CaptureOutcome(ctx context.Context) (context.Context, *string) {
	p := new(string)
	return context.WithValue(ctx, outcomeKey{}, p), p
}

// Unit outcomes reported to JobSpec.Observe beyond the experiments ones.
const outcomeAbandoned = "abandoned"

// task is one queued unit. done is its observation span, opened when a
// worker begins executing it.
type task struct {
	job   *Job
	phase string
	key   string
	done  func(outcome string, err error)
}

// Service is the resident campaign service: Submit jobs, watch them via
// Status, Drain on shutdown.
type Service struct {
	opts Options
	q    *Queue[*task]

	workerWG sync.WaitGroup
	feederWG sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	draining bool

	// Unit counters, mirrored to the registry when one is configured.
	unitsDone      atomic.Uint64
	unitsDead      atomic.Uint64
	unitsResumed   atomic.Uint64
	unitsAbandoned atomic.Uint64
}

// New starts a service: the worker pool runs until Drain.
func New(opts Options) *Service {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	s := &Service{
		opts: opts,
		q:    NewQueue[*task](opts.QueueDepth),
		jobs: make(map[string]*Job),
	}
	if reg := opts.Registry; reg != nil {
		reg.GaugeFunc("campaign.queue.depth", func() float64 { return float64(s.q.Len()) })
		reg.Gauge("campaign.queue.capacity").Set(float64(opts.QueueDepth))
		reg.GaugeFunc("campaign.dlq.depth", func() float64 { return float64(s.dlqDepth()) })
		reg.GaugeFunc("campaign.units.done", func() float64 { return float64(s.unitsDone.Load()) })
		reg.GaugeFunc("campaign.units.dead", func() float64 { return float64(s.unitsDead.Load()) })
		reg.GaugeFunc("campaign.units.resumed", func() float64 { return float64(s.unitsResumed.Load()) })
		reg.GaugeFunc("campaign.units.abandoned", func() float64 { return float64(s.unitsAbandoned.Load()) })
	}
	s.workerWG.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s
}

func (s *Service) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// dlqDepth sums live dead letters across the distinct journals of
// registered jobs.
func (s *Service) dlqDepth() int {
	s.mu.Lock()
	journals := make(map[*checkpoint.Journal]struct{}, len(s.jobs))
	for _, job := range s.jobs {
		journals[job.spec.Journal] = struct{}{}
	}
	s.mu.Unlock()
	n := 0
	for j := range journals {
		n += j.DeadLen()
	}
	return n
}

// Queue returns the unit queue's instantaneous state.
func (s *Service) Queue() QueueSnapshot { return s.q.Snapshot() }

// Draining reports whether Drain has begun. Once true, the queue is closed
// — no worker will dequeue another unit — and submissions are rejected.
func (s *Service) Draining() bool { return s.isDraining() }

// Submit registers the job and starts feeding its units through the queue.
// It returns immediately; watch the job via Wait and Status, or use Run.
func (s *Service) Submit(spec JobSpec) (*Job, error) {
	if spec.ID == "" {
		return nil, errors.New("campaign: job needs an ID")
	}
	if spec.Exec == nil {
		return nil, errors.New("campaign: job needs an Exec")
	}
	if spec.Journal == nil {
		return nil, fmt.Errorf("campaign: job %s needs a Journal (the dead-letter store)", spec.ID)
	}
	total := 0
	for _, ph := range spec.Phases {
		total += len(ph.Keys)
	}
	ctx, cancel := context.WithCancel(context.Background())
	job := &Job{
		spec:   spec,
		ctx:    ctx,
		cancel: cancel,
		svc:    s,
		state:  StateRunning,
		total:  total,
		doneCh: make(chan struct{}),
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		return nil, ErrDraining
	}
	if prev, ok := s.jobs[spec.ID]; ok && !prev.terminal() {
		s.mu.Unlock()
		cancel()
		return nil, fmt.Errorf("campaign: job %s already running", spec.ID)
	}
	s.jobs[spec.ID] = job
	s.order = append(s.order, spec.ID)
	s.feederWG.Add(1)
	s.mu.Unlock()
	go s.feed(job)
	return job, nil
}

// Run submits the job and waits for it to end, canceling it if ctx ends
// first. A unit not yet begun when ctx ends never starts, even if a worker
// already dequeued it, so a caller that cancels from a unit hook stops the
// job at a deterministic point. Run returns Job.Wait's error, ctx's once
// ctx ended; a service already draining interrupts the job before it
// starts (ErrInterrupted: resubmitting resumes it).
func (s *Service) Run(ctx context.Context, spec JobSpec) error {
	if exec := spec.Exec; exec != nil {
		spec.Exec = func(jctx context.Context, key string) (json.RawMessage, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return exec(jctx, key)
		}
	}
	job, err := s.Submit(spec)
	if errors.Is(err, ErrDraining) {
		return ErrInterrupted
	}
	if err != nil {
		return err
	}
	defer context.AfterFunc(ctx, job.Cancel)()
	err = job.Wait(context.Background())
	if errors.Is(err, ErrInterrupted) && ctx.Err() != nil {
		// The units ctx kept from starting can finish the job before the
		// cancellation reaches it; the cause is still ctx.
		return ctx.Err()
	}
	return err
}

// Jobs returns every registered job's status in submission order (a
// resubmitted ID keeps its first position).
func (s *Service) Jobs() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]bool, len(s.jobs))
	out := make([]Status, 0, len(s.jobs))
	for _, id := range s.order {
		if seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, s.jobs[id].Status())
	}
	return out
}

// Drain shuts the service down gracefully: no further submissions, no
// further dequeues. In-flight units finish and journal; queued units are
// abandoned — their jobs end StateInterrupted, resumable from their
// journals. Drain waits for workers and job feeders up to ctx.
func (s *Service) Drain(ctx context.Context) error {
	// Close the queue before raising the draining flag: once Draining()
	// reports true, no worker can dequeue another unit — the ordering the
	// serve-mode term hook relies on to leave a deterministic remainder.
	s.q.Close()
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	workersDone := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		// Workers are gone: nothing races the sweep of the queued leftovers.
		for _, t := range s.q.Drain() {
			t.job.settle(t, outcomeAbandoned, nil)
		}
		s.feederWG.Wait()
		close(workersDone)
	}()
	select {
	case <-workersDone:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("campaign: drain: %w", ctx.Err())
	}
}

// feed is the job's feeder goroutine: it walks the phases, skips keys the
// journal already settles (done or dead), pushes the rest through the
// queue, and waits for the phase to settle before starting the next.
func (s *Service) feed(job *Job) {
	defer s.feederWG.Done()
	defer job.finish()
	for _, ph := range job.spec.Phases {
		if job.ctx.Err() != nil || job.Err() != nil {
			return
		}
		job.beginPhase(ph.Name)
		for _, key := range ph.Keys {
			if job.ctx.Err() != nil {
				job.settleSkip(ph.Name, key, outcomeAbandoned, job.ctx.Err())
				continue
			}
			if job.spec.Journal.Done(key) {
				job.settleSkip(ph.Name, key, "resumed", nil)
				continue
			}
			if dl, dead := job.spec.Journal.Dead(key); dead && !job.spec.ReplayDead {
				job.settleSkip(ph.Name, key, "dead", errors.New(dl.Error))
				continue
			}
			if err := s.enqueue(job, &task{job: job, phase: ph.Name, key: key}); err != nil {
				switch {
				case errors.Is(err, ErrQueueFull):
					// Reject-mode backpressure: the job is refused, not
					// queued. Cancel so workers skip any already-queued
					// units of this job.
					job.fail(fmt.Errorf("campaign: job %s rejected: %w", job.spec.ID, err))
					job.cancel()
				case errors.Is(err, ErrQueueClosed):
					// Drain landed mid-feed; remaining keys are abandoned.
				}
				job.settleSkip(ph.Name, key, outcomeAbandoned, err)
			}
		}
		job.waitPhase()
		if job.ctx.Err() != nil || job.Err() != nil || s.isDraining() {
			return
		}
	}
}

func (s *Service) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// enqueue pushes one unit, honoring the service's backpressure policy.
func (s *Service) enqueue(job *Job, t *task) error {
	job.notePushed()
	var err error
	if s.opts.Reject {
		err = s.q.TryPush(job.spec.Priority, t)
	} else {
		err = s.q.Push(job.ctx, job.spec.Priority, t)
	}
	if err != nil {
		job.unpush()
	}
	return err
}

// worker pops units until the queue closes.
func (s *Service) worker() {
	defer s.workerWG.Done()
	for {
		t, err := s.q.Pop(context.Background())
		if err != nil {
			return
		}
		s.runUnit(t)
	}
}

// runUnit executes one popped unit and classifies its outcome:
//
//   - nil error: the result is journaled; a journal write failure fails the
//     whole job (the journal is the campaign's ground truth).
//   - context ended (the job was canceled or the executor saw the
//     cancellation): the unit is abandoned, untouched in the journal, so a
//     resume re-runs it in full.
//   - anything else — exhausted retries, a panic, a hard error: the unit is
//     poisoned. It dead-letters with its attempt count and stack, and the
//     campaign carries on degraded.
//
// A FailFast job fails on a poisoned unit instead of dead-lettering it.
func (s *Service) runUnit(t *task) {
	job := t.job
	if job.ctx.Err() != nil {
		job.settle(t, outcomeAbandoned, job.ctx.Err())
		return
	}
	t.done = job.observe(t.phase, t.key)
	uctx, outcome := CaptureOutcome(job.ctx)
	raw, err := execGuarded(uctx, job, t.key)
	switch {
	case err == nil:
		if recErr := job.spec.Journal.Record(t.key, raw); recErr != nil {
			recErr = fmt.Errorf("campaign: journal %s: %w", t.key, recErr)
			job.fail(recErr)
			job.cancel()
			job.settle(t, outcomeAbandoned, recErr)
			return
		}
		if job.spec.PostRecord != nil {
			job.spec.PostRecord(t.key)
		}
		job.settle(t, *outcome, nil)
	case job.ctx.Err() != nil, errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		job.settle(t, outcomeAbandoned, err)
	case job.spec.FailFast:
		job.fail(fmt.Errorf("campaign: unit %s: %w", t.key, err))
		job.cancel()
		job.settle(t, outcomeAbandoned, err)
	default:
		dl := newDeadLetter(t.key, err)
		if recErr := job.spec.Journal.RecordDead(dl); recErr != nil {
			recErr = fmt.Errorf("campaign: dead-letter %s: %w", t.key, recErr)
			job.fail(recErr)
			job.cancel()
			job.settle(t, outcomeAbandoned, recErr)
			return
		}
		s.logf("campaign: job %s unit %s dead-lettered after %d attempts: %s",
			job.spec.ID, t.key, dl.Attempts, dl.Error)
		job.settle(t, "dead", err)
	}
}

// execGuarded runs the job's executor with a panic guard: a panicking unit
// becomes a diagnosable *parallel.PanicError (Index -1: no pool index here)
// destined for the dead-letter journal, never a crashed service.
func execGuarded(ctx context.Context, job *Job, key string) (raw json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &parallel.PanicError{Index: -1, Value: r, Stack: debug.Stack()}
		}
	}()
	return job.spec.Exec(ctx, key)
}

// newDeadLetter shapes a unit's terminal error into its journal record:
// exhausted retries carry their attempt count, panics carry their stack.
func newDeadLetter(key string, err error) checkpoint.DeadLetter {
	dl := checkpoint.DeadLetter{Key: key, Attempts: 1, Error: err.Error()}
	var re *parallel.RetryExhaustedError
	if errors.As(err, &re) {
		dl.Attempts = re.Attempts
		dl.Error = re.Error()
	}
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		dl.Error = fmt.Sprintf("panic: %v", pe.Value)
		dl.Stack = string(pe.Stack)
	}
	return dl
}

// Job is one submitted campaign.
type Job struct {
	spec   JobSpec
	svc    *Service
	ctx    context.Context
	cancel context.CancelFunc

	mu           sync.Mutex
	state        string
	err          error
	userCanceled bool
	phase        string // current phase name
	total        int
	done         int // units with journaled results (run or resumed)
	resumed      int
	dead         int
	abandoned    int
	deadKeys     []string
	// Per-phase settlement: pushed counts units handed to the queue this
	// phase, settled counts those that came back (run, dead, or abandoned).
	// allPushed gates the phaseDone close — without it a fast worker
	// settling the units pushed so far would release the feeder early.
	pushed, settled int
	allPushed       bool
	phaseDone       chan struct{}
	doneCh          chan struct{}
}

// Err returns the job's failure, if any.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Cancel stops the job: in-flight units see their context end, queued ones
// are skipped when popped.
func (j *Job) Cancel() {
	j.mu.Lock()
	if j.state == StateRunning {
		j.userCanceled = true
	}
	j.mu.Unlock()
	j.cancel()
}

// Wait blocks until the job is terminal or ctx ends. It returns the job's
// error: nil for completed (even degraded), ErrInterrupted for a drain,
// context.Canceled for a cancel, the failure otherwise.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.doneCh:
	case <-ctx.Done():
		return ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateFailed:
		return j.err
	case StateCanceled:
		return context.Canceled
	case StateInterrupted:
		return ErrInterrupted
	}
	return nil
}

// Status is a job's frozen progress, shaped for the /campaigns JSON.
type Status struct {
	ID       string `json:"id"`
	Priority int    `json:"priority"`
	State    string `json:"state"`
	Phase    string `json:"phase,omitempty"`
	// Done counts units whose results are journaled (run or resumed), out
	// of Total across all phases. Dead and Abandoned units are neither.
	Done      int      `json:"done"`
	Total     int      `json:"total"`
	Resumed   int      `json:"resumed,omitempty"`
	Dead      int      `json:"dead,omitempty"`
	Abandoned int      `json:"abandoned,omitempty"`
	DeadKeys  []string `json:"dead_keys,omitempty"`
	Error     string   `json:"error,omitempty"`
	// Summary is the manifest line: "completed 15/16 (1 dead-lettered)".
	Summary string `json:"summary"`
}

// Status freezes the job's progress.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:        j.spec.ID,
		Priority:  j.spec.Priority,
		State:     j.state,
		Phase:     j.phase,
		Done:      j.done,
		Total:     j.total,
		Resumed:   j.resumed,
		Dead:      j.dead,
		Abandoned: j.abandoned,
		DeadKeys:  append([]string(nil), j.deadKeys...),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	st.Summary = fmt.Sprintf("%s %d/%d", j.state, j.done, j.total)
	if j.dead > 0 {
		st.Summary += fmt.Sprintf(" (%d dead-lettered)", j.dead)
	}
	return st
}

func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state != StateRunning
}

// fail records the job's first hard error (journal write, phase assembly,
// rejection, or a FailFast job's failed unit).
func (j *Job) fail(err error) {
	j.mu.Lock()
	if j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
}

func (j *Job) beginPhase(name string) {
	j.mu.Lock()
	j.phase = name
	j.pushed, j.settled = 0, 0
	j.allPushed = false
	j.phaseDone = make(chan struct{})
	j.mu.Unlock()
}

func (j *Job) notePushed() {
	j.mu.Lock()
	j.pushed++
	j.mu.Unlock()
}

// unpush reverses notePushed for a push the queue refused; the feeder
// settles the unit as skipped instead.
func (j *Job) unpush() {
	j.mu.Lock()
	j.pushed--
	j.mu.Unlock()
}

// waitPhase blocks the feeder until every pushed unit of the current phase
// has settled. Settlement always converges: workers settle every popped
// unit (even skips), and Drain settles whatever never left the queue.
func (j *Job) waitPhase() {
	j.mu.Lock()
	j.allPushed = true
	if j.settled == j.pushed {
		j.mu.Unlock()
		return
	}
	ch := j.phaseDone
	j.mu.Unlock()
	<-ch
}

// settle records a queued unit's outcome, closes its observation span
// (opening one first if the unit never began), and wakes the feeder when
// the phase is fully settled. The span closes first, so a job is never
// reported finished ahead of its units' observations.
func (j *Job) settle(t *task, outcome string, err error) {
	done := t.done
	if done == nil {
		done = j.observe(t.phase, t.key)
	}
	if done != nil {
		done(outcome, err)
	}
	j.mu.Lock()
	j.account(t.key, outcome)
	j.settled++
	if j.allPushed && j.settled == j.pushed && j.phaseDone != nil {
		close(j.phaseDone)
		j.phaseDone = nil
	}
	j.mu.Unlock()
}

// settleSkip records a unit that never entered the queue (journal skip,
// dead skip, abandoned at feed time).
func (j *Job) settleSkip(phase, key, outcome string, err error) {
	done := j.observe(phase, key)
	j.mu.Lock()
	j.account(key, outcome)
	j.mu.Unlock()
	if done != nil {
		done(outcome, err)
	}
}

// account applies one settled unit to the job and service counters. Caller
// holds j.mu.
func (j *Job) account(key, outcome string) {
	switch outcome {
	case "resumed":
		j.done++
		j.resumed++
		j.svc.unitsResumed.Add(1)
	case "dead":
		j.dead++
		j.deadKeys = append(j.deadKeys, key)
		j.svc.unitsDead.Add(1)
	case outcomeAbandoned:
		j.abandoned++
		j.svc.unitsAbandoned.Add(1)
	default: // ran: generated, or replayed from a front-end cache
		j.done++
		j.svc.unitsDone.Add(1)
	}
}

// observe opens the unit's observation span, if the job has an observer.
func (j *Job) observe(phase, key string) func(outcome string, err error) {
	if j.spec.Observe == nil {
		return nil
	}
	return j.spec.Observe(phase, key)
}

// finish moves the job to its terminal state once the feeder returns.
func (j *Job) finish() {
	j.cancel() // release the context either way
	j.mu.Lock()
	switch {
	case j.err != nil:
		j.state = StateFailed
	case j.userCanceled:
		j.state = StateCanceled
	case j.abandoned > 0:
		j.state = StateInterrupted
	default:
		j.state = StateCompleted
	}
	st := j.state
	done, dead, total := j.done, j.dead, j.total
	close(j.doneCh)
	j.mu.Unlock()
	j.svc.logf("campaign: job %s %s: %d/%d units done, %d dead-lettered", j.spec.ID, st, done, total, dead)
}

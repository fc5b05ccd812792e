// Package campaign is the resident campaign service: a bounded concurrent
// priority queue of campaign units feeding a fixed worker pool, with a
// dead-letter journal for poisoned units (see service.go). The queue is the
// backpressure boundary — its depth bounds how much work a burst of
// submissions can stage, and a full queue either blocks the producer or
// rejects the push with a typed error, per the service's policy.
package campaign

import (
	"container/heap"
	"context"
	"errors"
	"sync"
)

var (
	// ErrQueueFull is returned by TryPush when the queue is at depth — the
	// reject-mode backpressure signal.
	ErrQueueFull = errors.New("campaign: queue full")
	// ErrQueueClosed is returned by Push and Pop after Close: the service is
	// draining and hands out no further work.
	ErrQueueClosed = errors.New("campaign: queue closed")
)

// item is one queued entry. seq breaks priority ties FIFO, so equal-priority
// units dequeue in submission order — the property that keeps a single-job
// campaign's unit order deterministic.
type item[T any] struct {
	v   T
	pri int
	seq uint64
}

// Queue is a bounded concurrent priority queue: Pop always returns the
// highest-priority queued item (FIFO within a priority), Push blocks — or
// TryPush rejects — when depth items are already queued. Close stops both
// ends; Drain recovers whatever was still queued so the service can settle
// those units as abandoned instead of leaking them.
//
// The bound is enforced with a token channel (space) and item availability
// with a second (ready); the heap under the mutex only orders what the
// tokens admit. Tokens are conserved — every queued item holds exactly one
// of each — so neither channel send can block.
type Queue[T any] struct {
	mu    sync.Mutex
	heap  pq[T]
	seq   uint64
	space chan struct{}
	ready chan struct{}
	done  chan struct{}
	once  sync.Once
}

// NewQueue builds a queue bounded to depth items (minimum 1).
func NewQueue[T any](depth int) *Queue[T] {
	if depth < 1 {
		depth = 1
	}
	q := &Queue[T]{
		space: make(chan struct{}, depth),
		ready: make(chan struct{}, depth),
		done:  make(chan struct{}),
	}
	for i := 0; i < depth; i++ {
		q.space <- struct{}{}
	}
	return q
}

// Push enqueues v at the given priority, blocking while the queue is full.
// It returns ctx.Err() if the context ends first and ErrQueueClosed once
// the queue is closed.
func (q *Queue[T]) Push(ctx context.Context, pri int, v T) error {
	select {
	case <-q.done:
		return ErrQueueClosed
	default:
	}
	select {
	case <-q.space:
	case <-ctx.Done():
		return ctx.Err()
	case <-q.done:
		return ErrQueueClosed
	}
	return q.admit(pri, v)
}

// TryPush enqueues v without blocking, returning ErrQueueFull when the
// queue is at depth.
func (q *Queue[T]) TryPush(pri int, v T) error {
	select {
	case <-q.space:
	default:
		select {
		case <-q.done:
			return ErrQueueClosed
		default:
		}
		return ErrQueueFull
	}
	return q.admit(pri, v)
}

// admit inserts a token-holding push into the heap. The closed check runs
// under the mutex so no item can slip in after Drain has swept the heap.
func (q *Queue[T]) admit(pri int, v T) error {
	q.mu.Lock()
	select {
	case <-q.done:
		q.mu.Unlock()
		q.space <- struct{}{} // hand the token back; nobody will use it
		return ErrQueueClosed
	default:
	}
	q.seq++
	heap.Push(&q.heap, item[T]{v: v, pri: pri, seq: q.seq})
	q.mu.Unlock()
	q.ready <- struct{}{}
	return nil
}

// Pop dequeues the highest-priority item, blocking while the queue is
// empty. It returns ctx.Err() if the context ends first and ErrQueueClosed
// once the queue is closed — even if items remain queued; Close means "stop
// handing out work", and Drain recovers the leftovers.
func (q *Queue[T]) Pop(ctx context.Context) (T, error) {
	var zero T
	select {
	case <-q.done:
		return zero, ErrQueueClosed
	default:
	}
	select {
	case <-q.ready:
	case <-ctx.Done():
		return zero, ctx.Err()
	case <-q.done:
		return zero, ErrQueueClosed
	}
	q.mu.Lock()
	select {
	case <-q.done:
		// Closed while we held the ready token; leave the item for Drain.
		q.mu.Unlock()
		return zero, ErrQueueClosed
	default:
	}
	it := heap.Pop(&q.heap).(item[T])
	q.mu.Unlock()
	q.space <- struct{}{}
	return it.v, nil
}

// Close stops the queue: subsequent pushes and pops fail with
// ErrQueueClosed, and blocked ones unblock with it. Idempotent. Items still
// queued stay queued until Drain collects them.
func (q *Queue[T]) Close() {
	q.once.Do(func() { close(q.done) })
}

// Drain removes and returns every still-queued item in priority order.
// Meaningful only after Close (concurrent pushes and pops are fenced out by
// then); the service settles the returned units as abandoned.
func (q *Queue[T]) Drain() []T {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]T, 0, len(q.heap))
	for len(q.heap) > 0 {
		out = append(out, heap.Pop(&q.heap).(item[T]).v)
	}
	return out
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.heap)
}

// QueueSnapshot is the /queue JSON document: instantaneous depth against
// capacity, broken down by priority.
type QueueSnapshot struct {
	Len        int         `json:"len"`
	Cap        int         `json:"cap"`
	ByPriority map[int]int `json:"by_priority,omitempty"`
}

// Snapshot freezes the queue's state.
func (q *Queue[T]) Snapshot() QueueSnapshot {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := QueueSnapshot{Len: len(q.heap), Cap: cap(q.space)}
	if len(q.heap) > 0 {
		s.ByPriority = make(map[int]int)
		for _, it := range q.heap {
			s.ByPriority[it.pri]++
		}
	}
	return s
}

// pq implements container/heap ordered by priority descending, then seq
// ascending (FIFO within a priority).
type pq[T any] []item[T]

func (h pq[T]) Len() int { return len(h) }
func (h pq[T]) Less(i, j int) bool {
	if h[i].pri != h[j].pri {
		return h[i].pri > h[j].pri
	}
	return h[i].seq < h[j].seq
}
func (h pq[T]) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *pq[T]) Push(x any)   { *h = append(*h, x.(item[T])) }
func (h *pq[T]) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = item[T]{}
	*h = old[:n-1]
	return it
}

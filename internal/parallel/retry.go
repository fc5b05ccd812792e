package parallel

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// RetryExhaustedError is the typed failure RetryUnit returns when every attempt
// failed: the campaign layer classifies it (a unit that outlasts the retry
// budget is poisoned and belongs in the dead-letter journal, not on the
// retry treadmill) and tests assert on it with errors.As instead of
// string-matching the bare last error. It wraps only genuine exhaustion —
// context cancellations and *PanicError keep their never-retry contract and
// are returned unwrapped, so errors.Is(err, context.Canceled) and
// errors.As(err, **PanicError) behave exactly as before.
type RetryExhaustedError struct {
	// Unit identifies the unit of work being retried ("" when the caller
	// named none).
	Unit string
	// Attempts is how many times the function ran, all failing.
	Attempts int
	// Err is the final attempt's error.
	Err error
}

// Error implements error.
func (e *RetryExhaustedError) Error() string {
	if e.Unit != "" {
		return fmt.Sprintf("parallel: retry of %s exhausted after %d attempts: %v", e.Unit, e.Attempts, e.Err)
	}
	return fmt.Sprintf("parallel: retry exhausted after %d attempts: %v", e.Attempts, e.Err)
}

// Unwrap exposes the final attempt's error to errors.Is/As chains.
func (e *RetryExhaustedError) Unwrap() error { return e.Err }

// RetryUnit runs fn up to attempts times, sleeping between tries with
// jittered exponential backoff, and returns nil on the first success or
// the last attempt's error. It is the recovery half of the resilience
// layer: a transient failure (an injected fault, a flaky filesystem, a
// starved descriptor) costs one deterministic re-run of the failed unit
// instead of the whole campaign — and because every simulation in this
// repository is a pure function of its configuration, a retried unit
// produces bit-identical results to an untroubled first attempt (proved by
// the fault-injection suite).
//
// unit names the piece of campaign work being retried ("mix/3",
// "sens/mcf_0"; "" for none) and is carried on the RetryExhaustedError so
// dead-letter records and logs can say which unit burned its attempts
// without the caller re-wrapping the error.
//
// Two error classes are never retried, because retrying cannot help:
// context cancellation (the operator or the first-error cancellation asked
// the run to stop) and *PanicError (a panic is a bug in the point, not a
// transient condition; rerunning a deterministic simulation would panic
// again).
//
// The backoff doubles per attempt from the base delay and adds a jitter
// derived deterministically from the attempt index (splitmix64, no
// time.Now, no math/rand globals), so two processes retrying the same unit
// de-synchronize while any given retry schedule is exactly reproducible.
// The sleep — never the result — is the only thing the wall clock touches.
// A canceled context cuts the sleep short and returns ctx.Err().
//
// When every attempt fails, the last error comes back wrapped in a
// *RetryExhaustedError carrying the unit and the attempt count (the two
// never-retried classes above are returned unwrapped).
func RetryUnit(ctx context.Context, unit string, attempts int, backoff time.Duration, fn func(ctx context.Context, attempt int) error) error {
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err = fn(ctx, attempt); err == nil {
			return nil
		}
		if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		var pe *PanicError
		if errors.As(err, &pe) {
			return err
		}
		if attempt == attempts-1 {
			break
		}
		if d := backoffDelay(backoff, attempt); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
	}
	return &RetryExhaustedError{Unit: unit, Attempts: attempts, Err: err}
}

// backoffDelay computes base<<attempt plus a deterministic jitter of up to
// +50%, derived from the attempt index alone.
func backoffDelay(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base << uint(attempt)
	if d <= 0 { // shift overflow on absurd attempt counts
		return base
	}
	// splitmix64 of the attempt index: a fixed, well-mixed jitter source.
	z := uint64(attempt) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return d + time.Duration(z%uint64(d)/2)
}

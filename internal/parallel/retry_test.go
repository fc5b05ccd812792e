package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestRetrySucceedsFirstTry(t *testing.T) {
	calls := 0
	err := RetryUnit(context.Background(), "", 3, time.Nanosecond, func(context.Context, int) error {
		calls++
		return nil
	})
	if err != nil || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestRetryOutlastsTransientFailure(t *testing.T) {
	var attempts []int
	err := RetryUnit(context.Background(), "", 3, time.Nanosecond, func(_ context.Context, attempt int) error {
		attempts = append(attempts, attempt)
		if attempt < 2 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(attempts) != 3 || attempts[2] != 2 {
		t.Fatalf("attempts = %v", attempts)
	}
}

func TestRetryExhaustionReturnsTypedError(t *testing.T) {
	calls := 0
	err := RetryUnit(context.Background(), "", 3, time.Nanosecond, func(_ context.Context, attempt int) error {
		calls++
		return fmt.Errorf("fail %d", attempt)
	})
	if calls != 3 {
		t.Fatalf("calls = %d", calls)
	}
	var re *RetryExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T %v, want *RetryExhaustedError", err, err)
	}
	if re.Attempts != 3 || re.Err == nil || re.Err.Error() != "fail 2" {
		t.Fatalf("exhausted = %+v, want 3 attempts wrapping the last error", re)
	}
}

// RetryUnit stamps the unit name onto the exhaustion error, and the wrapped
// final error stays reachable through errors.Is.
func TestRetryUnitCarriesContext(t *testing.T) {
	sentinel := errors.New("disk on fire")
	err := RetryUnit(context.Background(), "mix/3", 2, time.Nanosecond, func(context.Context, int) error {
		return sentinel
	})
	var re *RetryExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T %v", err, err)
	}
	if re.Unit != "mix/3" || re.Attempts != 2 {
		t.Errorf("exhausted = %+v", re)
	}
	if !errors.Is(err, sentinel) {
		t.Error("wrapped final error lost")
	}
	if !strings.Contains(err.Error(), "mix/3") {
		t.Errorf("message %q does not name the unit", err)
	}
}

// The never-retry classes are returned unwrapped: classification code that
// checks for RetryExhaustedError must not see cancellations or panics
// disguised as exhaustion.
func TestRetryNeverWrapsCancellationOrPanic(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	err := RetryUnit(ctx, "", 3, time.Nanosecond, func(context.Context, int) error {
		cancel()
		return context.Canceled
	})
	var re *RetryExhaustedError
	if errors.As(err, &re) {
		t.Errorf("cancellation wrapped as exhaustion: %v", err)
	}

	err = RetryUnit(context.Background(), "", 3, time.Nanosecond, func(ctx context.Context, _ int) error {
		return ForEach(ctx, 1, 1, func(context.Context, int) error { panic("bug") })
	})
	if errors.As(err, &re) {
		t.Errorf("panic wrapped as exhaustion: %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Errorf("err = %v, want *PanicError", err)
	}
}

// Panics are bugs, not transient conditions: a deterministic simulation
// would panic again, so RetryUnit hands the PanicError straight back.
func TestRetryDoesNotRetryPanics(t *testing.T) {
	calls := 0
	err := RetryUnit(context.Background(), "", 5, time.Nanosecond, func(ctx context.Context, _ int) error {
		calls++
		// The pool's guard converts the panic; model that conversion.
		return ForEach(ctx, 1, 1, func(context.Context, int) error { panic("bug") })
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v", err)
	}
	if calls != 1 {
		t.Errorf("panicking fn retried %d times", calls)
	}
}

// A Permanent error is returned after its first attempt, unwrapped, with
// the marked error still reachable; a nil error stays nil when marked.
func TestRetryDoesNotRetryPermanent(t *testing.T) {
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) != nil")
	}
	damaged := errors.New("damaged input")
	calls := 0
	err := RetryUnit(context.Background(), "u", 5, time.Nanosecond, func(context.Context, int) error {
		calls++
		return fmt.Errorf("reading: %w", Permanent(damaged))
	})
	if calls != 1 {
		t.Errorf("permanent failure ran %d times, want 1", calls)
	}
	var re *RetryExhaustedError
	if errors.As(err, &re) {
		t.Errorf("permanent failure wrapped as exhaustion: %v", err)
	}
	if !errors.Is(err, damaged) || err.Error() != "reading: damaged input" {
		t.Errorf("err = %v, want the marked error unchanged", err)
	}
}

func TestRetryStopsOnCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := RetryUnit(ctx, "", 10, time.Hour, func(context.Context, int) error {
		calls++
		cancel()
		return errors.New("transient")
	})
	if err == nil {
		t.Fatal("cancellation swallowed the error")
	}
	if calls != 1 {
		t.Errorf("retried %d times after cancellation", calls)
	}
}

func TestRetryCancelCutsBackoffShort(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := RetryUnit(ctx, "", 2, time.Hour, func(context.Context, int) error {
		return errors.New("transient")
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("backoff ignored cancellation (%v)", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

// The backoff schedule is a pure function of the attempt index.
func TestBackoffDeterministicAndGrowing(t *testing.T) {
	for attempt := 0; attempt < 8; attempt++ {
		d1 := backoffDelay(10*time.Millisecond, attempt)
		d2 := backoffDelay(10*time.Millisecond, attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: %v vs %v", attempt, d1, d2)
		}
		base := 10 * time.Millisecond << uint(attempt)
		if d1 < base || d1 > base+base/2 {
			t.Fatalf("attempt %d: delay %v outside [base, 1.5*base] of %v", attempt, d1, base)
		}
	}
	if backoffDelay(0, 3) != 0 {
		t.Error("zero base should not sleep")
	}
}

func TestRetryAttemptsFloor(t *testing.T) {
	calls := 0
	err := RetryUnit(context.Background(), "", 0, 0, func(context.Context, int) error {
		calls++
		return errors.New("x")
	})
	if calls != 1 || err == nil {
		t.Fatalf("calls=%d err=%v", calls, err)
	}
}

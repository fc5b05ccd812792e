package tracecache

import (
	"errors"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// TestFollowerReadsWhileWriting: a follower on a staged entry returns
// exactly the events written so far while a writer on another goroutine
// appends them — full blocks, the unsealed block and the move-to-front
// mask list included — and a second follower started from a mid-stream
// Pos, as well as one Seek-ed back to the start, returns the rest. After
// Commit each drains to io.EOF, having yielded the stream a fresh Open
// reads.
func TestFollowerReadsWhileWriting(t *testing.T) {
	for _, rich := range []bool{false, true} {
		st, err := NewStore(t.TempDir(), false)
		if err != nil {
			t.Fatal(err)
		}
		key := testKey("follow")
		events := randomEvents(30_000, 11)
		create := st.Create
		if rich {
			key = mixTestKey()
			events = randomRichEvents(30_000, 17_000, 12, 40)
			create = st.CreateRich
		}
		w, err := create(key)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()

		var mu sync.Mutex // the writer and its followers never run at once
		first, err := w.Follow(Pos{})
		if err != nil {
			t.Fatal(err)
		}
		defer first.Close()
		var (
			mid   *Reader
			midAt int
		)
		done := make(chan error, 1)
		go func() {
			for i := 0; i < len(events); {
				n := min(1+(i*13)%700, len(events)-i)
				mu.Lock()
				err := w.WriteEvents(events[i : i+n])
				if err == nil && mid == nil && i+n >= len(events)/3 {
					midAt = i + n
					mid, err = w.Follow(w.Pos())
				}
				mu.Unlock()
				if err != nil {
					done <- err
					return
				}
				i += n
				runtime.Gosched()
			}
			mu.Lock()
			defer mu.Unlock()
			done <- w.Commit()
		}()

		var got []Event
		buf := make([]Event, 997)
		for {
			mu.Lock()
			n, err := first.Read(buf)
			written := w.Count()
			mu.Unlock()
			got = append(got, buf[:n]...)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("rich=%v: follower: %v", rich, err)
			}
			if n < len(buf) && uint64(len(got)) != written {
				t.Fatalf("rich=%v: follower caught up at %d events, writer has written %d", rich, len(got), written)
			}
			if uint64(len(got)) > written {
				t.Fatalf("rich=%v: follower read %d events, writer has written %d", rich, len(got), written)
			}
			runtime.Gosched()
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, events) {
			t.Fatalf("rich=%v: follower stream differs from the written one", rich)
		}
		if mid == nil {
			t.Fatalf("rich=%v: no mid-stream follower", rich)
		}
		defer mid.Close()
		rest, err := readAll(mid, 500)
		if err != nil || !reflect.DeepEqual(rest, events[midAt:]) {
			t.Fatalf("rich=%v: follower from event %d: %d events, err %v; want the %d after it", rich, midAt, len(rest), err, len(events)-midAt)
		}
		mid.Seek(Pos{})
		again, err := readAll(mid, 4096)
		if err != nil || !reflect.DeepEqual(again, events) {
			t.Fatalf("rich=%v: follower seeked to the start: %d events, err %v", rich, len(again), err)
		}

		r, err := st.Open(key)
		if err != nil || r == nil {
			t.Fatalf("rich=%v: open: r=%v err=%v", rich, r, err)
		}
		opened, err := readAll(r, 4096)
		r.Close()
		if err != nil || !reflect.DeepEqual(opened, got) {
			t.Fatalf("rich=%v: Open after Commit read %d events (err %v), the follower %d", rich, len(opened), err, len(got))
		}
	}
}

// TestCommitLongerKeepsLongerEntry: an entry is committed with a long
// pressure tail, then the same key with a shorter one; the store keeps
// the long entry and the short writer's file is discarded. A longer
// commit still replaces it.
func TestCommitLongerKeepsLongerEntry(t *testing.T) {
	st, err := NewStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	key := mixTestKey()
	events := randomRichEvents(12_000, 4_000, 3, 20)
	commit := func(n int) bool {
		t.Helper()
		w, err := st.CreateRich(key)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if err := w.WriteEvents(events[:n]); err != nil {
			t.Fatal(err)
		}
		kept, err := w.CommitLonger()
		if err != nil {
			t.Fatal(err)
		}
		return kept
	}
	count := func() uint64 {
		t.Helper()
		info, err := ReadInfo(st.EntryPath(key))
		if err != nil {
			t.Fatal(err)
		}
		return info.Events
	}
	if !commit(10_000) {
		t.Fatal("first commit into an empty store was discarded")
	}
	if commit(6_000) {
		t.Error("a shorter tail replaced the longer entry")
	}
	if n := count(); n != 10_000 {
		t.Fatalf("entry holds %d events after the shorter commit, want 10000", n)
	}
	if !commit(12_000) {
		t.Error("a longer tail was discarded")
	}
	if n := count(); n != 12_000 {
		t.Fatalf("entry holds %d events after the longer commit, want 12000", n)
	}
}

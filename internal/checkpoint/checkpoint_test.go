package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func testFP() Fingerprint {
	return Fingerprint{
		Scale:        0.01,
		Instructions: 50000,
		Seed:         42,
		Schemes:      []string{"static", "untangle"},
		Units:        "mixes=[1 2]",
		ParamsTag:    "deadbeefdeadbeef",
	}
}

type unit struct {
	Mean  float64 `json:"mean"`
	Label string  `json:"label"`
}

func TestCreateRecordReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := Open(path, testFP())
	if err != nil {
		t.Fatal(err)
	}
	if j.Resumed() != 0 {
		t.Errorf("fresh journal Resumed = %d", j.Resumed())
	}
	want := unit{Mean: 0.123456789012345, Label: "mcf"}
	if err := j.Record("sens/mcf", want); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("mix/3", unit{Mean: 2.5, Label: "mix3"}); err != nil {
		t.Fatal(err)
	}
	if !j.Done("sens/mcf") || j.Done("sens/lbm") {
		t.Error("Done bookkeeping wrong")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// A new process resumes and sees both units, values intact.
	j2, err := Open(path, testFP())
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Resumed() != 2 || j2.Len() != 2 {
		t.Fatalf("Resumed=%d Len=%d, want 2/2", j2.Resumed(), j2.Len())
	}
	var got unit
	ok, err := j2.Lookup("sens/mcf", &got)
	if err != nil || !ok {
		t.Fatalf("Lookup: ok=%v err=%v", ok, err)
	}
	if got != want {
		t.Errorf("round-tripped unit = %+v, want %+v", got, want)
	}
	if ok, _ := j2.Lookup("sens/lbm", nil); ok {
		t.Error("Lookup invented a unit")
	}
}

func TestFingerprintMismatchFailsLoudly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := Open(path, testFP())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	other := testFP()
	other.Scale = 0.5
	_, err = Open(path, other)
	if err == nil {
		t.Fatal("mismatched fingerprint accepted")
	}
	// The error must name both configurations so the operator can see the drift.
	if !strings.Contains(err.Error(), `"scale":0.01`) || !strings.Contains(err.Error(), `"scale":0.5`) {
		t.Errorf("error does not name both fingerprints: %v", err)
	}
}

func TestTornFinalLineTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := Open(path, testFP())
	if err != nil {
		t.Fatal(err)
	}
	j.Record("sens/a", unit{Mean: 1})
	j.Record("sens/b", unit{Mean: 2})
	j.Close()

	// Simulate a crash mid-append: a torn, unparsable final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"kind":"unit","key":"sens/c","val`)
	f.Close()

	j2, err := Open(path, testFP())
	if err != nil {
		t.Fatal(err)
	}
	if j2.Resumed() != 2 {
		t.Fatalf("Resumed = %d, want 2 (torn unit must not count)", j2.Resumed())
	}
	if j2.Done("sens/c") {
		t.Error("torn unit replayed")
	}
	// Appending after the truncation lands on a clean line boundary.
	if err := j2.Record("sens/c", unit{Mean: 3}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := Open(path, testFP())
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Resumed() != 3 || !j3.Done("sens/c") {
		t.Errorf("after re-record: Resumed=%d Done(c)=%v", j3.Resumed(), j3.Done("sens/c"))
	}
}

// A crash can tear exactly the trailing newline of the last record, leaving
// complete JSON on an unterminated line. Recovery must keep that record and
// start the next append on a fresh line; appending onto the unterminated
// line would make both records unparseable on the following reopen.
func TestTornNewlineKeepsLineBoundary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := Open(path, testFP())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("sens/a", unit{Mean: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[len(data)-1] != '\n' {
		t.Fatal("journal does not end in a newline")
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path, testFP())
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Done("sens/a") {
		t.Error("complete record with a torn newline dropped on recovery")
	}
	if err := j2.Record("mix/9", unit{Mean: 2}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3, err := Open(path, testFP())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j3.Close()
	var got unit
	if ok, err := j3.Lookup("mix/9", &got); err != nil || !ok || got.Mean != 2 {
		raw, _ := os.ReadFile(path)
		t.Fatalf("acknowledged record mix/9 lost across reopen (ok=%v err=%v); file:\n%s", ok, err, raw)
	}
	if !j3.Done("sens/a") {
		t.Error("sens/a lost across the second reopen")
	}
}

func TestTornHeaderStartsOver(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	// A crash before the header's newline landed: no units can exist.
	if err := os.WriteFile(path, []byte(`{"kind":"head`), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path, testFP())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Resumed() != 0 {
		t.Errorf("Resumed = %d", j.Resumed())
	}
	if err := j.Record("sens/a", unit{}); err != nil {
		t.Fatal(err)
	}
}

func TestNonJournalFileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.txt")
	if err := os.WriteFile(path, []byte("Table 6\nIPC 0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, testFP()); err == nil || !strings.Contains(err.Error(), "not a checkpoint journal") {
		t.Fatalf("err = %v", err)
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	fp := testFP()
	if err := os.WriteFile(path,
		[]byte(fmt.Sprintf(`{"kind":"header","version":%d,"fingerprint":%s}`+"\n", Version+1, fp)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, fp); err == nil || !strings.Contains(err.Error(), "format version") {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateRecordIsNoOp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := Open(path, testFP())
	if err != nil {
		t.Fatal(err)
	}
	j.Record("mix/1", unit{Mean: 1, Label: "first"})
	// A resumed caller re-recording the replayed unit must not clobber it.
	j.Record("mix/1", unit{Mean: 9, Label: "second"})
	var got unit
	j.Lookup("mix/1", &got)
	if got.Label != "first" {
		t.Errorf("duplicate Record overwrote the unit: %+v", got)
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"mix/1"`); n != 1 {
		t.Errorf("journal holds %d records for the key, want 1", n)
	}
}

func TestConcurrentRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := Open(path, testFP())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("sens/u%d", i) // contended across workers
				if err := j.Record(key, unit{Mean: float64(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if j.Len() != 20 {
		t.Fatalf("Len = %d, want 20", j.Len())
	}
	j.Close()

	j2, err := Open(path, testFP())
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Resumed() != 20 {
		t.Fatalf("Resumed = %d, want 20", j2.Resumed())
	}
	for i := 0; i < 20; i++ {
		var got unit
		ok, err := j2.Lookup(fmt.Sprintf("sens/u%d", i), &got)
		if !ok || err != nil || got.Mean != float64(i) {
			t.Fatalf("u%d: ok=%v err=%v got=%+v", i, ok, err, got)
		}
	}
}

// A Memory journal keeps the file journal's index semantics — record,
// lookup, dead letters superseded by a later result — without a file.
func TestMemoryJournal(t *testing.T) {
	j := Memory(testFP())
	if j.Path() != "" {
		t.Errorf("Path = %q, want empty", j.Path())
	}
	want := unit{Mean: 1.5, Label: "mcf"}
	if err := j.Record("sens/mcf", want); err != nil {
		t.Fatal(err)
	}
	var got unit
	if ok, err := j.Lookup("sens/mcf", &got); !ok || err != nil || got != want {
		t.Fatalf("Lookup = %+v, %v, %v; want %+v", got, ok, err, want)
	}
	if err := j.RecordDead(DeadLetter{Key: "mix/3", Attempts: 3, Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	if _, dead := j.Dead("mix/3"); !dead || j.DeadLen() != 1 {
		t.Fatal("dead letter not indexed")
	}
	if err := j.Record("mix/3", unit{Label: "mix3"}); err != nil {
		t.Fatal(err)
	}
	if j.DeadLen() != 0 || !j.Done("mix/3") || j.Len() != 2 {
		t.Errorf("replayed unit did not supersede its dead letter: dead %d, len %d", j.DeadLen(), j.Len())
	}
	if err := j.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

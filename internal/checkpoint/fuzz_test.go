package checkpoint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalRecovery feeds arbitrary bytes to the journal recovery path —
// torn final lines, torn headers, interleaved garbage, half-written dead
// records — and checks the recovery invariants:
//
//   - Open and ReadUnits never panic and never hang.
//   - When Open succeeds, the journal is appendable: a fresh unit recorded
//     into the recovered file is visible after a reopen, alongside every
//     unit the recovery kept (recovery truncates the torn tail, so the file
//     must be left on a clean line boundary).
//   - Recovery never invents state: every recovered unit key/value pair and
//     dead letter must literally appear in some line of the input prefix.
func FuzzJournalRecovery(f *testing.F) {
	fp := Fingerprint{Scale: 0.5, Instructions: 1000, Units: "fuzz", ParamsTag: "tag"}
	header := func() []byte {
		b, _ := json.Marshal(record{Kind: "header", Version: Version, Fingerprint: &fp})
		return append(b, '\n')
	}
	unit := func(key, val string) []byte {
		b, _ := json.Marshal(record{Kind: "unit", Key: key, Value: json.RawMessage(`"` + val + `"`)})
		return append(b, '\n')
	}
	dead := func(key string) []byte {
		raw, _ := json.Marshal(DeadLetter{Attempts: 3, Error: "poison"})
		b, _ := json.Marshal(record{Kind: "dead", Key: key, Value: raw})
		return append(b, '\n')
	}

	valid := append(header(), unit("sens/a", "1")...)
	valid = append(valid, dead("mix/2")...)
	valid = append(valid, unit("mix/1", "2")...)
	f.Add(valid)
	f.Add(valid[:len(valid)-7])           // torn final line
	f.Add(header()[:10])                  // torn header
	f.Add(append(valid[:0:0], valid...))  // pristine copy
	f.Add(append(valid, "{garbage\n"...)) // trailing garbage line
	f.Add(append(valid, valid...))        // duplicated journal (second header is garbage)
	f.Add([]byte("\n\n\n"))               // blank lines only
	f.Add(append(header(), dead("")...))  // dead record with empty key
	f.Add(append(header(), []byte(`{"kind":"dead","key":"x","value":"notanobject"}`+"\n")...))
	f.Add([]byte{})
	f.Add(valid[:len(valid)-1]) // newline-only tear: last record complete, unterminated

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		// The read-side path must tolerate anything.
		if _, err := ReadUnits(path, fp); err != nil {
			// An error is fine (not-a-journal, wrong version); a panic is not.
			_ = err
		}

		j, err := Open(path, fp)
		if err != nil {
			return // rejected loudly; nothing more to check
		}
		kept := map[string]string{}
		for _, k := range []string{"sens/a", "mix/1", "mix/2"} {
			var v string
			if ok, lerr := j.Lookup(k, &v); lerr == nil && ok {
				kept[k] = v
			}
		}
		keptDead := j.DeadLetters()

		// Recovery must never invent state: everything kept appears in the
		// input bytes.
		for k := range kept {
			if !bytes.Contains(data, []byte(`"`+k+`"`)) {
				t.Fatalf("recovered unit %q absent from input", k)
			}
		}
		for _, dl := range keptDead {
			if !bytes.Contains(data, []byte(`"`+dl.Key+`"`)) {
				t.Fatalf("recovered dead letter %q absent from input", dl.Key)
			}
		}

		// The recovered journal must be appendable on a clean boundary.
		if err := j.Record("fuzz/new", "appended"); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		j2, err := Open(path, fp)
		if err != nil {
			t.Fatalf("reopen after recovery+append: %v", err)
		}
		defer j2.Close()
		var got string
		if ok, err := j2.Lookup("fuzz/new", &got); err != nil || !ok || got != "appended" {
			t.Fatalf("appended unit lost across reopen: ok=%v err=%v got=%q", ok, err, got)
		}
		for k, v := range kept {
			var rv string
			if ok, err := j2.Lookup(k, &rv); err != nil || !ok || rv != v {
				t.Fatalf("recovered unit %q lost or changed across reopen: ok=%v err=%v %q->%q", k, ok, err, v, rv)
			}
		}
		if got, want := j2.DeadLen(), len(keptDead); got != want {
			t.Fatalf("dead letters changed across reopen: %d -> %d", want, got)
		}
	})
}

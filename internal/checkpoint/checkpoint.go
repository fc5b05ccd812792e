// Package checkpoint is the experiment engine's crash-recovery journal: an
// append-only JSONL file that records each completed unit of a campaign (a
// sensitivity benchmark pass, a mix outcome) as a self-describing record,
// keyed by a configuration fingerprint so a resumed process can prove it is
// continuing the same run before skipping any work.
//
// # Format
//
// Line 1 is a header record carrying the fingerprint and format version.
// Every further line is a unit record or a dead-letter record:
//
//	{"kind":"header","version":1,"fingerprint":{...}}
//	{"kind":"unit","key":"sens/mcf_0","value":{...}}
//	{"kind":"dead","key":"mix/3","value":{"attempts":3,"error":"..."}}
//	{"kind":"unit","key":"mix/3","value":{...}}
//
// Units are journaled as they complete (concurrently, under an internal
// lock) and each append is flushed and fsynced before Record returns, so a
// process killed at any instant loses at most the unit in flight. A torn
// final line — the record the crash interrupted — is detected on open and
// truncated away before appending resumes.
//
// A dead record is the campaign service's dead-letter queue entry: the unit
// exhausted its retry budget (or panicked) and was set aside so the rest of
// the campaign could finish. A later unit record for the same key —
// appended by a replay after the underlying fault was fixed — supersedes
// the dead record, which is how an append-only file expresses "no longer
// poisoned". See docs/ROBUSTNESS.md.
//
// # Resume semantics
//
// Opening an existing journal with a matching fingerprint yields the set
// of completed units; the caller skips those and re-emits their journaled
// values, which is what makes an interrupted-and-resumed campaign
// byte-identical to an uninterrupted one (the equivalence is tested in
// cmd/experiments). Opening with a different fingerprint fails loudly:
// silently mixing results from two configurations is precisely the failure
// mode a checkpoint exists to prevent. See docs/ROBUSTNESS.md.
package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"
)

// F64 is a float64 that journals as its IEEE-754 bit pattern (a decimal
// uint64), giving two guarantees plain JSON floats cannot: the round trip is
// bit-exact by construction, and non-finite values survive — encoding/json
// rejects NaN and ±Inf outright, and a sensitivity curve at a tiny
// instruction budget is full of NaN (0/0 IPC normalization). A journal must
// be able to record whatever the engine produced, so unit values store their
// floats as F64.
type F64 float64

// MarshalJSON implements json.Marshaler.
func (f F64) MarshalJSON() ([]byte, error) {
	return strconv.AppendUint(nil, math.Float64bits(float64(f)), 10), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *F64) UnmarshalJSON(b []byte) error {
	u, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		return fmt.Errorf("checkpoint: F64 %q: %w", b, err)
	}
	*f = F64(math.Float64frombits(u))
	return nil
}

// F64s converts a float slice to its journal representation.
func F64s(xs []float64) []F64 {
	if xs == nil {
		return nil
	}
	out := make([]F64, len(xs))
	for i, x := range xs {
		out[i] = F64(x)
	}
	return out
}

// Floats converts a journaled slice back to float64s, bit-identical to what
// was recorded.
func Floats(xs []F64) []float64 {
	if xs == nil {
		return nil
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// Version is the journal format version; bumped on incompatible changes.
const Version = 1

// Fingerprint pins down everything that determines a campaign's results.
// Two runs with equal fingerprints produce identical units, so completed
// work from one may be reused by the other.
type Fingerprint struct {
	// Scale is the workload scale factor (1.0 = paper fidelity).
	Scale float64 `json:"scale"`
	// Instructions is the per-benchmark sensitivity instruction budget.
	Instructions uint64 `json:"instructions"`
	// Seed is the simulation seed driving the schemes' random delays.
	Seed uint64 `json:"seed"`
	// Schemes lists the partitioning schemes under evaluation, in order.
	Schemes []string `json:"schemes,omitempty"`
	// Units names the unit set of the campaign (mix ids, benchmark set) so
	// a -mixes 1,2 journal is not resumed by a full 16-mix run.
	Units string `json:"units,omitempty"`
	// ParamsTag fingerprints the workload/scheme parameter tables compiled
	// into the binary (experiments.ParamsFingerprint) — the stand-in for a
	// git describe, so a journal never silently spans a params change.
	ParamsTag string `json:"params_tag,omitempty"`
}

func (fp Fingerprint) String() string {
	b, _ := json.Marshal(fp)
	return string(b)
}

type record struct {
	Kind        string          `json:"kind"`
	Version     int             `json:"version,omitempty"`
	Fingerprint *Fingerprint    `json:"fingerprint,omitempty"`
	Key         string          `json:"key,omitempty"`
	Value       json.RawMessage `json:"value,omitempty"`
}

// DeadLetter is one poisoned unit's dead-letter record: the unit key, how
// many attempts it burned, and the final error (with the recovered stack
// when the failure was a panic). It is what a campaign's degraded manifest
// and the replay command enumerate.
type DeadLetter struct {
	// Key is the unit's journal key ("mix/3"); populated from the record
	// envelope on read, never serialized inside the value.
	Key string `json:"-"`
	// Attempts is how many times the unit ran before being declared
	// poisoned (1 for failures the retry layer never retries).
	Attempts int `json:"attempts"`
	// Error is the final error's text.
	Error string `json:"error"`
	// Stack is the panicking goroutine's stack when the poison was a panic.
	Stack string `json:"stack,omitempty"`
}

// Journal is an open checkpoint file. All methods are safe for concurrent
// use; Record serializes appends internally.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	fp      Fingerprint
	done    map[string]json.RawMessage
	dead    map[string]DeadLetter
	resumed int
}

// parsed is the outcome of replaying a journal's record lines: the
// completed units, the still-dead letters (a unit record supersedes an
// earlier dead record for its key), and the byte length of the valid
// prefix — anything past it is a torn tail from a crash mid-append.
type parsed struct {
	units map[string]json.RawMessage
	dead  map[string]DeadLetter
	good  int
	// unterminated reports that the valid prefix ends in a complete record
	// missing only its trailing newline.
	unterminated bool
}

// parseRecords replays the record lines after the header. It stops at the
// first line that is not a well-formed unit or dead record — the torn final
// line a crash leaves — and reports how many bytes of data were valid.
// headerLen is the header line's length including its newline.
//
// A line that is not valid UTF-8 is not well-formed either: the journal
// writes every line through encoding/json, which never emits invalid
// UTF-8, and decoding one would turn its stray bytes into U+FFFD, a key
// that no record ever held.
func parseRecords(data []byte, lines [][]byte, headerLen int) parsed {
	p := parsed{
		units: map[string]json.RawMessage{},
		dead:  map[string]DeadLetter{},
		good:  headerLen,
	}
scan:
	for _, line := range lines {
		var rec record
		if !utf8.Valid(line) || json.Unmarshal(line, &rec) != nil || rec.Key == "" {
			break
		}
		switch rec.Kind {
		case "unit":
			p.units[rec.Key] = rec.Value
			// A unit record for a previously dead key is a replay's repair:
			// the poison is gone.
			delete(p.dead, rec.Key)
		case "dead":
			var dl DeadLetter
			if err := json.Unmarshal(rec.Value, &dl); err != nil {
				break scan
			}
			dl.Key = rec.Key
			if _, ok := p.units[rec.Key]; !ok {
				p.dead[rec.Key] = dl
			}
		default:
			break scan
		}
		p.good += len(line) + 1
	}
	// The last record may be complete JSON whose newline never landed (a
	// crash between the record's bytes and its terminator). Its bytes count
	// as valid, and the missing terminator is reported so Open can restore
	// it before the next append.
	if p.good > len(data) {
		p.good = len(data)
		p.unterminated = true
	}
	return p
}

// Open creates path as a fresh journal for fp, or resumes an existing one
// after verifying its fingerprint matches. A file whose header disagrees
// with fp returns an error naming both fingerprints.
func Open(path string, fp Fingerprint) (*Journal, error) {
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		return create(path, fp)
	case err != nil:
		return nil, err
	case len(data) == 0 || !bytes.ContainsRune(data, '\n'):
		// An empty file, or one torn inside its very first line, is a
		// journal whose header write never landed: no units can have been
		// recorded, so start it over.
		return create(path, fp)
	}

	lines := bytes.Split(data, []byte("\n"))
	var hdr record
	if err := json.Unmarshal(lines[0], &hdr); err != nil || hdr.Kind != "header" || hdr.Fingerprint == nil {
		return nil, fmt.Errorf("checkpoint: %s is not a checkpoint journal", path)
	}
	if hdr.Version != Version {
		return nil, fmt.Errorf("checkpoint: %s has format version %d, this binary writes %d", path, hdr.Version, Version)
	}
	if hdr.Fingerprint.String() != fp.String() {
		return nil, fmt.Errorf("checkpoint: %s was written by a different configuration\n  journal: %s\n  this run: %s",
			path, hdr.Fingerprint, fp)
	}

	// Replay the unit and dead-letter records. parsed.good tracks the byte
	// length of the valid prefix; anything past it (a torn final line from
	// a crash mid-append) is truncated away so new appends start on a clean
	// boundary.
	p := parseRecords(data, lines[1:], len(lines[0])+1)
	j := &Journal{path: path, fp: fp, done: p.units, dead: p.dead}
	j.resumed = len(j.done)

	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(int64(p.good)); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(int64(p.good), 0); err != nil {
		f.Close()
		return nil, err
	}
	if p.unterminated {
		// Terminate the kept record so the next append starts its own line
		// instead of extending this one into an unparseable tail.
		if _, err := f.Write([]byte{'\n'}); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	j.f = f
	return j, nil
}

// Memory returns a journal held only in memory: the same index, Lookup,
// Record and dead-letter semantics as a file-backed journal, with no file
// and no fsync. Campaigns run without -checkpoint use it, so every run
// assembles its phases from one store whether or not it is durable.
func Memory(fp Fingerprint) *Journal {
	return &Journal{fp: fp, done: map[string]json.RawMessage{}, dead: map[string]DeadLetter{}}
}

func create(path string, fp Fingerprint) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f, path: path, fp: fp, done: map[string]json.RawMessage{}, dead: map[string]DeadLetter{}}
	if err := j.append(record{Kind: "header", Version: Version, Fingerprint: &fp}); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// append marshals rec, writes it as one line, and makes it durable. The
// caller must hold no lock; append takes it. A Memory journal has no file
// and keeps only its index.
func (j *Journal) append(rec record) error {
	if j.path == "" {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return err
	}
	return j.f.Sync()
}

// Record journals the completed unit key with its result value. Keys are
// recorded at most once; re-recording a resumed key is a silent no-op so
// callers need not special-case replayed units. Recording a key that was
// dead-lettered supersedes the dead record — the replay path: the unit ran
// to completion after its fault was fixed, so it is no longer poisoned.
func (j *Journal) Record(key string, value any) error {
	raw, err := json.Marshal(value)
	if err != nil {
		return err
	}
	j.mu.Lock()
	if _, ok := j.done[key]; ok {
		j.mu.Unlock()
		return nil
	}
	j.done[key] = raw
	delete(j.dead, key)
	j.mu.Unlock()
	return j.append(record{Kind: "unit", Key: key, Value: raw})
}

// RecordDead journals key as dead-lettered: the unit is poisoned (it
// exhausted its retry budget, or panicked) and the campaign is completing
// without it. The record is durable like any unit record, so a restart
// still knows which units to skip — and which ones a replay must re-drive.
// Dead-lettering a key that already completed is a no-op (the result wins);
// re-dead-lettering a dead key updates the journaled diagnosis.
func (j *Journal) RecordDead(dl DeadLetter) error {
	if dl.Key == "" {
		return fmt.Errorf("checkpoint: dead letter with empty key")
	}
	raw, err := json.Marshal(dl)
	if err != nil {
		return err
	}
	j.mu.Lock()
	if _, ok := j.done[dl.Key]; ok {
		j.mu.Unlock()
		return nil
	}
	j.dead[dl.Key] = dl
	j.mu.Unlock()
	return j.append(record{Kind: "dead", Key: dl.Key, Value: raw})
}

// Dead returns key's dead-letter record, if the unit is currently
// dead-lettered (a completed unit is never dead).
func (j *Journal) Dead(key string) (DeadLetter, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	dl, ok := j.dead[key]
	return dl, ok
}

// DeadLetters lists every currently dead-lettered unit, sorted by key — the
// work a replay re-drives.
func (j *Journal) DeadLetters() []DeadLetter {
	j.mu.Lock()
	out := make([]DeadLetter, 0, len(j.dead))
	for _, dl := range j.dead {
		out = append(out, dl)
	}
	j.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out
}

// DeadLen returns the number of dead-lettered units — the DLQ depth.
func (j *Journal) DeadLen() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.dead)
}

// Lookup returns the journaled value for key, if the unit completed in a
// previous (or the current) process.
func (j *Journal) Lookup(key string, value any) (bool, error) {
	j.mu.Lock()
	raw, ok := j.done[key]
	j.mu.Unlock()
	if !ok {
		return false, nil
	}
	if value == nil {
		return true, nil
	}
	return true, json.Unmarshal(raw, value)
}

// Done reports whether key's unit is journaled.
func (j *Journal) Done(key string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.done[key]
	return ok
}

// Resumed returns how many units the journal held when it was opened —
// the work a restart skipped.
func (j *Journal) Resumed() int { return j.resumed }

// ReadUnits loads the completed units of the journal at path without opening
// it for appending — the read side of a shard merge, safe to call on a
// journal file whose writing process just died (a torn final line, the
// record the death interrupted, is skipped; the file is not modified). The
// journal's fingerprint must match fp exactly: merging units journaled under
// a different configuration is the corruption a fingerprint exists to
// prevent, so a mismatch is an error naming both. A missing file is not an
// error — it returns an empty map, the natural zero of a merge.
func ReadUnits(path string, fp Fingerprint) (map[string]json.RawMessage, error) {
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		return map[string]json.RawMessage{}, nil
	case err != nil:
		return nil, err
	case len(data) == 0 || !bytes.ContainsRune(data, '\n'):
		// Header write never landed: no units recorded.
		return map[string]json.RawMessage{}, nil
	}
	lines := bytes.Split(data, []byte("\n"))
	var hdr record
	if err := json.Unmarshal(lines[0], &hdr); err != nil || hdr.Kind != "header" || hdr.Fingerprint == nil {
		return nil, fmt.Errorf("checkpoint: %s is not a checkpoint journal", path)
	}
	if hdr.Version != Version {
		return nil, fmt.Errorf("checkpoint: %s has format version %d, this binary reads %d", path, hdr.Version, Version)
	}
	if hdr.Fingerprint.String() != fp.String() {
		return nil, fmt.Errorf("checkpoint: %s was written by a different configuration\n  journal: %s\n  this run: %s",
			path, hdr.Fingerprint, fp)
	}
	return parseRecords(data, lines[1:], len(lines[0])+1).units, nil
}

// MergeFrom folds the units of the journal at path into j, appending (and
// making durable) every unit j does not already hold. The source must carry
// j's fingerprint. Units are deterministic functions of the fingerprinted
// configuration, so a key present in both journals must hold byte-identical
// values; a disagreement means one of the journals is lying about its
// configuration (or a unit is nondeterministic) and fails the merge loudly
// rather than silently preferring either side. The completion order of the
// source journal is irrelevant — units merge by key — which is what lets
// per-shard journals, each recording its own interleaving of the campaign,
// collapse into one canonical journal. Returns how many units were new.
func (j *Journal) MergeFrom(path string) (added int, err error) {
	units, err := ReadUnits(path, j.fp)
	if err != nil {
		return 0, err
	}
	// Deterministic append order keeps merged journals reproducible even
	// though lookup is by key.
	keys := make([]string, 0, len(units))
	for key := range units {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		raw := units[key]
		j.mu.Lock()
		prev, ok := j.done[key]
		j.mu.Unlock()
		if ok {
			if !bytes.Equal(prev, raw) {
				return added, fmt.Errorf("checkpoint: merge of %s: unit %q disagrees with the value already journaled (%d vs %d bytes) — same fingerprint, different results",
					path, key, len(raw), len(prev))
			}
			continue
		}
		if err := j.Record(key, json.RawMessage(raw)); err != nil {
			return added, fmt.Errorf("checkpoint: merge of %s: %w", path, err)
		}
		added++
	}
	return added, nil
}

// Path returns the journal's file path, so sidecar files (the observability
// heartbeat) can be placed next to it; "" for a Memory journal.
func (j *Journal) Path() string { return j.path }

// Fingerprint returns the configuration the journal is pinned to, so the
// journals that merge into it (per-shard files) can be read under it.
func (j *Journal) Fingerprint() Fingerprint { return j.fp }

// Len returns the number of journaled units.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Close releases the journal file. The data is already durable — every
// Record fsynced — so Close after a successful campaign is cosmetic; the
// file is typically deleted by the operator once the report is in hand.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// serveProc is one resident-service subprocess under test.
type serveProc struct {
	t    *testing.T
	cmd  *exec.Cmd
	addr string
	err  error         // cmd.Wait()'s result, valid once done is closed
	done chan struct{} // closed when the subprocess exits
}

// startServe re-execs the test binary in -serve mode and waits for the
// ready file to announce the bound address. extraEnv rides on top of the
// inherited environment (the term-hook injection path).
func startServe(t *testing.T, dir string, extraEnv []string, args ...string) *serveProc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ready := filepath.Join(dir, fmt.Sprintf("ready.%d", time.Now().UnixNano()))
	argv := append([]string{"-serve", "-http", "127.0.0.1:0", "-ready-file", ready}, args...)
	cmd := exec.Command(exe, argv...)
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), extraEnv...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sp := &serveProc{t: t, cmd: cmd, done: make(chan struct{})}
	go func() { sp.err = cmd.Wait(); close(sp.done) }()
	t.Cleanup(func() {
		select {
		case <-sp.done:
		default:
			cmd.Process.Kill()
			<-sp.done
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(ready); err == nil && len(b) > 0 {
			sp.addr = string(b)
			return sp
		}
		select {
		case <-sp.done:
			t.Fatalf("serve exited before ready: %v", sp.err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("serve never wrote its ready file")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// wait blocks until the serve process exits and returns its error.
func (sp *serveProc) wait() error {
	select {
	case <-sp.done:
		return sp.err
	case <-time.After(60 * time.Second):
		sp.t.Fatal("serve did not exit in time")
		return nil
	}
}

func (sp *serveProc) url(path string) string { return "http://" + sp.addr + path }

func (sp *serveProc) postJSON(path string, body any) (*http.Response, []byte) {
	sp.t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		sp.t.Fatal(err)
	}
	resp, err := http.Post(sp.url(path), "application/json", bytes.NewReader(raw))
	if err != nil {
		sp.t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func (sp *serveProc) getJSON(path string, v any) int {
	sp.t.Helper()
	resp, err := http.Get(sp.url(path))
	if err != nil {
		sp.t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			sp.t.Fatalf("GET %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

// pollCampaign polls GET /campaigns/{id} until the campaign leaves the
// running state, returning its final view.
func (sp *serveProc) pollCampaign(id string, timeout time.Duration) campaignView {
	sp.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var v campaignView
		if code := sp.getJSON("/campaigns/"+id, &v); code == http.StatusOK && v.State != "running" {
			return v
		}
		if time.Now().After(deadline) {
			sp.t.Fatalf("campaign %s still running after %v", id, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// A campaign submitted to the resident service commits -out and -telemetry
// bytes identical to a direct CLI run's, and the service's HTTP surface
// (campaign status, /queue) answers throughout.
func TestServeCampaignMatchesDirectRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two small campaigns, one in a subprocess")
	}
	direct := equivalenceConfig(t.TempDir())
	direct.sensIns = 0 // mixes only: keep the served half quick
	wantReport, wantTrace := runCampaignFiles(t, context.Background(), direct)

	dir := t.TempDir()
	sp := startServe(t, dir, nil, "-jobs", "1")

	req := campaignRequest{
		ID:         "c1",
		Scale:      direct.scale,
		Mixes:      "1,2",
		Checkpoint: filepath.Join(dir, "c1.ckpt"),
		Out:        filepath.Join(dir, "c1.txt"),
		Telemetry:  filepath.Join(dir, "c1.jsonl"),
	}
	resp, body := sp.postJSON("/campaigns", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	// A duplicate live submission is refused (guard on the state: at smoke
	// scale the first campaign could already have finished).
	var cur campaignView
	sp.getJSON("/campaigns/c1", &cur)
	if cur.State == "running" {
		if resp, body := sp.postJSON("/campaigns", req); resp.StatusCode != http.StatusConflict {
			t.Errorf("duplicate submit: %d %s, want 409", resp.StatusCode, body)
		}
	}
	// The queue endpoint answers while the campaign runs.
	var qs struct {
		Len int `json:"len"`
		Cap int `json:"cap"`
	}
	if code := sp.getJSON("/queue", &qs); code != http.StatusOK || qs.Cap <= 0 {
		t.Errorf("/queue: code %d, snapshot %+v", code, qs)
	}

	v := sp.pollCampaign("c1", 5*time.Minute)
	if v.State != "completed" {
		t.Fatalf("campaign ended %s (err %q), want completed", v.State, v.Error)
	}
	foundMix := false
	for _, js := range v.Jobs {
		if js.ID == "c1/mix" {
			foundMix = true
			if js.Done != 2 || js.State != "completed" {
				t.Errorf("mix job status = %+v", js)
			}
		}
	}
	if !foundMix {
		t.Errorf("campaign view has no c1/mix job: %+v", v.Jobs)
	}

	// Graceful shutdown on SIGTERM, exit 0.
	sp.cmd.Process.Signal(syscall.SIGTERM)
	if err := sp.wait(); err != nil {
		t.Fatalf("serve exited uncleanly after SIGTERM: %v", err)
	}

	gotReport, err := os.ReadFile(req.Out)
	if err != nil {
		t.Fatal(err)
	}
	gotTrace, err := os.ReadFile(req.Telemetry)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotReport, wantReport) {
		t.Errorf("served report differs from direct run (%d vs %d bytes)", len(gotReport), len(wantReport))
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Errorf("served telemetry differs from direct run (%d vs %d bytes)", len(gotTrace), len(wantTrace))
	}
}

// The graceful-drain guarantee: a service terminated mid-campaign journals
// its in-flight unit, commits a valid partial report, and exits 0; a
// restarted service resumes the campaign from the same checkpoint and the
// final outputs are byte-identical to an untroubled run's.
func TestServeDrainRestartEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three small campaigns, two in subprocesses")
	}
	direct := equivalenceConfig(t.TempDir())
	direct.sensIns = 0
	wantReport, wantTrace := runCampaignFiles(t, context.Background(), direct)

	dir := t.TempDir()
	req := campaignRequest{
		ID:         "c1",
		Scale:      direct.scale,
		Mixes:      "1,2",
		Checkpoint: filepath.Join(dir, "c1.ckpt"),
		Out:        filepath.Join(dir, "c1.txt"),
		Telemetry:  filepath.Join(dir, "c1.jsonl"),
	}

	// First incarnation: the term hook drains the service the moment mix/1
	// journals — the graceful-shutdown window with mix/2 still queued.
	sentinel := filepath.Join(dir, "drained")
	sp := startServe(t, dir, []string{
		envServeTermKey + "=" + mixKey(1),
		envServeTermOnce + "=" + sentinel,
	}, "-jobs", "1")
	if resp, body := sp.postJSON("/campaigns", req); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	if err := sp.wait(); err != nil {
		t.Fatalf("drained serve exited uncleanly: %v", err)
	}
	if _, err := os.Stat(sentinel); err != nil {
		t.Fatalf("term hook never fired: %v", err)
	}
	partial, err := os.ReadFile(req.Out)
	if err != nil {
		t.Fatalf("interrupted campaign committed no report: %v", err)
	}
	if !bytes.Contains(partial, []byte("1/2 mixes")) {
		t.Fatalf("drain point missed; interrupted manifest:\n%s", partial)
	}

	// Second incarnation: the once-sentinel disarms the hook; resubmitting
	// the campaign against the same checkpoint resumes it.
	sp2 := startServe(t, dir, []string{
		envServeTermKey + "=" + mixKey(1),
		envServeTermOnce + "=" + sentinel,
	}, "-jobs", "1")
	if resp, body := sp2.postJSON("/campaigns", req); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", resp.StatusCode, body)
	}
	v := sp2.pollCampaign("c1", 5*time.Minute)
	if v.State != "completed" {
		t.Fatalf("resumed campaign ended %s (err %q), want completed", v.State, v.Error)
	}
	resumed := 0
	for _, js := range v.Jobs {
		resumed += js.Resumed
	}
	if resumed == 0 {
		t.Error("resumed campaign replayed no units from the journal")
	}
	sp2.cmd.Process.Signal(syscall.SIGTERM)
	if err := sp2.wait(); err != nil {
		t.Fatalf("serve exited uncleanly after SIGTERM: %v", err)
	}

	gotReport, err := os.ReadFile(req.Out)
	if err != nil {
		t.Fatal(err)
	}
	gotTrace, err := os.ReadFile(req.Telemetry)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotReport, wantReport) {
		t.Errorf("resumed report differs from untroubled run (%d vs %d bytes)", len(gotReport), len(wantReport))
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Errorf("resumed telemetry differs from untroubled run (%d vs %d bytes)", len(gotTrace), len(wantTrace))
	}
}

// Bad submissions are rejected with useful errors, not accepted and failed.
func TestServeRejectsBadSubmissions(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a subprocess")
	}
	dir := t.TempDir()
	sp := startServe(t, dir, nil)
	for name, req := range map[string]campaignRequest{
		"no id":          {Scale: 0.01, Checkpoint: filepath.Join(dir, "x.ckpt")},
		"no checkpoint":  {ID: "x", Scale: 0.01},
		"bad scale":      {ID: "x", Scale: 7, Checkpoint: filepath.Join(dir, "x.ckpt")},
		"bad mixes":      {ID: "x", Scale: 0.01, Mixes: "99", Checkpoint: filepath.Join(dir, "x.ckpt")},
		"nothing to run": {ID: "x", Scale: 0.01, Mixes: "none", Checkpoint: filepath.Join(dir, "x.ckpt")},
	} {
		if resp, body := sp.postJSON("/campaigns", req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", name, resp.StatusCode, body)
		} else if !strings.Contains(string(body), "error") {
			t.Errorf("%s: body %s carries no error", name, body)
		}
	}
	if code := sp.getJSON("/campaigns/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown campaign: %d, want 404", code)
	}
	sp.cmd.Process.Signal(syscall.SIGTERM)
	if err := sp.wait(); err != nil {
		t.Fatalf("serve exited uncleanly: %v", err)
	}
}

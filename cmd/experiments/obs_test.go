package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"untangle/internal/experiments"
	"untangle/internal/obs"
)

// The acceptance bar for the observability layer: a campaign run with every
// surface enabled — HTTP server, span trace, checkpoint heartbeat — commits
// a report and telemetry trace byte-identical to a run with observability
// off. Along the way the test scrapes /metrics and /progress mid-campaign
// (from the unit hook, i.e. while the mix phase is in flight) and asserts
// both documents are well-formed.
func TestObservabilityDoesNotPerturbOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two small campaigns")
	}
	freshReport, freshTrace := runCampaignFiles(t, context.Background(), equivalenceConfig(t.TempDir()))

	cfg := equivalenceConfig(t.TempDir())
	dir := filepath.Dir(cfg.outPath)
	cfg.ckptPath = filepath.Join(dir, "run.ckpt")
	cfg.obsPath = filepath.Join(dir, "spans.jsonl")
	cfg.httpAddr = "127.0.0.1:0"

	var addr string
	cfg.httpReady = func(a string) { addr = a }
	scraped := false
	cfg.unitHook = func(key string) {
		if scraped || !strings.HasPrefix(key, "mix/") {
			return
		}
		scraped = true

		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Errorf("mid-campaign /metrics: %v", err)
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		metrics := string(body)
		for _, want := range []string{
			"untangle_obs_pool_active_workers",
			"# TYPE untangle_obs_sensitivity_unit_seconds histogram",
		} {
			if !strings.Contains(metrics, want) {
				t.Errorf("mid-campaign /metrics missing %q:\n%s", want, metrics)
			}
		}

		resp, err = http.Get("http://" + addr + "/progress")
		if err != nil {
			t.Errorf("mid-campaign /progress: %v", err)
			return
		}
		var snap obs.Snapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Errorf("mid-campaign /progress not JSON: %v", err)
			return
		}
		// The sensitivity study (36 units) is complete; the first mix has
		// finished simulating but its observer callback (a defer) has not
		// counted it yet — that is what "mid-campaign" means at this hook.
		if snap.Done < 36 || snap.Done >= snap.Total || snap.Total != 38 {
			t.Errorf("mid-campaign progress = %d/%d, want 36..37 of 38", snap.Done, snap.Total)
		}
	}

	gotReport, gotTrace := runCampaignFiles(t, context.Background(), cfg)
	if !scraped {
		t.Error("the mid-campaign scrape never ran")
	}
	if !bytes.Equal(gotReport, freshReport) {
		t.Errorf("observed report differs from unobserved run (%d vs %d bytes)", len(gotReport), len(freshReport))
	}
	if !bytes.Equal(gotTrace, freshTrace) {
		t.Errorf("observed telemetry differs from unobserved run (%d vs %d bytes)", len(gotTrace), len(freshTrace))
	}

	// The wall-clock surfaces materialized: spans for campaign, phases,
	// units and engine passes; a heartbeat sidecar next to the checkpoint.
	spans, err := os.ReadFile(cfg.obsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"phase":"campaign"`, `"phase":"sensitivity"`, `"phase":"mix"`, `"phase":"sensitivity/pass"`} {
		if !bytes.Contains(spans, []byte(want)) {
			t.Errorf("span trace missing %s", want)
		}
	}
	if _, err := os.Stat(cfg.ckptPath + ".heartbeat"); err != nil {
		t.Errorf("no heartbeat sidecar: %v", err)
	}
}

// Sensitivity units whose front end replays from a warm fe-cache settle
// "replayed" on every path — direct, the -dlq policy, and -shards, where
// the outcome crosses the shard protocol — so they stay out of the
// unit-latency histograms and the ETA rate.
func TestWarmCacheUnitsReportReplayed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three small campaigns")
	}
	cacheDir := t.TempDir()
	campaignCfg := func() config {
		cfg := equivalenceConfig(t.TempDir())
		cfg.ids = []int{1}
		cfg.feCacheDir = cacheDir
		cfg.ckptPath = filepath.Join(filepath.Dir(cfg.outPath), "run.ckpt")
		return cfg
	}
	runCampaignFiles(t, context.Background(), campaignCfg()) // fills the cache

	for _, v := range []struct {
		dlq    bool
		shards int
	}{{false, 0}, {true, 0}, {false, 2}} {
		cfg := campaignCfg()
		cfg.dlq = v.dlq
		cfg.shards = v.shards
		var mu sync.Mutex
		outcomes := map[string]string{}
		cfg.observe = func(phase, key string) func(string, error) {
			return func(outcome string, _ error) {
				if phase == "sensitivity" {
					mu.Lock()
					outcomes[key] = outcome
					mu.Unlock()
				}
			}
		}
		runCampaignFiles(t, context.Background(), cfg)
		mu.Lock()
		if len(outcomes) != 36 {
			t.Errorf("dlq=%v shards=%d: observed %d sensitivity units, want 36", v.dlq, v.shards, len(outcomes))
		}
		for key, outcome := range outcomes {
			if outcome != experiments.UnitReplayed {
				t.Errorf("dlq=%v shards=%d: warm unit %s settled %q, want %q", v.dlq, v.shards, key, outcome, experiments.UnitReplayed)
			}
		}
		mu.Unlock()
	}
}

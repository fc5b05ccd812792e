package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"untangle/internal/checkpoint"
	"untangle/internal/experiments"
	"untangle/internal/obs"
	"untangle/internal/telemetry"
	"untangle/internal/tracecache"
	"untangle/internal/workload"
)

// obsState is the campaign's operational observability, assembled by
// startObs and torn down by its stop. Every field may be nil — each surface
// (HTTP server, span trace, live progress line, heartbeat) enables
// independently — and a nil *obsState means observability is fully off,
// costing the campaign nothing (experiments.ObserveUnit then allocates
// nothing: TestObserveUnitUnobservedAllocs).
//
// None of this touches the campaign's outputs: -out and -telemetry are
// byte-identical with and without observability enabled
// (TestObservabilityDoesNotPerturbOutputs).
type obsState struct {
	campaign  *obs.Campaign
	server    *obs.Server
	reporter  *obs.Reporter
	heartbeat *obs.Heartbeat
	tracer    *obs.Tracer
	traceFile *os.File
}

// obsEnabled reports whether any observability surface is wanted. The
// progress line needs a real terminal (and not -quiet); the heartbeat rides
// along with the checkpoint journal; -http and -obs-trace are explicit.
func (c config) obsEnabled() bool {
	return c.httpAddr != "" || c.obsPath != "" || c.ckptPath != "" ||
		(!c.quiet && obs.IsTTY(os.Stderr))
}

// startObs wires up the enabled surfaces and installs the unit observer.
// An in-memory journal has no heartbeat, and store may be nil (no
// trace-cache gauges then). Returns nil when nothing is enabled.
func startObs(cfg config, journal *checkpoint.Journal, store *tracecache.Store) (*obsState, error) {
	// Serve mode: the resident service owns the progress tracker, registry,
	// and HTTP server, shared across concurrent campaigns — a per-campaign
	// observer would fight over the process-wide unit hook.
	if cfg.service != nil {
		return nil, nil
	}
	if !cfg.obsEnabled() {
		return nil, nil
	}
	st := &obsState{}
	progress := obs.NewProgress()

	if path := obs.HeartbeatPath(journal); path != "" {
		hb, err := obs.OpenHeartbeat(path)
		if err != nil {
			// The heartbeat is advisory; a run directory that rejects the
			// sidecar should not kill the campaign.
			log.Printf("heartbeat: %v (continuing without)", err)
		} else {
			st.heartbeat = hb
			progress.SetPrior(hb.Prior())
		}
	}

	if cfg.obsPath != "" {
		f, err := os.Create(cfg.obsPath)
		if err != nil {
			st.stop(nil)
			return nil, fmt.Errorf("obs trace: %w", err)
		}
		st.traceFile = f
		st.tracer = obs.NewTracer(f)
	}

	reg := telemetry.NewRegistry()
	store.RegisterMetrics(reg) // nil-safe: no-op without -fe-cache
	st.campaign = obs.NewCampaign("experiments", st.tracer, progress, reg)
	if cfg.sensIns > 0 {
		st.campaign.Phase("sensitivity", len(workload.SPECBenchmarks))
	}
	st.campaign.Phase("mix", len(cfg.ids))
	experiments.SetUnitObserver(st.campaign.Unit)

	if cfg.httpAddr != "" {
		srv, err := obs.StartServer(cfg.httpAddr, progress,
			obs.NamedRegistry{Namespace: "untangle", Registry: reg})
		if err != nil {
			st.stop(nil)
			return nil, err
		}
		st.server = srv
		log.Printf("observability: http://%s/{metrics,progress,healthz,debug/pprof}", srv.Addr())
		if cfg.httpReady != nil {
			cfg.httpReady(srv.Addr())
		}
	}

	var line io.Writer // stays a nil interface unless the terminal is real
	if !cfg.quiet && obs.IsTTY(os.Stderr) {
		line = os.Stderr
	}
	if line != nil || st.heartbeat != nil {
		st.reporter = obs.StartReporter(progress, st.heartbeat, line, time.Second)
	}
	return st, nil
}

// stop tears the surfaces down in dependency order: the reporter first (it
// reads progress and beats the heartbeat), then the campaign spans, then
// the sinks. err is the campaign's outcome, recorded on the root span.
// Nil-safe, so error paths in startObs and run can call it unconditionally.
func (st *obsState) stop(err error) {
	if st == nil {
		return
	}
	experiments.SetUnitObserver(nil)
	st.reporter.Stop()
	st.campaign.End(err)
	if st.tracer != nil {
		if ferr := st.tracer.Flush(); ferr != nil {
			log.Printf("obs trace: %v", ferr)
		}
	}
	if st.traceFile != nil {
		st.traceFile.Close()
	}
	if serr := st.server.Shutdown(); serr != nil {
		log.Printf("obs http: %v", serr)
	}
	st.heartbeat.Close()
}

// Serve mode: `experiments -serve` is the resident campaign service. One
// campaign.Service (bounded priority queue + worker pool + dead-letter
// journal handling) stays up across campaigns; clients submit campaigns
// over HTTP and the service executes them with the exact run() pipeline the
// CLI uses, so a served campaign's -out and -telemetry bytes are identical
// to a direct run's (TestServeCampaignMatchesDirectRun).
//
// Endpoints (on the shared internal/obs HTTP server, next to /metrics,
// /progress, /healthz, and pprof — see docs/TELEMETRY.md):
//
//	POST /campaigns               submit a campaign (JSON body, see campaignRequest)
//	GET  /campaigns               all campaigns with their job statuses
//	GET  /campaigns/{id}          one campaign
//	POST /campaigns/{id}/cancel   cancel a running campaign
//	GET  /queue                   queue depth/capacity by priority
//
// SIGTERM/SIGINT drain gracefully: in-flight units finish and journal,
// queued units are abandoned (their campaigns end interrupted, with
// committed partial outputs), and resubmitting a campaign against the same
// -checkpoint after a restart resumes it byte-identically.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"untangle/internal/campaign"
	"untangle/internal/experiments"
	"untangle/internal/obs"
	"untangle/internal/telemetry"
	"untangle/internal/tracecache"
	"untangle/internal/workload"
)

const (
	// envServeTermKey / envServeTermOnce are the drain-injection hooks the
	// restart-equivalence test uses: when the unit with the named key
	// journals, the service drains itself as if SIGTERMed — and the
	// once-sentinel (created O_EXCL) keeps a restarted service from
	// draining again.
	envServeTermKey  = "UNTANGLE_SERVE_TERM_KEY"
	envServeTermOnce = "UNTANGLE_SERVE_TERM_ONCE"
)

// serveMain is the -serve entry point.
func serveMain(args []string) int {
	log.SetFlags(0)
	log.SetPrefix("experiments[serve]: ")
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		httpAddr  = fs.String("http", "127.0.0.1:0", "HTTP address for campaign submission and observability")
		jobs      = fs.Int("jobs", 0, "worker pool size (0 = GOMAXPROCS)")
		depth     = fs.Int("queue-depth", campaign.DefaultQueueDepth, "bound on queued units (backpressure boundary)")
		reject    = fs.Bool("reject", false, "reject campaigns whose units would overflow the queue instead of blocking the submission")
		feCache   = fs.String("fe-cache", "", "persist/replay front-end event streams in this directory (shared by every campaign)")
		feRebld   = fs.Bool("fe-cache-rebuild", false, "regenerate corrupt or key-mismatched -fe-cache entries")
		readyFile = fs.String("ready-file", "", "write the bound HTTP address to this file once serving (test hook)")
		drainWait = fs.Duration("drain-timeout", time.Minute, "bound on the graceful drain at shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *feRebld && *feCache == "" {
		log.Print("-fe-cache-rebuild requires -fe-cache")
		return 2
	}
	if err := runServe(serveOptions{
		httpAddr:  *httpAddr,
		jobs:      *jobs,
		depth:     *depth,
		reject:    *reject,
		feCache:   *feCache,
		feRebld:   *feRebld,
		readyFile: *readyFile,
		drainWait: *drainWait,
	}); err != nil {
		log.Print(err)
		return 1
	}
	return 0
}

type serveOptions struct {
	httpAddr  string
	jobs      int
	depth     int
	reject    bool
	feCache   string
	feRebld   bool
	readyFile string
	drainWait time.Duration
}

// serveState is the resident service plus the campaign registry behind the
// HTTP API.
type serveState struct {
	svc      *campaign.Service
	progress *obs.Progress
	reject   bool
	unitHook func(key string) // term-key injection; nil in production

	mu        sync.Mutex
	campaigns map[string]*servedCampaign
	order     []string
	draining  bool
	wg        sync.WaitGroup // live campaign run() goroutines
}

// servedCampaign is one submitted campaign's lifecycle.
type servedCampaign struct {
	id     string
	cancel context.CancelFunc
	oc     *obs.Campaign

	mu    sync.Mutex
	state string // running | completed | interrupted | canceled | failed
	err   string
}

func (sc *servedCampaign) setState(state, errText string) {
	sc.mu.Lock()
	sc.state = state
	sc.err = errText
	sc.mu.Unlock()
}

func runServe(opts serveOptions) error {
	// The front-end cache is process-wide; serve installs it once so every
	// campaign shares it (per-campaign configs leave feCacheDir empty).
	var feStore *tracecache.Store
	if opts.feCache != "" {
		st, release, err := experiments.OpenFrontEndCache(opts.feCache, opts.feRebld, log.Printf)
		if err != nil {
			return err
		}
		defer release()
		feStore = st
	}

	reg := telemetry.NewRegistry()
	feStore.RegisterMetrics(reg) // nil-safe: no-op without -fe-cache
	experiments.RegisterMixMetrics(reg)
	svc := campaign.New(campaign.Options{
		Workers:    opts.jobs,
		QueueDepth: opts.depth,
		Reject:     opts.reject,
		Registry:   reg,
		Logf:       log.Printf,
	})
	st := &serveState{
		svc:       svc,
		progress:  obs.NewProgress(),
		reject:    opts.reject,
		campaigns: map[string]*servedCampaign{},
	}

	// Self-drain injection: the named unit's journaling triggers the same
	// graceful drain a SIGTERM does (see the env hook docs above).
	termCh := make(chan struct{})
	if termKey := os.Getenv(envServeTermKey); termKey != "" {
		termOnce := os.Getenv(envServeTermOnce)
		var trig sync.Once
		st.unitHook = func(key string) {
			if key != termKey {
				return
			}
			if termOnce != "" {
				f, err := os.OpenFile(termOnce, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
				if err != nil {
					return // a previous incarnation already drained here
				}
				f.Close()
			}
			trig.Do(func() { close(termCh) })
			// Hold this worker until the queue is closed so the units
			// behind the term key deterministically stay for the restart.
			for !svc.Draining() {
				time.Sleep(time.Millisecond)
			}
		}
	}

	srv, err := obs.StartServerEndpoints(opts.httpAddr, st.progress, []obs.Endpoint{
		{Pattern: "POST /campaigns", Handler: http.HandlerFunc(st.handleSubmit)},
		{Pattern: "GET /campaigns", Handler: http.HandlerFunc(st.handleList)},
		{Pattern: "GET /campaigns/{id}", Handler: http.HandlerFunc(st.handleGet)},
		{Pattern: "POST /campaigns/{id}/cancel", Handler: http.HandlerFunc(st.handleCancel)},
		{Pattern: "GET /queue", Handler: http.HandlerFunc(st.handleQueue)},
	}, obs.NamedRegistry{Namespace: "untangle", Registry: reg})
	if err != nil {
		return err
	}
	log.Printf("campaign service: http://%s/{campaigns,queue,metrics,progress,healthz}", srv.Addr())
	if opts.readyFile != "" {
		if err := os.WriteFile(opts.readyFile, []byte(srv.Addr()), 0o644); err != nil {
			srv.Shutdown()
			return err
		}
	}

	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	select {
	case <-sigCtx.Done():
		log.Print("signal received; draining")
	case <-termCh:
		log.Print("term hook fired; draining")
	}
	stopSignals()

	st.mu.Lock()
	st.draining = true
	st.mu.Unlock()
	dctx, cancel := context.WithTimeout(context.Background(), opts.drainWait)
	defer cancel()
	if err := svc.Drain(dctx); err != nil {
		return err
	}
	// Drained jobs have settled; wait for their campaigns to commit the
	// partial outputs, then stop answering.
	st.wg.Wait()
	if err := srv.Shutdown(); err != nil {
		return err
	}
	log.Print("drained cleanly")
	return nil
}

// campaignRequest is the POST /campaigns body: the campaign flags of the
// CLI, minus what the service owns (worker count, queue policy, fe-cache).
// sensitivity_instructions defaults to 0 — a served campaign opts into the
// Figure 11 study explicitly.
type campaignRequest struct {
	ID         string  `json:"id"`
	Scale      float64 `json:"scale"`
	Mixes      string  `json:"mixes,omitempty"`
	SensIns    uint64  `json:"sensitivity_instructions,omitempty"`
	Out        string  `json:"out,omitempty"`
	Telemetry  string  `json:"telemetry,omitempty"`
	Checkpoint string  `json:"checkpoint"`
	Replay     bool    `json:"replay,omitempty"`
	Priority   int     `json:"priority,omitempty"`
}

// config shapes the request into the run() config the CLI would build for
// the equivalent flags, pointed at the shared service.
func (r campaignRequest) config(st *serveState) (config, error) {
	if r.ID == "" {
		return config{}, fmt.Errorf("campaign needs an id")
	}
	if r.Checkpoint == "" {
		return config{}, fmt.Errorf("campaign %s needs a checkpoint path (the dead-letter journal)", r.ID)
	}
	ids, err := parseMixes(r.Mixes)
	if err != nil {
		return config{}, err
	}
	cfg := config{
		scale:     r.Scale,
		ids:       ids,
		sensIns:   r.SensIns,
		traced:    r.Telemetry != "",
		outPath:   r.Out,
		telePath:  r.Telemetry,
		ckptPath:  r.Checkpoint,
		dlq:       true,
		replay:    r.Replay,
		priority:  r.Priority,
		service:   st.svc,
		jobPrefix: r.ID + "/",
		quiet:     true,
		unitHook:  st.unitHook,
	}
	if err := cfg.validate(); err != nil {
		return config{}, err
	}
	return cfg, nil
}

// campaignView is the /campaigns JSON shape: the campaign's lifecycle plus
// its jobs' statuses on the service.
type campaignView struct {
	ID    string            `json:"id"`
	State string            `json:"state"`
	Error string            `json:"error,omitempty"`
	Jobs  []campaign.Status `json:"jobs"`
}

func (st *serveState) view(sc *servedCampaign) campaignView {
	sc.mu.Lock()
	v := campaignView{ID: sc.id, State: sc.state, Error: sc.err, Jobs: []campaign.Status{}}
	sc.mu.Unlock()
	for _, js := range st.svc.Jobs() {
		if len(js.ID) > len(sc.id) && js.ID[:len(sc.id)+1] == sc.id+"/" {
			v.Jobs = append(v.Jobs, js)
		}
	}
	return v
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (st *serveState) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req campaignRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad campaign request: %v", err)
		return
	}
	cfg, err := req.config(st)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	sc := &servedCampaign{id: req.ID, cancel: cancel, state: "running"}
	st.mu.Lock()
	if st.draining {
		st.mu.Unlock()
		cancel()
		httpError(w, http.StatusServiceUnavailable, "service draining")
		return
	}
	if prev, ok := st.campaigns[req.ID]; ok {
		prev.mu.Lock()
		running := prev.state == "running"
		prev.mu.Unlock()
		if running {
			st.mu.Unlock()
			cancel()
			httpError(w, http.StatusConflict, "campaign %s already running", req.ID)
			return
		}
	} else {
		st.order = append(st.order, req.ID)
	}
	st.campaigns[req.ID] = sc
	st.wg.Add(1)
	st.mu.Unlock()

	// Per-campaign observability on the shared progress tracker. The phase
	// names carry the campaign id (':' — a '/' would read as a sub-unit
	// span and skip the progress counters).
	sc.oc = obs.NewCampaign(req.ID, nil, st.progress, nil)
	if cfg.sensIns > 0 {
		sc.oc.Phase(req.ID+":sensitivity", len(workload.SPECBenchmarks))
	}
	sc.oc.Phase(req.ID+":mix", len(cfg.ids))
	cfg.observe = func(phase, key string) func(outcome string, err error) {
		return sc.oc.Unit(req.ID+":"+phase, unitName(key))
	}

	go st.runCampaign(ctx, sc, cfg)
	writeJSON(w, http.StatusAccepted, st.view(sc))
}

// runCampaign executes one submitted campaign with the CLI's run pipeline
// and records its terminal state.
func (st *serveState) runCampaign(ctx context.Context, sc *servedCampaign, cfg config) {
	defer st.wg.Done()
	defer sc.cancel()
	log.Printf("campaign %s: started (scale %v, %d mixes)", sc.id, cfg.scale, len(cfg.ids))
	err := run(ctx, cfg, io.Discard)
	state := "completed"
	errText := ""
	switch {
	case err != nil:
		state, errText = "failed", err.Error()
	case ctx.Err() != nil:
		state = "canceled"
	case st.isDraining():
		// run returns nil for a cleanly interrupted campaign; the partial
		// outputs are committed and a resubmission resumes it.
		state = "interrupted"
	}
	sc.setState(state, errText)
	sc.oc.End(err)
	log.Printf("campaign %s: %s", sc.id, state)
}

func (st *serveState) isDraining() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.draining
}

func (st *serveState) campaign(id string) (*servedCampaign, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sc, ok := st.campaigns[id]
	return sc, ok
}

func (st *serveState) handleList(w http.ResponseWriter, r *http.Request) {
	st.mu.Lock()
	order := append([]string(nil), st.order...)
	st.mu.Unlock()
	views := []campaignView{}
	for _, id := range order {
		if sc, ok := st.campaign(id); ok {
			views = append(views, st.view(sc))
		}
	}
	writeJSON(w, http.StatusOK, views)
}

func (st *serveState) handleGet(w http.ResponseWriter, r *http.Request) {
	sc, ok := st.campaign(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown campaign %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st.view(sc))
}

func (st *serveState) handleCancel(w http.ResponseWriter, r *http.Request) {
	sc, ok := st.campaign(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown campaign %q", r.PathValue("id"))
		return
	}
	sc.cancel()
	writeJSON(w, http.StatusOK, st.view(sc))
}

// handleQueue serves the queue's instantaneous depth/capacity breakdown —
// the backpressure dial an operator watches (docs/TELEMETRY.md "/queue").
func (st *serveState) handleQueue(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, st.svc.Queue())
}

package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"untangle/internal/telemetry"
)

// NamedRegistry pairs a telemetry registry with the namespace its metrics
// are exposed under on /metrics. Commands pass the obs registry under
// namespace "untangle"; a caller with further registries passes each under
// its own namespace, so one scrape sees them all.
type NamedRegistry struct {
	Namespace string
	Registry  *telemetry.Registry
}

// Server is the embedded observability HTTP server. It serves:
//
//	/metrics      Prometheus text exposition of every named registry
//	/healthz      200 "ok" — liveness only
//	/progress     the Progress snapshot as JSON (units done/total, ETA)
//	/debug/pprof  the standard Go profiling endpoints
//
// It reads process state and writes nothing, so it can run concurrently
// with a campaign without perturbing any output file.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Endpoint is an extra route mounted on the observability server — the
// campaign service's job API (/campaigns, /queue) rides on the same listener
// as /metrics and /progress so an operator watches and drives a resident
// process through one port.
type Endpoint struct {
	// Pattern is an http.ServeMux pattern ("/campaigns", "/campaigns/").
	Pattern string
	Handler http.Handler
}

// StartServer binds addr (":0" for an ephemeral test port) and serves in a
// background goroutine. The returned server is ready to scrape when
// StartServer returns; call Shutdown to stop it.
func StartServer(addr string, progress *Progress, regs ...NamedRegistry) (*Server, error) {
	return StartServerEndpoints(addr, progress, nil, regs...)
}

// StartServerEndpoints is StartServer plus caller-supplied routes. Pattern
// conflicts are not checked — callers own their namespace and must not
// shadow /metrics, /healthz, /progress, or /debug/pprof.
func StartServerEndpoints(addr string, progress *Progress, extra []Endpoint, regs ...NamedRegistry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	for _, e := range extra {
		mux.Handle(e.Pattern, e.Handler)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, nr := range regs {
			if nr.Registry == nil {
				continue
			}
			if err := nr.Registry.Snapshot().WritePrometheus(w, nr.Namespace); err != nil {
				return // client went away mid-scrape; nothing to clean up
			}
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(progress.Snapshot())
	})
	// The pprof handlers are wired explicitly because the server runs its
	// own mux — importing net/http/pprof only registers on the default one.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address ("127.0.0.1:43721"), useful when the
// server was started on an ephemeral port.
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown stops the server gracefully, letting in-flight scrapes finish up
// to a short deadline. Nil-safe, so the campaign teardown path can call it
// unconditionally.
func (s *Server) Shutdown() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

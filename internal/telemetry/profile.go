package telemetry

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// ProfileConfig collects the host-side profiling switches shared by the
// commands. Unlike the tracer and registry, these observe the simulator
// process itself (real CPU time, real allocations), so they are wall-clock
// by nature and never feed the simulation.
type ProfileConfig struct {
	// CPUProfile, MemProfile and Trace are output paths for the pprof CPU
	// profile, the heap profile (written at Stop), and the runtime
	// execution trace. Empty disables each.
	CPUProfile string
	MemProfile string
	Trace      string
}

// AddProfileFlags registers -cpuprofile, -memprofile and -trace on fs and
// returns the config they populate. Live inspection of a long run goes
// through the observability server's /debug/pprof (cmd/experiments -http).
func AddProfileFlags(fs *flag.FlagSet) *ProfileConfig {
	c := &ProfileConfig{}
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a pprof heap profile to this file on exit")
	fs.StringVar(&c.Trace, "trace", "", "write a runtime execution trace to this file")
	return c
}

// Enabled reports whether any profiling output is requested.
func (c *ProfileConfig) Enabled() bool {
	return c != nil && (c.CPUProfile != "" || c.MemProfile != "" || c.Trace != "")
}

// Start begins the requested profiling and returns a stop function that
// finalizes every output. Callers must invoke stop (typically deferred)
// even on error paths that exit through log.Fatal alternatives; stop is
// idempotent.
func (c *ProfileConfig) Start() (stop func() error, err error) {
	var (
		cpuFile   *os.File
		traceFile *os.File
	)
	cleanup := func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			cpuFile = nil
		}
		if traceFile != nil {
			trace.Stop()
			traceFile.Close()
			traceFile = nil
		}
	}
	if c.CPUProfile != "" {
		cpuFile, err = os.Create(c.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("telemetry: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			cpuFile = nil
			cleanup()
			return nil, fmt.Errorf("telemetry: cpu profile: %w", err)
		}
	}
	if c.Trace != "" {
		traceFile, err = os.Create(c.Trace)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("telemetry: trace: %w", err)
		}
		if err := trace.Start(traceFile); err != nil {
			traceFile.Close()
			traceFile = nil
			cleanup()
			return nil, fmt.Errorf("telemetry: trace: %w", err)
		}
	}
	stopped := false
	return func() error {
		if stopped {
			return nil
		}
		stopped = true
		var firstErr error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				firstErr = err
			}
			cpuFile = nil
		}
		if traceFile != nil {
			trace.Stop()
			if err := traceFile.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			traceFile = nil
		}
		if c.MemProfile != "" {
			f, err := os.Create(c.MemProfile)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				runtime.GC() // materialize up-to-date allocation stats
				if err := pprof.WriteHeapProfile(f); err != nil && firstErr == nil {
					firstErr = err
				}
				if err := f.Close(); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		return firstErr
	}, nil
}

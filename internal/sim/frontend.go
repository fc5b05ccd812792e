package sim

import (
	"untangle/internal/cache"
	"untangle/internal/isa"
	"untangle/internal/monitor"
	"untangle/internal/tracecache"
)

// ReplaySource feeds a domain its post-L1 event stream: every decision
// upstream of the LLC — the private-L1 hit/miss resolution, the write bit,
// the monitor-observation and public-progress gates, L1 eviction/writeback
// counts (tracecache's rich encoding) — is already folded into the events,
// so the one per-domain loop (runDomainUntil) only charges the core, probes
// the LLC and feeds the monitor. Every domain is replay-fed: New wraps a
// Stream/Pressure domain in a live source over a FrontEnd, and an engine
// that resolves one front end for several back ends (the fused mix engine)
// passes its own source in DomainSpec.Replay.
//
// Protocol: NextEvents returns the next batch, valid until the next call.
// An empty batch marks the end of the measured stream — the simulator
// freezes the domain's statistics — and pressure-tail batches may follow.
// A second empty batch means nothing remains and the domain idles forward.
//
// Events with FlagMonObserve must carry MonMask, the shadow hit vector
// (monitor.Monitor.HitMask under Config.MonitorConfig) that FrontEnd
// records: domain monitors apply it via ObserveMask and never simulate
// shadow arrays themselves.
type ReplaySource interface {
	NextEvents() []tracecache.Event
}

// FrontEnd is one domain's front end: the private L1 and, for a dynamic
// scheme, the monitor's own L1-sized filter cache (Section 7) and the
// shadow-array recorder. It resolves retired ops into the events a
// ReplaySource delivers, and it is the only place the paper's two
// enforcement points are applied. Scheme.Annotated=false is the ablation
// that disables both gates.
type FrontEnd struct {
	l1 *cache.Cache
	// monL1 and rec are nil for a static scheme, which has no monitor: its
	// events never carry FlagMonObserve.
	monL1     *cache.Cache
	rec       *monitor.Monitor
	offset    uint64
	annotated bool
}

// NewFrontEnd builds domain idx's front end under cfg: the L1 geometry,
// the address-space offset, the annotation switch and, for a dynamic
// scheme, the monitor gate under cfg.MonitorConfig(). Its state is a pure
// function of the op sequence, so one front end can serve the back ends of
// every scheme that shares those settings.
func NewFrontEnd(cfg Config, idx int) (*FrontEnd, error) {
	l1Geom := cache.Config{SizeBytes: cfg.L1Bytes, Ways: cfg.L1Ways}
	fe := &FrontEnd{offset: DomainAddrOffset(idx), annotated: cfg.Scheme.Annotated}
	var err error
	if fe.l1, err = cache.New(l1Geom); err != nil {
		return nil, err
	}
	if cfg.Scheme.Dynamic() {
		if fe.monL1, err = cache.New(l1Geom); err != nil {
			return nil, err
		}
		if fe.rec, err = monitor.New(cfg.MonitorConfig()); err != nil {
			return nil, err
		}
	}
	return fe, nil
}

// Resolve turns ops, in program order, into events written to
// out[:len(ops)] (out must be at least that long) and returns that prefix.
// The caller owns out: a live domain reuses one buffer, the fused engine
// hands in each new tape chunk.
func (fe *FrontEnd) Resolve(ops []isa.Op, out []tracecache.Event) []tracecache.Event {
	out = out[:len(ops)]
	for i, op := range ops {
		ev := tracecache.Event{NonMem: op.NonMem}
		// Principle 2: only public instructions advance execution progress.
		if !op.SecretProgress() || !fe.annotated {
			ev.Flags |= tracecache.FlagPublic
		}
		if op.IsMem() {
			addr := op.Addr + fe.offset
			write := op.IsWrite()
			if write {
				ev.Flags |= tracecache.FlagWrite
			}
			before := fe.l1.Stats()
			if fe.l1.Access(addr, write) {
				ev.Kind = tracecache.KindL1Hit
			} else {
				ev.Kind = tracecache.KindL1Miss
				ev.Addr = addr
				after := fe.l1.Stats()
				if after.Evictions != before.Evictions {
					ev.Flags |= tracecache.FlagL1Evict
				}
				if after.Writebacks != before.Writebacks {
					ev.Flags |= tracecache.FlagL1Writeback
				}
			}
			// Principle 1: secret-dependent accesses are excluded from the
			// utilization metric, and the private-cache filter is the
			// monitor's own — fed only what the monitor may see, so its
			// state never carries secret history.
			if fe.rec != nil && (!op.SecretUse() || !fe.annotated) && !fe.monL1.Access(addr, write) {
				ev.Flags |= tracecache.FlagMonObserve
				ev.Addr = addr
				ev.MonMask = fe.rec.HitMask(addr, write)
			}
		}
		out[i] = ev
	}
	return out
}

// liveChunk is the live source's batch size. Stream determinism (Fill-size
// independence) keeps it invisible in results.
const liveChunk = 4096

// liveSource is the ReplaySource New builds for a Stream/Pressure domain:
// it resolves the measured stream, then the pressure stream, through the
// domain's front end into one reused event buffer.
type liveSource struct {
	fe       *FrontEnd
	stream   isa.Stream // the stream being drained; nil once both are
	pressure isa.Stream // still to come after stream; nil once started
	ops      []isa.Op
	events   []tracecache.Event
}

// NextEvents implements ReplaySource. A drained stream yields one empty
// batch: the measured stream's end finishes the domain, and the pressure
// stream's end (or its absence) leaves nothing, so the domain idles
// forward.
func (s *liveSource) NextEvents() []tracecache.Event {
	if s.stream == nil {
		return nil
	}
	n := s.stream.Fill(s.ops)
	if n == 0 {
		s.stream, s.pressure = s.pressure, nil
		return nil
	}
	return s.fe.Resolve(s.ops[:n], s.events)
}

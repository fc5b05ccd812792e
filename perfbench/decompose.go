package main

// The traced decomposition: each workload's work redone through the
// layers' public functions, with a span around every call (hot per-op
// calls are spanned per chunk of ops). The study's front end and lane fold
// transliterate the multi-lane engine's pass; mixes replay their domain
// streams into sim.New+Run through a benchmark-side sim.ReplaySource. Every
// decomposition is checked against what the untraced engine saw: the
// fe-cache entries and lane sidecars it wrote and the bits of its results.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"untangle/internal/cache"
	"untangle/internal/core"
	"untangle/internal/covert"
	"untangle/internal/cpu"
	"untangle/internal/experiments"
	"untangle/internal/isa"
	"untangle/internal/monitor"
	"untangle/internal/partition"
	"untangle/internal/sim"
	"untangle/internal/telemetry"
	"untangle/internal/tracecache"
	"untangle/internal/workload"
)

// chunk is the front-end batch size, the engines' own.
const chunk = 4096

// foldStep is the study's scheduling quantum (the engine's 100 µs).
const foldStep = 100 * time.Microsecond

// studyGeom is the Figure 11 study's machine: the Table 3 L1 and LLC
// associativity and the nine partition sizes.
var studyGeom = sim.DefaultConfig(partition.DefaultScheme(partition.Static))

// timedStream spans every Fill of the wrapped generator as workload work.
type timedStream struct {
	s      isa.Stream
	tr     *tracer
	parent int
}

func (t *timedStream) Fill(buf []isa.Op) int {
	sp := t.tr.begin(t.parent, layerWorkload)
	n := t.s.Fill(buf)
	sp.end(uint64(n))
	return n
}

// laneFold is one partition size's cycle accounting: a transliteration of
// the engine's per-lane quantum machine over cpu.Core.
type laneFold struct {
	core    *cpu.Core
	now     time.Duration
	horizon float64
	warm    bool
	base    cpu.Snapshot
}

func newLaneFold(cp cpu.Params, warmup uint64) *laneFold {
	l := &laneFold{core: cpu.New(cp), now: foldStep, warm: warmup == 0}
	l.horizon = l.core.DurationToCycles(l.now)
	return l
}

func (l *laneFold) endQuantum(warmup uint64) {
	if !l.warm && l.core.Retired() >= warmup {
		l.warm = true
		l.base = l.core.Snapshot()
	}
	l.now += foldStep
	l.horizon = l.core.DurationToCycles(l.now)
}

// fold charges events whose LLC outcomes bits already holds; cursor
// indexes the next L1 miss.
func (l *laneFold) fold(events []tracecache.Event, bits []uint64, cursor int, warmup uint64) int {
	c := l.core
	for _, ev := range events {
		for c.Cycles() >= l.horizon {
			l.endQuantum(warmup)
		}
		c.RetireNonMem(ev.NonMem)
		switch ev.Kind {
		case tracecache.KindL1Hit:
			c.RetireMem(cpu.L1Hit)
		case tracecache.KindL1Miss:
			if bits[cursor>>6]>>(uint(cursor)&63)&1 != 0 {
				c.RetireMem(cpu.LLCHit)
			} else {
				c.RetireMem(cpu.Memory)
			}
			cursor++
		}
	}
	return cursor
}

// finish runs the stream-dry sequence and returns the measured IPC and
// instruction count.
func (l *laneFold) finish(warmup uint64) (float64, uint64) {
	for l.core.Cycles() >= l.horizon {
		l.endQuantum(warmup)
	}
	fin := l.core.Snapshot()
	l.core.AdvanceTo(l.now)
	l.endQuantum(warmup)
	instr := fin.Retired - l.base.Retired
	cycles := fin.Cycles - l.base.Cycles
	if cycles > 0 {
		return float64(instr) / cycles, instr
	}
	return 0, instr
}

// studyPass is one benchmark's decomposed pass.
type studyPass struct {
	name         string
	key          tracecache.Key
	events       []tracecache.Event
	byKind       [4]uint64
	streamInstr  uint64
	misses       []uint64
	bits         [][]uint64
	ipcs         []float64
	instructions uint64 // measured, summed over the nine lanes
}

func studyKey(name string) tracecache.Key {
	return tracecache.Key{
		Benchmark:    name,
		Instructions: studyInstructions,
		L1Bytes:      studyGeom.L1Bytes,
		L1Ways:       studyGeom.L1Ways,
		ParamsTag:    experiments.ParamsFingerprint(),
	}
}

func (p *studyPass) tally(events []tracecache.Event) {
	for _, ev := range events {
		p.byKind[ev.Kind]++
		p.streamInstr += uint64(ev.NonMem)
		if ev.Kind == tracecache.KindL1Hit || ev.Kind == tracecache.KindL1Miss {
			p.streamInstr++
		}
		if ev.Kind == tracecache.KindL1Miss {
			p.misses = append(p.misses, ev.Addr)
		}
	}
}

// row assembles the Figure 11 row the pass's IPCs imply, as the study
// does: normalized to the 8MB lane, adequate at the first size within 90%.
func (p *studyPass) row() experiments.SensitivityResult {
	sizes := studyGeom.Sizes
	r := experiments.SensitivityResult{Name: p.name, Sizes: sizes, NormIPC: make([]float64, len(sizes))}
	maxIPC := p.ipcs[len(p.ipcs)-1]
	r.Adequate = sizes[len(sizes)-1]
	for i := range sizes {
		r.NormIPC[i] = p.ipcs[i] / maxIPC
	}
	for i := range sizes {
		if r.NormIPC[i] >= 0.9 {
			r.Adequate = sizes[i]
			break
		}
	}
	r.Sensitive = r.Adequate > 2<<20
	return r
}

// matches checks the pass reproduced the study row bit for bit.
func (p *studyPass) matches(want experiments.SensitivityResult) error {
	if got := studyDigest(p.row()); got != studyDigest(want) {
		return fmt.Errorf("%s: decomposed lane fold differs from the study (%s vs %s)", p.name, got, studyDigest(want))
	}
	return nil
}

// probeAndFold resolves every lane's LLC outcomes (unless bits is given)
// and runs the nine cycle folds.
func (p *studyPass) probeAndFold(tr *tracer, parent int, bits [][]uint64) {
	params, _ := workload.SPECByName(p.name)
	sizes := studyGeom.Sizes
	if bits == nil {
		bits = make([][]uint64, len(sizes))
		for i, size := range sizes {
			llc := cache.MustNewLane(cache.Config{SizeBytes: size, Ways: studyGeom.LLCWays})
			b := make([]uint64, (len(p.misses)+63)/64)
			sp := tr.begin(parent, layerLane)
			hits := 0
			for k, a := range p.misses {
				if llc.Access(a) {
					b[k>>6] |= 1 << (k & 63)
					hits++
				}
			}
			sp.end(uint64(len(p.misses)))
			tr.add("cache.lane.hits", float64(hits))
			bits[i] = b
		}
	}
	p.bits = bits
	memOps := p.byKind[tracecache.KindL1Hit] + p.byKind[tracecache.KindL1Miss]
	p.ipcs = make([]float64, len(sizes))
	p.instructions = 0
	for i := range sizes {
		sp := tr.begin(parent, layerCPU)
		l := newLaneFold(params.CPUParams(), studyInstructions)
		cursor := 0
		for off := 0; off < len(p.events); off += 1 << 16 {
			cursor = l.fold(p.events[off:min(off+1<<16, len(p.events))], bits[i], cursor, studyInstructions)
		}
		ipc, instr := l.finish(studyInstructions)
		sp.end(uint64(len(p.events)) + memOps)
		p.ipcs[i] = ipc
		p.instructions += instr
	}
}

// studyCold generates one benchmark's front end (generator, private L1),
// encodes it into st when st is non-nil, and probes and folds all lanes.
func studyCold(tr *tracer, parent int, st *tracecache.Store, name string) (*studyPass, error) {
	p := &studyPass{name: name, key: studyKey(name)}
	params, err := workload.SPECByName(name)
	if err != nil {
		return nil, err
	}
	sp := tr.begin(parent, layerWorkload)
	gen, err := workload.NewGenerator(params)
	sp.end(0)
	if err != nil {
		return nil, err
	}
	chunks := isa.NewChunks(isa.NewLimited(&timedStream{s: gen, tr: tr, parent: parent}, 2*studyInstructions), chunk)
	l1 := cache.MustNewLane(cache.Config{SizeBytes: studyGeom.L1Bytes, Ways: studyGeom.L1Ways})
	var w *tracecache.Writer
	if st != nil {
		sp := tr.begin(parent, layerEncode)
		w, err = st.Create(p.key)
		sp.end(0)
		if err != nil {
			return nil, err
		}
		defer w.Close()
	}
	offset := sim.DomainAddrOffset(0)
	for {
		ops := chunks.Next()
		if len(ops) == 0 {
			break
		}
		start := len(p.events)
		sp := tr.begin(parent, layerL1)
		var accesses, hits uint64
		for _, op := range ops {
			ev := tracecache.Event{NonMem: op.NonMem}
			if op.IsMem() {
				addr := op.Addr + offset
				accesses++
				if l1.Access(addr) {
					ev.Kind = tracecache.KindL1Hit
					hits++
				} else {
					ev.Kind = tracecache.KindL1Miss
					ev.Addr = addr
				}
			}
			p.events = append(p.events, ev)
		}
		sp.end(accesses)
		tr.add("cache.l1.hits", float64(hits))
		if w != nil {
			sp := tr.begin(parent, layerEncode)
			err := w.WriteEvents(p.events[start:])
			sp.end(uint64(len(p.events) - start))
			if err != nil {
				return nil, err
			}
		}
	}
	p.tally(p.events)
	if w == nil {
		p.probeAndFold(tr, parent, nil)
		return p, nil
	}
	sp = tr.begin(parent, layerEncode)
	err = w.Commit()
	sp.end(0)
	if err != nil {
		return nil, err
	}
	p.probeAndFold(tr, parent, nil)
	sp = tr.begin(parent, layerEncode)
	err = st.SaveLaneOutcomes(p.key, studyGeom.LLCWays, studyGeom.Sizes, uint64(len(p.misses)), p.bits)
	sp.end(0)
	if err != nil {
		return nil, err
	}
	tr.add("tracecache.encode.bytes", float64(fileSize(st.EntryPath(p.key))+fileSize(st.LaneOutcomePath(p.key))))
	return p, nil
}

// studyWarm decodes one benchmark's entry from st and its lane sidecar,
// probing only when the sidecar is missing, then folds all lanes.
func studyWarm(tr *tracer, parent int, st *tracecache.Store, name string) (*studyPass, error) {
	p := &studyPass{name: name, key: studyKey(name)}
	events, err := decodeEntry(tr, parent, st, p.key)
	if err != nil {
		return nil, err
	}
	p.events = events
	p.tally(events)
	sp := tr.begin(parent, layerDecode)
	bits, ok := st.OpenLaneOutcomes(p.key, studyGeom.LLCWays, studyGeom.Sizes, uint64(len(p.misses)))
	sp.end(0)
	tr.add("tracecache.sidecar_lookups", 1)
	if ok {
		tr.add("tracecache.sidecar_hits", 1)
		tr.add("tracecache.read_bytes", float64(fileSize(st.LaneOutcomePath(p.key))))
	} else {
		bits = nil
	}
	p.probeAndFold(tr, parent, bits)
	return p, nil
}

// decodeEntry reads a whole fe-cache entry, spanning Open and every Read.
func decodeEntry(tr *tracer, parent int, st *tracecache.Store, key tracecache.Key) ([]tracecache.Event, error) {
	tr.add("tracecache.lookups", 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := tr.begin(parent, layerDecode)
	r, err := st.Open(key)
	sp.end(0)
	if err != nil {
		return nil, err
	}
	if r == nil {
		return nil, fmt.Errorf("fe-cache miss for %s", key)
	}
	defer r.Close()
	tr.add("tracecache.hits", 1)
	tr.add("tracecache.read_bytes", float64(fileSize(st.EntryPath(key))))
	var events []tracecache.Event
	buf := make([]tracecache.Event, chunk)
	for {
		sp := tr.begin(parent, layerDecode)
		n, err := r.Read(buf)
		sp.end(uint64(n))
		events = append(events, buf[:n]...)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&after)
	tr.add("tracecache.decode.allocs", float64(after.Mallocs-before.Mallocs))
	return events, nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// checkStudyEntry compares a decomposed pass with the entry and lane
// sidecar the untraced engine wrote into st.
func checkStudyEntry(st *tracecache.Store, p *studyPass) error {
	info, err := tracecache.ReadInfo(st.EntryPath(p.key))
	if err != nil {
		return err
	}
	if info.Events != uint64(len(p.events)) || info.ByKind != p.byKind || info.Instructions != p.streamInstr {
		return fmt.Errorf("%s: decomposed stream (%d events, kinds %v, %d instr) differs from the engine's entry (%d, %v, %d)",
			p.name, len(p.events), p.byKind, p.streamInstr, info.Events, info.ByKind, info.Instructions)
	}
	bits, ok := st.OpenLaneOutcomes(p.key, studyGeom.LLCWays, studyGeom.Sizes, uint64(len(p.misses)))
	if !ok {
		return fmt.Errorf("%s: the engine left no lane sidecar", p.name)
	}
	for i := range bits {
		for k := range bits[i] {
			if bits[i][k] != p.bits[i][k] {
				return fmt.Errorf("%s: lane %d misses differ from the engine's sidecar", p.name, i)
			}
		}
	}
	return nil
}

// tape is one mix domain's rich event stream: the measured events, then
// the pressure tail (the measured-end marker is not stored).
type tape struct {
	events   []tracecache.Event
	measured int
}

// tally returns per-kind counts and the stream's instruction total, the
// marker included, as tracecache.ReadInfo reports them.
func (t *tape) info() (byKind [4]uint64, instr uint64) {
	for _, ev := range t.events {
		byKind[ev.Kind]++
		instr += uint64(ev.NonMem)
		if ev.Kind == tracecache.KindL1Hit || ev.Kind == tracecache.KindL1Miss {
			instr++
		}
	}
	byKind[tracecache.KindMeasuredEnd]++
	return byKind, instr
}

// check compares the tape with the engine's entry.
func (t *tape) check(info tracecache.Info, name string) error {
	byKind, instr := t.info()
	if info.Events != uint64(len(t.events)+1) || info.Measured != uint64(t.measured) || info.ByKind != byKind || info.Instructions != instr {
		return fmt.Errorf("%s: decomposed stream (%d events, %d measured, kinds %v, %d instr) differs from the engine's entry (%d, %d, %v, %d)",
			name, len(t.events)+1, t.measured, byKind, instr, info.Events, info.Measured, info.ByKind, info.Instructions)
	}
	return nil
}

// mixGeom is the mix machine at bench scale.
func mixGeom() sim.Config { return sim.Scaled(partition.DefaultScheme(partition.Static), benchScale) }

func monitorConfig() monitor.Config {
	g := mixGeom()
	return monitor.Config{Sizes: g.Sizes, Ways: g.LLCWays, Window: g.MonitorWindow, SampleLog2: g.MonitorSampleLog2}
}

func scaleCount(n uint64) uint64 {
	s := uint64(float64(n) * benchScale)
	if s < 1000 {
		s = 1000
	}
	return s
}

// mixKey is the fe-cache identity of one mix domain's stream.
func mixKey(pair workload.Pair, idx int) tracecache.Key {
	g := mixGeom()
	return tracecache.Key{
		Benchmark:    fmt.Sprintf("mix-%s-d%d", pair.String(), idx),
		Instructions: scaleCount(550_000_000),
		L1Bytes:      g.L1Bytes,
		L1Ways:       g.L1Ways,
		ParamsTag:    experiments.ParamsFingerprint(),
		Flavor:       "mix",
		Domain:       idx,
		CryptoPhase:  scaleCount(1_000_000),
		SpecPhase:    scaleCount(10_000_000),
	}
}

// mixDomains builds a mix's domain specs (the workload layer's streams).
func mixDomains(tr *tracer, parent int, mix workload.Mix) ([]sim.DomainSpec, error) {
	sp := tr.begin(parent, layerWorkload)
	specs, err := experiments.BuildDomains(mix, benchScale, 0)
	sp.end(0)
	return specs, err
}

// mixFrontCold generates one domain's rich stream — measured stream, then
// pressure until the tape holds total events — resolving every op through
// the private L1 and the monitor's filter cache and recording the monitor
// hit vectors; it encodes the tape into st.
func mixFrontCold(tr *tracer, parent int, spec sim.DomainSpec, idx int, key tracecache.Key, total int, st *tracecache.Store) (*tape, error) {
	g := mixGeom()
	l1 := cache.MustNew(cache.Config{SizeBytes: g.L1Bytes, Ways: g.L1Ways})
	monL1 := cache.MustNew(cache.Config{SizeBytes: g.L1Bytes, Ways: g.L1Ways})
	rec, err := monitor.New(monitorConfig())
	if err != nil {
		return nil, err
	}
	measured := isa.NewChunks(&timedStream{s: spec.Stream, tr: tr, parent: parent}, chunk)
	pressure := isa.NewChunks(&timedStream{s: spec.Pressure, tr: tr, parent: parent}, chunk)
	offset := sim.DomainAddrOffset(idx)
	t := &tape{measured: -1}
	for t.measured < 0 || len(t.events) < total {
		var ops []isa.Op
		if t.measured < 0 {
			if ops = measured.Next(); len(ops) == 0 {
				t.measured = len(t.events)
				continue
			}
		} else if ops = pressure.Next(); len(ops) == 0 {
			return nil, errors.New("pressure stream dried")
		}
		start := len(t.events)
		sp := tr.begin(parent, layerL1)
		var accesses, hits uint64
		for _, op := range ops {
			ev := tracecache.Event{NonMem: op.NonMem}
			if !op.SecretProgress() {
				ev.Flags |= tracecache.FlagPublic
			}
			if op.IsMem() {
				addr := op.Addr + offset
				write := op.IsWrite()
				if write {
					ev.Flags |= tracecache.FlagWrite
				}
				before := l1.Stats()
				accesses++
				if l1.Access(addr, write) {
					ev.Kind = tracecache.KindL1Hit
					hits++
				} else {
					ev.Kind = tracecache.KindL1Miss
					ev.Addr = addr
					after := l1.Stats()
					if after.Evictions != before.Evictions {
						ev.Flags |= tracecache.FlagL1Evict
					}
					if after.Writebacks != before.Writebacks {
						ev.Flags |= tracecache.FlagL1Writeback
					}
				}
				if !op.SecretUse() && !monL1.Access(addr, write) {
					ev.Flags |= tracecache.FlagMonObserve
					ev.Addr = addr
				}
			}
			t.events = append(t.events, ev)
		}
		sp.end(accesses)
		tr.add("cache.l1.hits", float64(hits))
		annotateMasks(tr, parent, rec, t.events[start:])
	}
	if err := encodeTape(tr, parent, st, key, t); err != nil {
		return nil, err
	}
	return t, nil
}

// annotateMasks records the monitor hit vector of every observed event.
func annotateMasks(tr *tracer, parent int, rec *monitor.Monitor, events []tracecache.Event) {
	sp := tr.begin(parent, layerHitMask)
	var n uint64
	for j := range events {
		if events[j].Flags&tracecache.FlagMonObserve != 0 {
			events[j].MonMask = rec.HitMask(events[j].Addr, events[j].Flags&tracecache.FlagWrite != 0)
			n++
		}
	}
	sp.end(n)
}

// encodeTape writes a tape as a rich entry with its measured-end marker.
func encodeTape(tr *tracer, parent int, st *tracecache.Store, key tracecache.Key, t *tape) error {
	sp := tr.begin(parent, layerEncode)
	w, err := st.CreateRich(key)
	sp.end(0)
	if err != nil {
		return err
	}
	defer w.Close()
	write := func(events []tracecache.Event) error {
		for off := 0; off < len(events); off += chunk {
			part := events[off:min(off+chunk, len(events))]
			sp := tr.begin(parent, layerEncode)
			err := w.WriteEvents(part)
			sp.end(uint64(len(part)))
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := write(t.events[:t.measured]); err != nil {
		return err
	}
	if err := write([]tracecache.Event{{Kind: tracecache.KindMeasuredEnd}}); err != nil {
		return err
	}
	if err := write(t.events[t.measured:]); err != nil {
		return err
	}
	sp = tr.begin(parent, layerEncode)
	err = w.Commit()
	sp.end(0)
	tr.add("tracecache.encode.bytes", float64(fileSize(st.EntryPath(key))))
	return err
}

// mixFrontWarm decodes one domain's rich entry into a tape and restores
// its monitor hit vectors.
func mixFrontWarm(tr *tracer, parent int, st *tracecache.Store, key tracecache.Key) (*tape, error) {
	events, err := decodeEntry(tr, parent, st, key)
	if err != nil {
		return nil, err
	}
	t := &tape{measured: -1}
	for i, ev := range events {
		if ev.Kind == tracecache.KindMeasuredEnd {
			t.measured = i
			t.events = append(events[:i:i], events[i+1:]...)
			break
		}
	}
	if t.measured < 0 {
		return nil, fmt.Errorf("%s: no measured-end marker", key)
	}
	rec, err := monitor.New(monitorConfig())
	if err != nil {
		return nil, err
	}
	annotateMasks(tr, parent, rec, t.events)
	return t, nil
}

// tapeSource replays a tape into one sim domain (sim.ReplaySource): the
// measured events, an empty batch, then the pressure tail.
type tapeSource struct {
	t       *tape
	pos     int
	sentEnd bool
}

func (s *tapeSource) NextEvents() []tracecache.Event {
	if !s.sentEnd && s.pos == s.t.measured {
		s.sentEnd = true
		return nil
	}
	end := min(s.pos+chunk, len(s.t.events))
	if !s.sentEnd {
		end = min(end, s.t.measured)
	}
	batch := s.t.events[s.pos:end]
	s.pos = end
	return batch
}

// simConfig is the configuration the fused engine gives kind's lane.
func simConfig(kind partition.Kind, worstCase bool) sim.Config {
	scheme := partition.DefaultScheme(kind)
	scheme.Annotated = true
	cfg := sim.Scaled(scheme, benchScale)
	cfg.OptimizeMaintain = !worstCase
	return cfg
}

// mixSims runs each scheme's sim over the domain tapes and returns the mix
// result plus each scheme's assessment counter.
func mixSims(tr *tracer, parent int, mix workload.Mix, specs []sim.DomainSpec, tapes []*tape, kinds []partition.Kind, worstCase bool) (*experiments.MixResult, map[partition.Kind]uint64, error) {
	res := &experiments.MixResult{Mix: mix, Scale: benchScale, PerScheme: map[partition.Kind]*sim.Result{}}
	assessments := map[partition.Kind]uint64{}
	for _, kind := range kinds {
		cfg := simConfig(kind, worstCase)
		reg := telemetry.NewRegistry()
		cfg.Metrics = reg
		srcs := make([]*tapeSource, len(tapes))
		lane := make([]sim.DomainSpec, len(tapes))
		for d := range tapes {
			srcs[d] = &tapeSource{t: tapes[d]}
			lane[d] = sim.DomainSpec{Name: specs[d].Name, Replay: srcs[d], CPU: specs[d].CPU}
		}
		sp := tr.begin(parent, simLayer(kind.String()))
		s, err := sim.New(cfg, lane)
		var r *sim.Result
		if err == nil {
			r, err = s.Run()
		}
		var consumed uint64
		for _, src := range srcs {
			consumed += uint64(src.pos)
		}
		sp.end(consumed)
		if err != nil {
			return nil, nil, fmt.Errorf("mix %d, %v: %w", mix.ID, kind, err)
		}
		res.PerScheme[kind] = r
		assessments[kind] = reg.Counter("sim.assessments").Value()
		tr.add("sim.quanta", float64(reg.Counter("sim.quanta").Value()))
		tr.add("sim.assessments", float64(assessments[kind]))
		tr.add("sim.resizes_applied", float64(reg.Counter("sim.resizes_applied").Value()))
	}
	return res, assessments, nil
}

// redriveControl drives the layers the sim calls internally, from the
// sim's own outputs: monitor.ObserveMask over every domain's measured
// observed events, partition DecideAll once per Time-scheme assessment
// round (fed the monitors' utilities and the round's committed sizes),
// and the Untangle accountant over each domain's recorded assessments,
// whose charge must reproduce the sim's bit for bit.
func redriveControl(tr *tracer, parent int, tapes []*tape, res *experiments.MixResult, assessments map[partition.Kind]uint64, worstCase bool) error {
	utils := make([][]float64, len(tapes))
	for d, t := range tapes {
		mon, err := monitor.New(monitorConfig())
		if err != nil {
			return err
		}
		sp := tr.begin(parent, layerMask)
		var n uint64
		for _, ev := range t.events[:t.measured] {
			if ev.Flags&tracecache.FlagMonObserve != 0 {
				mon.ObserveMask(ev.MonMask)
				n++
			}
		}
		sp.end(n)
		for _, u := range mon.Utilities() {
			utils[d] = append(utils[d], u.Hits)
		}
	}

	if r, ok := res.PerScheme[partition.TimeBased]; ok {
		cfg := simConfig(partition.TimeBased, worstCase)
		alloc, err := partition.NewAllocator(cfg.Sizes, cfg.LLCBytes)
		if err != nil {
			return err
		}
		rounds := int(assessments[partition.TimeBased]) / len(r.Domains)
		current := make([]int64, len(r.Domains))
		for round := 0; round < rounds; round++ {
			for d, dom := range r.Domains {
				switch {
				case round < len(dom.Trace):
					current[d] = dom.Trace[round].Prev
				case len(dom.Trace) > 0:
					current[d] = dom.Trace[len(dom.Trace)-1].Size
				default:
					current[d] = cfg.Scheme.StartSize
				}
			}
			sp := tr.begin(parent, layerPartition)
			alloc.DecideAll(current, utils, cfg.Scheme.MaintainFraction, float64(cfg.MonitorWindow))
			sp.end(1)
		}
	}

	r, ok := res.PerScheme[partition.Untangle]
	if !ok {
		return nil
	}
	cfg := simConfig(partition.Untangle, worstCase)
	unit := cfg.Scheme.Cooldown / 40
	if unit <= 0 {
		unit = time.Microsecond
	}
	table, err := covert.Shared(covert.TableConfig{
		Cooldown: cfg.Scheme.Cooldown, DelayWidth: cfg.Scheme.DelayWidth, Unit: unit, MaxMaintains: 16,
	})
	if err != nil {
		return err
	}
	acct, err := core.NewUntangleAccountant(core.AccountantConfig{Domains: len(r.Domains), Table: table, OptimizeMaintain: !worstCase})
	if err != nil {
		return err
	}
	for d, dom := range r.Domains {
		sp := tr.begin(parent, layerCore)
		for _, a := range dom.Trace {
			acct.RecordAssessment(d, a.Visible, a.ApplyAt)
		}
		sp.end(uint64(len(dom.Trace)))
		got := acct.Domain(d)
		if !bitsEqual(got.TotalBits, dom.Leakage.TotalBits) || got.Assessments != dom.Leakage.Assessments {
			return fmt.Errorf("domain %d: re-driven Untangle accountant charged %v bits over %d assessments, the sim %v over %d",
				d, got.TotalBits, got.Assessments, dom.Leakage.TotalBits, dom.Leakage.Assessments)
		}
	}
	return nil
}

// mixDecomposed runs a whole mix's decomposition from its tapes: the four
// schemes' sims, the control-layer re-drive, and the digest check.
func mixDecomposed(tr *tracer, parent int, mix workload.Mix, specs []sim.DomainSpec, tapes []*tape, want string) error {
	res, assessments, err := mixSims(tr, parent, mix, specs, tapes, mixKinds, false)
	if err != nil {
		return err
	}
	if got, err := mixDigest(res); err != nil {
		return err
	} else if got != want {
		return fmt.Errorf("mix %d: decomposed sims digest %s, want %s", mix.ID, got, want)
	}
	return redriveControl(tr, parent, tapes, res, assessments, false)
}

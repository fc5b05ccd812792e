package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"untangle/internal/experiments"
)

// tracer keeps the decomposition's spans in memory; writeSpans writes them
// out once the run ends. Spans are taken only in this package, around calls
// into the layers' public functions — the program under test carries no
// tracing of its own.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	nextID int
	spans  []span
	// counts holds per-layer tallies that are not span counts (hits,
	// bytes, allocations).
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// open is a started span.
type open struct {
	t      *tracer
	id     int
	parent int
	layer  string
	start  time.Duration
}

// begin starts a span of layer under parent (0 for a root).
func (t *tracer) begin(parent int, layer string) open {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return open{t: t, id: id, parent: parent, layer: layer, start: time.Since(t.t0)}
}

// end closes the span, recording count units of work done inside it.
func (o open) end(count uint64) {
	end := time.Since(o.t.t0)
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, span{id: o.id, parent: o.parent, layer: o.layer, start: o.start, end: end, count: count})
	o.t.mu.Unlock()
}

// add accumulates a named tally.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// layerCounts sums the span counts of each layer.
func (t *tracer) layerCounts() map[string]uint64 {
	out := map[string]uint64{}
	for _, s := range t.spans {
		out[s.layer] += s.count
	}
	return out
}

// writeSpans writes every span as one JSON line: name, start, end, parent
// span, and the run id shared by all spans of this run.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	run := t.t0.UnixNano()
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		rec := struct {
			Run    int64  `json:"run"`
			ID     int    `json:"id"`
			Parent int    `json:"parent,omitempty"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Count  uint64 `json:"count,omitempty"`
		}{run, s.id, s.parent, s.layer, s.start.Nanoseconds(), s.end.Nanoseconds(), s.count}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// Span layer names. Spans named layerUnit group one campaign unit's calls;
// their self time is the decomposition's own glue, not any layer's.
const (
	layerUnit       = "unit"
	layerWorkload   = "workload"
	layerL1         = "cache.l1"
	layerLane       = "cache.lane"
	layerCPU        = "cpu"
	layerEncode     = "tracecache.encode"
	layerDecode     = "tracecache.decode"
	layerHitMask    = "monitor.hitmask"
	layerMask       = "monitor.mask"
	layerPartition  = "partition"
	layerCore       = "core"
	layerCheckpoint = "checkpoint"
	layerShard      = "shard"
	layerCampaign   = "campaign"
)

var simKinds = []string{"Static", "Time", "Untangle", "Shared"}

func simLayer(kind string) string { return "sim." + kind }

// tracedLayers lists the layers whose self time trace.coverage sums.
func tracedLayers() []string {
	ls := []string{layerWorkload, layerL1, layerLane, layerCPU, layerEncode, layerDecode,
		layerHitMask, layerMask, layerPartition, layerCore, layerCheckpoint,
		layerShard, layerCampaign}
	for _, k := range simKinds {
		ls = append(ls, simLayer(k))
	}
	return ls
}

// unitSpan is one campaign unit as the experiments layer reported it.
type unitSpan struct {
	phase, name string
	start, end  time.Duration
}

// unitObserver collects the units the in-process engine reports through
// experiments.SetUnitObserver.
type unitObserver struct {
	t0    time.Time
	mu    sync.Mutex
	units []unitSpan
}

func installUnitObserver() *unitObserver {
	o := &unitObserver{t0: time.Now()}
	experiments.SetUnitObserver(func(phase, unit string) func(string, error) {
		start := time.Since(o.t0)
		return func(string, error) {
			end := time.Since(o.t0)
			o.mu.Lock()
			o.units = append(o.units, unitSpan{phase: phase, name: unit, start: start, end: end})
			o.mu.Unlock()
		}
	})
	return o
}

// stop removes the observer and returns the top-level units it saw (the
// per-attempt "phase/pass" records are nested inside them).
func (o *unitObserver) stop() []unitSpan {
	experiments.SetUnitObserver(nil)
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []unitSpan
	for _, u := range o.units {
		if !strings.Contains(u.phase, "/") {
			out = append(out, u)
		}
	}
	return out
}

// layerMetrics turns the spans and tallies into the per-layer metrics.
func (t *tracer) layerMetrics(untraced, traced time.Duration, workers int, units []unitSpan) map[string]metric {
	self := selfTimes(t.spans)
	n := t.layerCounts()
	c := t.counts
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	put("workload.ops", float64(n[layerWorkload]), "count")
	put("workload.ns_per_op", perUnit(self[layerWorkload], n[layerWorkload]), "ns")
	put("cache.l1.accesses", float64(n[layerL1]), "count")
	put("cache.l1.ns_per_access", perUnit(self[layerL1], n[layerL1]), "ns")
	put("cache.l1.hit_ratio", ratio(uint64(c["cache.l1.hits"]), n[layerL1]), "ratio")
	put("cache.lane.probes", float64(n[layerLane]), "count")
	put("cache.lane.ns_per_probe", perUnit(self[layerLane], n[layerLane]), "ns")
	put("cache.lane.hit_ratio", ratio(uint64(c["cache.lane.hits"]), n[layerLane]), "ratio")
	put("cpu.charges", float64(n[layerCPU]), "count")
	put("cpu.ns_per_charge", perUnit(self[layerCPU], n[layerCPU]), "ns")
	put("tracecache.encode.events", float64(n[layerEncode]), "count")
	put("tracecache.encode.ns_per_event", perUnit(self[layerEncode], n[layerEncode]), "ns")
	put("tracecache.encode.bytes_per_event", ratio(uint64(c["tracecache.encode.bytes"]), n[layerEncode]), "B")
	put("tracecache.decode.events", float64(n[layerDecode]), "count")
	put("tracecache.decode.ns_per_event", perUnit(self[layerDecode], n[layerDecode]), "ns")
	put("tracecache.decode.allocs_per_kevent", 1000*ratio(uint64(c["tracecache.decode.allocs"]), n[layerDecode]), "count")
	put("tracecache.read_mb", c["tracecache.read_bytes"]/(1<<20), "MiB")
	put("tracecache.hit_ratio", ratio(uint64(c["tracecache.hits"]), uint64(c["tracecache.lookups"])), "ratio")
	put("tracecache.sidecar_hit_ratio", ratio(uint64(c["tracecache.sidecar_hits"]), uint64(c["tracecache.sidecar_lookups"])), "ratio")
	put("monitor.observed", float64(n[layerMask]), "count")
	put("monitor.ns_per_hitmask", perUnit(self[layerHitMask], n[layerHitMask]), "ns")
	put("monitor.ns_per_mask", perUnit(self[layerMask], n[layerMask]), "ns")
	var simBusy time.Duration
	var simEvents uint64
	for _, k := range simKinds {
		put("sim."+k+".busy_s", self[simLayer(k)].Seconds(), "s")
		simBusy += self[simLayer(k)]
		simEvents += n[simLayer(k)]
	}
	put("sim.ns_per_event", perUnit(simBusy, simEvents), "ns")
	put("sim.quanta", c["sim.quanta"], "count")
	put("sim.assessments", c["sim.assessments"], "count")
	put("sim.resizes_applied", c["sim.resizes_applied"], "count")
	put("partition.decisions", float64(n[layerPartition]), "count")
	put("partition.ns_per_decision", perUnit(self[layerPartition], n[layerPartition]), "ns")
	put("core.assessments", float64(n[layerCore]), "count")
	put("core.ns_per_assessment", perUnit(self[layerCore], n[layerCore]), "ns")
	put("covert.table_build_s", c["covert.table_build_s"], "s")
	put("checkpoint.records", float64(n[layerCheckpoint]), "count")
	put("checkpoint.ns_per_record", perUnit(self[layerCheckpoint], n[layerCheckpoint]), "ns")
	put("checkpoint.bytes_per_record", ratio(uint64(c["checkpoint.bytes"]), n[layerCheckpoint]), "B")
	put("shard.units", c["shard.units"], "count")
	put("shard.frame_bytes_per_unit", ratio(uint64(c["shard.frame_bytes"]), n[layerShard]), "B")
	put("shard.ns_per_unit", perUnit(self[layerShard], n[layerShard]), "ns")
	put("shard.requeued", c["shard.requeued"], "count")
	put("shard.duplicates", c["shard.duplicates"], "count")
	put("campaign.ns_per_unit", perUnit(self[layerCampaign], n[layerCampaign]), "ns")
	put("campaign.retries", c["campaign.retries"], "count")
	put("campaign.dead", c["campaign.dead"], "count")

	var busy []time.Duration
	var durs []float64
	for _, u := range units {
		busy = append(busy, u.end-u.start)
		durs = append(durs, (u.end - u.start).Seconds())
	}
	sort.Float64s(durs)
	maxUnit := 0.0
	if len(durs) > 0 {
		maxUnit = durs[len(durs)-1]
	}
	put("experiments.units", float64(len(units)), "count")
	put("experiments.unit_s.p50", median(durs), "s")
	put("experiments.unit_s.max", maxUnit, "s")
	put("parallel.idle_frac", idleFrac(busy, workers, untraced), "ratio")

	put("trace.coverage", coverage(self, tracedLayers(), untraced, workers), "ratio")
	put("trace.gap_s", (traced - untraced).Seconds(), "s")
	return m
}

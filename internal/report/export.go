package report

import (
	"encoding/json"
	"time"

	"untangle/internal/sim"
)

// Export structures serialize a simulation result for external analysis
// (plotting the partition-size charts, feeding traces to other tools).
// Durations are exported in nanoseconds of simulated time.

// ExportAssessment is one resizing assessment.
type ExportAssessment struct {
	AtNs      int64 `json:"at_ns"`
	ApplyAtNs int64 `json:"apply_at_ns"`
	PrevBytes int64 `json:"prev_bytes"`
	SizeBytes int64 `json:"size_bytes"`
	Visible   bool  `json:"visible"`
}

// ExportDomain is one domain's measured outcome.
type ExportDomain struct {
	Name             string             `json:"name"`
	IPC              float64            `json:"ipc"`
	Instructions     uint64             `json:"instructions"`
	FinishNs         int64              `json:"finish_ns"`
	LeakageBits      float64            `json:"leakage_bits"`
	Assessments      int                `json:"assessments"`
	VisibleActions   int                `json:"visible_actions"`
	Frozen           bool               `json:"frozen"`
	Trace            []ExportAssessment `json:"trace"`
	PartitionSamples []int64            `json:"partition_samples,omitempty"`
	SamplePeriodNs   int64              `json:"sample_period_ns"`
	LLCHits          uint64             `json:"llc_hits"`
	LLCMisses        uint64             `json:"llc_misses"`
	L1Hits           uint64             `json:"l1_hits"`
	L1Misses         uint64             `json:"l1_misses"`
}

// ExportResult is a full run.
type ExportResult struct {
	Scheme     string         `json:"scheme"`
	DurationNs int64          `json:"duration_ns"`
	Domains    []ExportDomain `json:"domains"`
}

// Export converts a simulation result into its serializable form.
func Export(res *sim.Result, samplePeriod time.Duration) ExportResult {
	out := ExportResult{
		Scheme:     res.Scheme.Kind.String(),
		DurationNs: res.Duration.Nanoseconds(),
	}
	for _, d := range res.Domains {
		ed := ExportDomain{
			Name:             d.Name,
			IPC:              d.IPC,
			Instructions:     d.Instructions,
			FinishNs:         d.FinishTime.Nanoseconds(),
			LeakageBits:      d.Leakage.TotalBits,
			Assessments:      d.Leakage.Assessments,
			VisibleActions:   d.Leakage.Visible,
			Frozen:           d.Leakage.Frozen,
			PartitionSamples: d.PartitionSamples,
			SamplePeriodNs:   samplePeriod.Nanoseconds(),
			LLCHits:          d.LLC.Hits,
			LLCMisses:        d.LLC.Misses,
			L1Hits:           d.L1.Hits,
			L1Misses:         d.L1.Misses,
		}
		for _, a := range d.Trace {
			ed.Trace = append(ed.Trace, ExportAssessment{
				AtNs:      a.At.Nanoseconds(),
				ApplyAtNs: a.ApplyAt.Nanoseconds(),
				PrevBytes: a.Prev,
				SizeBytes: a.Size,
				Visible:   a.Visible,
			})
		}
		out.Domains = append(out.Domains, ed)
	}
	return out
}

// MarshalJSON renders a result as indented JSON.
func MarshalJSON(res *sim.Result, samplePeriod time.Duration) ([]byte, error) {
	return json.MarshalIndent(Export(res, samplePeriod), "", "  ")
}

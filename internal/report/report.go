// Package report renders the reproduction's results in the layout of the
// paper's tables and figures: the three-chart groups of Figures 10 and
// 12-17 (partition-size distribution, leakage per assessment, normalized
// IPC), the Figure 11 sensitivity table, and Table 6.
package report

import (
	"fmt"
	"strings"

	"untangle/internal/experiments"
	"untangle/internal/partition"
	"untangle/internal/stats"
)

// mb formats bytes as megabytes.
func mb(v float64) string {
	return fmt.Sprintf("%.2f", v/(1<<20))
}

// MixGroup renders one Figure 10/12-17 group: the caption line, the
// partition-size distribution chart, the leakage-per-assessment chart, and
// the normalized-IPC chart, one row per workload plus the geometric mean.
func MixGroup(res *experiments.MixResult, study []experiments.SensitivityResult) (string, error) {
	var b strings.Builder
	demand := ""
	if study != nil {
		demand = fmt.Sprintf("; Total LLC demand: %sMB", mb(float64(experiments.TotalLLCDemand(res.Mix, study))))
	}
	fmt.Fprintf(&b, "Mix %d: %d LLC-sensitive benchmarks\n", res.Mix.ID, res.Mix.SensitiveCount())
	fmt.Fprintf(&b, "Total LLC size: 16MB%s\n\n", demand)

	// Chart 1: partition-size distribution under Time and Untangle.
	fmt.Fprintf(&b, "Partition size distribution (MB)  [min  q1  median  q3  max]\n")
	for _, kind := range []partition.Kind{partition.TimeBased, partition.Untangle} {
		sums, err := res.PartitionSummaries(kind)
		if err != nil {
			return "", err
		}
		r := res.PerScheme[kind]
		for i, s := range sums {
			fmt.Fprintf(&b, "  %-9s %-24s %6s %6s %6s %6s %6s\n",
				kind, r.Domains[i].Name, mb(s.Min), mb(s.Q1), mb(s.Median), mb(s.Q3), mb(s.Max))
		}
	}
	b.WriteString("\n")

	// Chart 2: leakage per assessment.
	fmt.Fprintf(&b, "Leakage per assessment (bits)\n")
	fmt.Fprintf(&b, "  %-24s %10s %10s\n", "workload", "Time", "Untangle")
	timeLeak, err := res.LeakagePerAssessment(partition.TimeBased)
	if err != nil {
		return "", err
	}
	unLeak, err := res.LeakagePerAssessment(partition.Untangle)
	if err != nil {
		return "", err
	}
	names := res.PerScheme[partition.TimeBased].Domains
	for i := range names {
		fmt.Fprintf(&b, "  %-24s %10.2f %10.2f\n", names[i].Name, timeLeak[i], unLeak[i])
	}
	fmt.Fprintf(&b, "  %-24s %10.2f %10.2f\n", "Average", stats.Mean(timeLeak), stats.Mean(unLeak))
	b.WriteString("\n")

	// Chart 3: normalized IPC.
	fmt.Fprintf(&b, "IPC normalized to Static\n")
	fmt.Fprintf(&b, "  %-24s %8s %8s %8s %8s\n", "workload", "Static", "Time", "Untangle", "Shared")
	cols := []partition.Kind{partition.TimeBased, partition.Untangle, partition.Shared}
	norm := map[partition.Kind][]float64{}
	for _, k := range cols {
		n, err := res.NormalizedIPC(k)
		if err != nil {
			return "", err
		}
		norm[k] = n
	}
	for i := range names {
		fmt.Fprintf(&b, "  %-24s %8.2f %8.2f %8.2f %8.2f\n", names[i].Name,
			1.0, norm[partition.TimeBased][i], norm[partition.Untangle][i], norm[partition.Shared][i])
	}
	geo := func(k partition.Kind) float64 {
		g, _ := res.SystemSpeedup(k)
		return g
	}
	fmt.Fprintf(&b, "  %-24s %8.2f %8.2f %8.2f %8.2f\n", "Geo. Mean",
		1.0, geo(partition.TimeBased), geo(partition.Untangle), geo(partition.Shared))
	// Visual echo of the bottom chart: Untangle's normalized IPC, with the
	// Static baseline marked at 1.0.
	labels := make([]string, len(names))
	for i := range names {
		labels[i] = names[i].Name
	}
	b.WriteString("\nUntangle normalized IPC (| = Static baseline):\n")
	b.WriteString(Bars(labels, norm[partition.Untangle], 40, 1.0))
	return b.String(), nil
}

// Figure11 renders the sensitivity study: one row per benchmark with its
// normalized IPC at every supported size and its adequate LLC size;
// LLC-sensitive rows are starred, as the paper bolds them.
func Figure11(study []experiments.SensitivityResult) string {
	var b strings.Builder
	b.WriteString("Figure 11: LLC sensitivity (IPC normalized to an 8MB partition)\n")
	fmt.Fprintf(&b, "  %-14s %-9s", "benchmark", "adequate")
	if len(study) > 0 {
		for _, s := range study[0].Sizes {
			fmt.Fprintf(&b, " %6sM", mb(float64(s)))
		}
	}
	b.WriteString("\n")
	for _, r := range study {
		mark := " "
		if r.Sensitive {
			mark = "*"
		}
		adequate := "n/a"
		if r.Adequate > 0 {
			adequate = mb(float64(r.Adequate)) + "MB"
		}
		fmt.Fprintf(&b, "%s %-14s %8s ", mark, r.Name, adequate)
		for _, v := range r.NormIPC {
			fmt.Fprintf(&b, " %6.2f ", v)
		}
		b.WriteString("\n")
	}
	b.WriteString("(* = LLC-sensitive: adequate size above the 2MB Static partition)\n")
	return b.String()
}

// Table6 renders the leakage summary table over a set of mix results.
func Table6(rows []experiments.Table6Row) string {
	var b strings.Builder
	b.WriteString("Table 6: Leakage under Time and Untangle\n")
	fmt.Fprintf(&b, "  %-7s %22s %22s %12s\n", "", "Time", "Untangle", "")
	fmt.Fprintf(&b, "  %-7s %10s %11s %10s %11s %12s\n",
		"", "bits/assess", "total bits", "bits/assess", "total bits", "reduction")
	for _, r := range rows {
		fmt.Fprintf(&b, "  Mix %-3d %10.1f %11.1f %10.1f %11.1f %11.0f%%\n",
			r.MixID, r.TimeAvgPerAssessment, r.TimeAvgTotal,
			r.UntangleAvgPerAssess, r.UntangleAvgTotal, r.ReductionPerAssessment*100)
	}
	return b.String()
}

// RateTableReport renders the precomputed covert-channel table (the Section
// 7 hardware table contents).
type RateTableEntry struct {
	Maintains           int
	RatePerSecond       float64
	BitsPerTransmission float64
}

// RateTable renders rate-table entries.
func RateTable(entries []RateTableEntry) string {
	var b strings.Builder
	b.WriteString("Covert-channel rate table (Appendix A / Section 7)\n")
	fmt.Fprintf(&b, "  %-10s %14s %16s\n", "maintains", "Rmax (bits/s)", "bits/resize")
	for _, e := range entries {
		fmt.Fprintf(&b, "  %-10d %14.1f %16.2f\n", e.Maintains, e.RatePerSecond, e.BitsPerTransmission)
	}
	return b.String()
}

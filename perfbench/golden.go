package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"untangle/internal/experiments"
	"untangle/internal/partition"
	"untangle/internal/workload"
)

// golden is the committed reference: one digest per campaign unit,
// generated from the oracle paths, plus the simulated-instruction totals
// sim_mips divides by.
type golden struct {
	Scale             float64           `json:"scale"`
	StudyInstructions uint64            `json:"study_instructions"`
	Units             map[string]string `json:"units"`
	// SimInstructions counts the measured-region instructions each part
	// simulates, summed over domains × schemes × lanes: "study" (36
	// benchmarks × 9 sizes), "mix/N" (8 domains × 4 schemes), "active/N"
	// (the Untangle worst-case rerun).
	SimInstructions map[string]uint64 `json:"sim_instructions"`
}

func loadGolden(path string) (*golden, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if g.Scale != benchScale || g.StudyInstructions != studyInstructions {
		return nil, fmt.Errorf("%s: golden digests are for scale %v / %d instructions, the benchmark runs %v / %d",
			path, g.Scale, g.StudyInstructions, benchScale, studyInstructions)
	}
	return &g, nil
}

// studyDigest digests one Figure 11 row: every normalized IPC's bits, the
// adequate size and the classification.
func studyDigest(r experiments.SensitivityResult) string {
	var d digester
	d.str(r.Name)
	for i, ipc := range r.NormIPC {
		d.u64(uint64(r.Sizes[i]))
		d.f64(ipc)
	}
	d.u64(uint64(r.Adequate))
	if r.Sensitive {
		d.u64(1)
	} else {
		d.u64(0)
	}
	return d.sum()
}

var mixKinds = []partition.Kind{partition.Static, partition.TimeBased, partition.Untangle, partition.Shared}

// mixDigest digests one mix: each scheme's per-domain IPC and leakage
// bits, its speedup over Static, and the dynamic schemes' maintain
// fractions.
func mixDigest(res *experiments.MixResult) (string, error) {
	var d digester
	d.u64(uint64(res.Mix.ID))
	for _, kind := range mixKinds {
		r, ok := res.PerScheme[kind]
		if !ok {
			return "", fmt.Errorf("mix %d: %v missing", res.Mix.ID, kind)
		}
		d.str(kind.String())
		for _, dom := range r.Domains {
			d.str(dom.Name)
			d.f64(dom.IPC)
			d.u64(dom.Instructions)
			d.f64(dom.Leakage.TotalBits)
			d.f64(dom.Leakage.PerAssessment())
			d.u64(uint64(dom.Leakage.Assessments))
			d.u64(uint64(dom.Leakage.Visible))
		}
		if kind != partition.Static {
			s, err := res.SystemSpeedup(kind)
			if err != nil {
				return "", err
			}
			d.f64(s)
		}
		if kind == partition.TimeBased || kind == partition.Untangle {
			mf, err := res.MaintainFraction(kind)
			if err != nil {
				return "", err
			}
			d.f64(mf)
		}
	}
	return d.sum(), nil
}

// mixInstructions sums the measured instructions over schemes and domains.
func mixInstructions(res *experiments.MixResult) uint64 {
	var n uint64
	for _, r := range res.PerScheme {
		for _, dom := range r.Domains {
			n += dom.Instructions
		}
	}
	return n
}

// generateGolden computes every digest from the oracle paths — the
// uncached study, the per-scheme mix oracle (Options.DisableFusion), and
// an in-process -oracle-mixes campaign for the sharded workload's report —
// and writes them to path.
func generateGolden(path, work, expBin string) error {
	ctx := context.Background()
	b, err := newBench(work, expBin, &golden{Units: map[string]string{}}, 1)
	if err != nil {
		return err
	}
	defer os.RemoveAll(b.root)
	if err := b.setupTables(); err != nil {
		return err
	}
	g := &golden{
		Scale:             benchScale,
		StudyInstructions: studyInstructions,
		Units:             map[string]string{},
		SimInstructions:   map[string]uint64{},
	}

	log.Print("golden: uncached Figure 11 study")
	study, err := experiments.SensitivityStudyContext(ctx, studyInstructions, jobs)
	if err != nil {
		return err
	}
	// The study's instruction count comes from the benchmark's own lane
	// fold, which must first reproduce the study's bits.
	tr := newTracer()
	rows := studyResults{}
	for _, r := range study {
		rows[r.Name] = r
		g.Units[experiments.SensitivityKey(r.Name)] = studyDigest(r)
	}
	var studyInstr uint64
	for _, name := range workload.SortedSPECNames() {
		fr, err := studyCold(tr, 0, nil, name)
		if err != nil {
			return err
		}
		if err := fr.matches(rows[name]); err != nil {
			return err
		}
		studyInstr += fr.instructions
	}
	g.SimInstructions["study"] = studyInstr

	for _, id := range figure10Mixes {
		log.Printf("golden: mix %d on the per-scheme oracle", id)
		mix, err := workload.MixByID(id)
		if err != nil {
			return err
		}
		res, err := experiments.RunMixContext(ctx, mix, experiments.Options{Scale: benchScale, Jobs: jobs, DisableFusion: true})
		if err != nil {
			return err
		}
		key := fmt.Sprintf("mix/%d", id)
		if g.Units[key], err = mixDigest(res); err != nil {
			return err
		}
		g.SimInstructions[key] = mixInstructions(res)
	}
	for _, id := range shardedMixes {
		mix, err := workload.MixByID(id)
		if err != nil {
			return err
		}
		act, err := experiments.RunMixContext(ctx, mix, experiments.Options{
			Scale: benchScale, Kinds: []partition.Kind{partition.Untangle},
			WorstCaseAccounting: true, Jobs: jobs, DisableFusion: true,
		})
		if err != nil {
			return err
		}
		g.SimInstructions[fmt.Sprintf("active/%d", id)] = mixInstructions(act)
	}

	log.Print("golden: in-process -oracle-mixes campaign")
	dir, err := b.freshDir("golden")
	if err != nil {
		return err
	}
	out := filepath.Join(dir, "report.txt")
	if _, err := b.runChild(ctx, append(shardedArgs(), "-jobs", fmt.Sprint(jobs), "-oracle-mixes", "-out", out)); err != nil {
		return err
	}
	report, err := os.ReadFile(out)
	if err != nil {
		return err
	}
	g.Units[campaignOutKey] = bytesDigest(report)

	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// bitsEqual compares floats bit for bit.
func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

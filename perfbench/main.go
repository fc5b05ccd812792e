// Command perfbench is the repository benchmark: it runs one named
// workload as a closed loop of whole campaigns, checks every unit's results
// against the committed golden digests, and prints one JSON result line.
//
//	perfbench --workload sens-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// tracing. With --trace 1 it runs one untraced campaign, then a traced
// decomposition of the same campaign that calls each layer's public
// functions from this package and records spans around the calls, and
// reports the per-layer metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"untangle/internal/partition"
	"untangle/internal/sim"
)

const (
	// benchScale and studyInstructions are the repository's bench input
	// size: scale 0.002 and the 600k-instruction Figure 11 study floor.
	benchScale        = 0.002
	studyInstructions = 600_000
	// jobs is the worker count every workload uses (the benchmark host has
	// two cores).
	jobs = 2
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	var (
		workloadName = flag.String("workload", "", "workload to run: "+workloadNames())
		seed         = flag.Int64("seed", 1, "run seed; the inputs are the paper's fixed benchmark and mix tables, so it only names the run's scratch directory")
		seconds      = flag.Int("seconds", 10, "measure for this many seconds (whole campaigns, at least one)")
		trace        = flag.Int("trace", 0, "1 runs the traced decomposition and reports per-layer metrics")
		work         = flag.String("work", filepath.Join(".bench_build", "perfbench-work"), "scratch directory for campaign outputs")
		expBin       = flag.String("experiments", filepath.Join(".bench_build", "bin", "experiments"), "cmd/experiments binary for the sharded workload")
		goldenPath   = flag.String("golden", filepath.Join("perfbench", "golden.json"), "golden digest file")
		writeGolden  = flag.Bool("write-golden", false, "regenerate the golden digests from the oracle paths and exit")
		summary      = flag.Bool("summarize", false, "print each metric's median, quartiles and spread over the result lines in the files named as arguments, and exit")
	)
	flag.Parse()

	if *summary {
		if err := summarize(os.Stdout, flag.Args()); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *writeGolden {
		if err := generateGolden(*goldenPath, *work, *expBin); err != nil {
			log.Fatal(err)
		}
		return
	}
	w, ok := workloads[*workloadName]
	if !ok {
		log.Fatalf("unknown -workload %q (want one of %s)", *workloadName, workloadNames())
	}
	g, err := loadGolden(*goldenPath)
	if err != nil {
		log.Fatal(err)
	}
	b, err := newBench(*work, *expBin, g, *seed)
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(b.root)

	var res result
	if *trace == 1 {
		res, err = b.traced(context.Background(), w)
	} else {
		res, err = b.measure(context.Background(), w, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		log.Fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(line))
}

// bench is one benchmark process: its scratch root and the golden digests.
type bench struct {
	root   string
	expBin string
	golden *golden
	iter   int
	// tableBuild is how long set-up spent building the covert rate
	// tables.
	tableBuild time.Duration
	// obsTrace asks child campaigns for an -obs-trace span file.
	obsTrace bool
}

func newBench(work, expBin string, g *golden, seed int64) (*bench, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(work, fmt.Sprintf("run-%d-", seed))
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(expBin)
	if err != nil {
		return nil, err
	}
	return &bench{root: root, expBin: abs, golden: g}, nil
}

// freshDir returns a new empty directory under the run's root.
func (b *bench) freshDir(name string) (string, error) {
	b.iter++
	dir := filepath.Join(b.root, fmt.Sprintf("%s-%d", name, b.iter))
	return dir, os.MkdirAll(dir, 0o755)
}

// campaignOut is what one campaign produced: a digest per unit, the units
// that errored, and (for the traced run's checks) the in-process results.
type campaignOut struct {
	digests map[string]string
	errored map[string]bool
	dir     string // the campaign's work directory, measured for disk_mb
	study   studyResults
	mixes   mixResults
	child   *childRun
	units   []unitSpan
	// keep marks dir as set-up state shared by later campaigns (measured,
	// never removed); extraDisk is another directory the campaign's disk
	// footprint includes.
	keep      bool
	extraDisk string
}

// workloadSpec is one named campaign shape.
type workloadSpec struct {
	// minCampaigns is the fewest campaigns a run measures; 0 means one.
	// A workload whose single campaign outlasts the run length sets it
	// so that its median is not one sample.
	minCampaigns int
	// units lists the golden keys one campaign must produce.
	units func(g *golden) []string
	// instructions is the simulated-instruction total of one campaign.
	instructions func(g *golden) uint64
	// setup prepares the process (rate tables, warm caches) outside the
	// timed region and returns the state campaigns share.
	setup func(b *bench) (any, error)
	// run executes one campaign.
	run func(ctx context.Context, b *bench, state any) (*campaignOut, error)
	// decompose replays the campaign's work through the layers' public
	// calls under the tracer.
	decompose func(ctx context.Context, b *bench, tr *tracer, state any, out *campaignOut) error
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// warmRateTables builds the process-wide covert rate table the Untangle
// accountant consults; every workload pays it in set-up, never in a timed
// campaign.
func warmRateTables() (time.Duration, error) {
	t := time.Now()
	err := sim.Scaled(partition.DefaultScheme(partition.Untangle), benchScale).WarmRateTables()
	return time.Since(t), err
}

// usage is a snapshot of host CPU time and peak RSS.
type usage struct {
	cpu      time.Duration
	childCPU time.Duration // waited-for descendants, grandchildren included
	maxRSS   int64         // KiB, this process
}

func readUsage() usage {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	tv := func(t syscall.Timeval) time.Duration { return time.Duration(t.Nano()) }
	return usage{
		cpu:      tv(self.Utime) + tv(self.Stime),
		childCPU: tv(kids.Utime) + tv(kids.Stime),
		maxRSS:   self.Maxrss,
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// measure runs the closed loop: set up once, then whole campaigns until
// the measuring time is spent, and reports per-campaign medians.
func (b *bench) measure(ctx context.Context, w workloadSpec, budget time.Duration) (result, error) {
	setupStart := time.Now()
	state, err := w.setup(b)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	setup := time.Since(setupStart)

	var walls, cpus, disks, rss []float64
	attempted, failed := 0, 0
	start := time.Now()
	for len(walls) == 0 || len(walls) < w.minCampaigns || time.Since(start) < budget {
		before := readUsage()
		t := time.Now()
		out, err := w.run(ctx, b, state)
		wall := time.Since(t)
		after := readUsage()
		if err != nil {
			return result{}, err
		}
		a, f, bad := checkDigests(out.digests, b.golden.Units, w.units(b.golden), out.errored)
		attempted += a
		failed += f
		if len(bad) > 0 {
			log.Printf("units off golden: %v", bad)
		}
		disk, err := dirBytes(out.dir)
		if err != nil {
			return result{}, err
		}
		if out.extraDisk != "" {
			extra, err := dirBytes(out.extraDisk)
			if err != nil {
				return result{}, err
			}
			disk += extra
		}
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, (after.cpu - before.cpu + after.childCPU - before.childCPU).Seconds())
		disks = append(disks, float64(disk)/(1<<20))
		peak := after.maxRSS
		if out.child != nil {
			// The campaign ran in child processes: its largest process is
			// the child tree's, not this driver's.
			peak = out.child.maxRSS
		}
		rss = append(rss, float64(peak)/1024)
		if !out.keep {
			if err := os.RemoveAll(out.dir); err != nil {
				return result{}, err
			}
		}
	}
	wallMed := median(walls)
	log.Printf("%d campaigns, wall %v", len(walls), walls)
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"wall_s":        {wallMed, "s"},
			"cpu_s":         {median(cpus), "s"},
			"sim_mips":      {float64(w.instructions(b.golden)) / 1e6 / wallMed, "Minstr/s"},
			"setup_s":       {setup.Seconds(), "s"},
			"max_rss_mb":    {median(rss), "MiB"},
			"disk_mb":       {median(disks), "MiB"},
			"units_ok_frac": {1 - failedFrac(failed, attempted), "ratio"},
		},
	}, nil
}

// traced runs one untraced campaign, then the traced decomposition of the
// same work, checks the decomposition's traffic against what the campaign
// saw, and reports the per-layer metrics.
func (b *bench) traced(ctx context.Context, w workloadSpec) (result, error) {
	tr := newTracer()
	state, err := w.setup(b)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	tr.add("covert.table_build_s", b.tableBuild.Seconds())
	b.obsTrace = true
	observer := installUnitObserver()
	t := time.Now()
	out, err := w.run(ctx, b, state)
	untraced := time.Since(t)
	units := observer.stop()
	if err != nil {
		return result{}, err
	}
	if out.child != nil {
		// A child campaign's units are visible only in its span file.
		if units, err = obsUnits(filepath.Join(out.dir, "obs.jsonl")); err != nil {
			return result{}, err
		}
	}
	attempted, failed, bad := checkDigests(out.digests, b.golden.Units, w.units(b.golden), out.errored)
	if len(bad) > 0 {
		log.Printf("units off golden: %v", bad)
	}

	t = time.Now()
	derr := w.decompose(ctx, b, tr, state, out)
	tracedWall := time.Since(t)
	if derr != nil {
		// A decomposition whose traffic differs from the engine's is a
		// failed run of every unit: the per-layer numbers would describe
		// other work.
		log.Printf("traced decomposition: %v", derr)
		failed = attempted
	}
	if err := tr.writeSpans(filepath.Join(filepath.Dir(b.root), "spans.jsonl")); err != nil {
		return result{}, err
	}
	metrics := tr.layerMetrics(untraced, tracedWall, jobs, units)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// childRun is a campaign executed by a child process.
type childRun struct {
	maxRSS int64 // KiB
	stderr []byte
}

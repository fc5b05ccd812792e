// Command tracegen records synthetic benchmark instruction streams into the
// repository's compact binary trace format, and inspects existing trace
// files. Recorded traces can be replayed through the simulator in place of
// the generators (isa.NewTraceReader is an isa.Stream), which is how users
// plug real program traces into the framework.
//
// -info understands both formats — an isa trace gets the op statistics and
// MRC curve, a front-end trace cache entry (internal/tracecache) gets its
// record counts and embedded key (mix-keyed rich entries additionally
// report the measured/pressure split). The cache itself is warmed by
// `experiments -fe-cache`.
//
// Usage:
//
//	tracegen -bench mcf_0 -instructions 1000000 -out mcf.trace
//	tracegen -info mcf.trace
//	tracegen -info dir/mcf_0-1500000.fetrace
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"untangle/internal/fsutil"
	"untangle/internal/isa"
	"untangle/internal/monitor"
	"untangle/internal/mrc"
	"untangle/internal/tracecache"
	"untangle/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	var (
		bench        = flag.String("bench", "", "benchmark to record (SPEC or crypto name)")
		instructions = flag.Uint64("instructions", 1_000_000, "instructions to record")
		out          = flag.String("out", "", "output trace file")
		info         = flag.String("info", "", "print statistics of an existing trace or cache file")
		secret       = flag.Uint64("secret", 0, "secret salt for crypto benchmarks")
	)
	flag.Parse()

	switch {
	case *info != "":
		if err := printInfo(*info); err != nil {
			log.Fatal(err)
		}
	case *bench != "" && *out != "":
		if err := record(*bench, *instructions, *out, *secret); err != nil {
			log.Fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func record(bench string, instructions uint64, out string, secret uint64) error {
	params, err := workload.SPECByName(bench)
	if err != nil {
		params, err = workload.CryptoWithSecret(bench, secret)
		if err != nil {
			return fmt.Errorf("unknown benchmark %q", bench)
		}
	}
	gen, err := workload.NewGenerator(params)
	if err != nil {
		return err
	}
	// Atomic output: the trace streams into a temp file and only a
	// complete recording is renamed to the destination, so a crash
	// mid-record never leaves a torn trace where a good one stood.
	f, err := fsutil.CreateAtomic(out)
	if err != nil {
		return err
	}
	defer f.Close()
	cw := &countingWriter{w: f}
	w, err := isa.NewTraceWriter(cw)
	if err != nil {
		return err
	}
	stream := isa.NewLimited(gen, instructions)
	n, err := w.WriteStream(stream, 0)
	if err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Commit(); err != nil {
		return err
	}
	log.Printf("recorded %d ops (%d instructions requested) to %s (%d bytes, %.2f bytes/op)",
		n, instructions, out, cw.n, float64(cw.n)/float64(n))
	return nil
}

// countingWriter tracks bytes written, replacing the Stat call the
// pre-atomic writer used for the size log line.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func printInfo(path string) error {
	if isCache, err := tracecache.IsCacheFile(path); err != nil {
		return err
	} else if isCache {
		return printCacheInfo(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := isa.NewTraceReader(f)
	if err != nil {
		return err
	}
	var ops, instr, mem, writes, secretOps uint64
	lines := map[uint64]struct{}{}
	buf := make([]isa.Op, 4096)
	for {
		n := r.Fill(buf)
		if n == 0 {
			break
		}
		for _, op := range buf[:n] {
			ops++
			instr += op.Instructions()
			if op.IsMem() {
				mem++
				lines[op.Addr/64] = struct{}{}
			}
			if op.IsWrite() {
				writes++
			}
			if op.SecretUse() {
				secretOps++
			}
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	fmt.Printf("%s:\n", path)
	fmt.Printf("  ops          %d\n", ops)
	fmt.Printf("  instructions %d\n", instr)
	fmt.Printf("  memory ops   %d (%.1f%% of instructions)\n", mem, 100*float64(mem)/float64(instr))
	fmt.Printf("  stores       %d\n", writes)
	fmt.Printf("  secret ops   %d\n", secretOps)
	fmt.Printf("  footprint    %.2f MB (%d distinct lines)\n", float64(len(lines))*64/(1<<20), len(lines))

	// The LLC demand curve via exact stack-distance analysis: the hit rate
	// a fully-associative LRU cache of each supported size would achieve on
	// the trace's public accesses.
	if _, err := f.Seek(0, 0); err != nil {
		return err
	}
	r2, err := isa.NewTraceReader(f)
	if err != nil {
		return err
	}
	prof, err := mrc.NewProfile((16 << 20) / 64)
	if err != nil {
		return err
	}
	if n := prof.ObserveStream(r2, 0); n > 0 {
		fmt.Printf("  LRU hit-rate curve (public accesses):\n")
		sizes := monitor.DefaultSizes()
		for i, hr := range prof.Curve(sizes) {
			fmt.Printf("    %7.2f MB  %5.1f%%\n", float64(sizes[i])/(1<<20), hr*100)
		}
	}
	return nil
}

// printCacheInfo renders a front-end cache entry: the fully decoded (and
// therefore CRC-verified) record counts plus the embedded key the engine
// matches against.
func printCacheInfo(path string) error {
	inf, err := tracecache.ReadInfo(path)
	if err != nil {
		return err
	}
	encoding := "classic"
	if inf.Rich {
		encoding = "rich"
	}
	fmt.Printf("%s: front-end trace cache entry (format v%d, %s)\n", path, inf.Version, encoding)
	fmt.Printf("  key          %s\n", inf.Key)
	fmt.Printf("  bytes        %d\n", inf.Bytes)
	fmt.Printf("  events       %d\n", inf.Events)
	if inf.ByKind[tracecache.KindMeasuredEnd] > 0 {
		fmt.Printf("  measured     %d events (+%d pressure-tail)\n",
			inf.Measured, inf.Events-inf.Measured-1)
	}
	fmt.Printf("  instructions %d\n", inf.Instructions)
	fmt.Printf("  memory ops   %d (%.1f%% of instructions; %d L1 hits, %d L1 misses)\n",
		inf.MemOps(), 100*float64(inf.MemOps())/float64(inf.Instructions),
		inf.ByKind[tracecache.KindL1Hit], inf.ByKind[tracecache.KindL1Miss])
	fmt.Printf("  bytes/event  %.2f\n", float64(inf.Bytes)/float64(inf.Events))
	return nil
}

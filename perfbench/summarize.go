package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// summarize reads result lines, the JSON object each run prints last, from
// the named files and prints for every metric the run count, the median,
// the first and third quartiles, and the interquartile distance as a share
// of the median: the spread the benchmark's bounds are judged by. Lines that
// are not JSON objects (build output, logs) are skipped.
func summarize(w io.Writer, paths []string) error {
	values := map[string][]float64{}
	units := map[string]string{}
	runs, incorrect := 0, 0
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range bytes.Split(raw, []byte("\n")) {
			line = bytes.TrimSpace(line)
			if !bytes.HasPrefix(line, []byte("{")) {
				continue
			}
			var r result
			if err := json.Unmarshal(line, &r); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			runs++
			if !r.Correct {
				incorrect++
			}
			for name, m := range r.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
	}
	if runs == 0 {
		return errors.New("no result lines")
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%d runs, %d not correct\n", runs, incorrect)
	fmt.Fprintf(w, "%-36s %4s %14s %14s %14s %8s\n", "metric", "n", "median", "q1", "q3", "spread")
	for _, name := range names {
		xs := values[name]
		q1, q3 := quartiles(xs)
		fmt.Fprintf(w, "%-36s %4d %14.6g %14.6g %14.6g %8.4f %s\n", name, len(xs), median(xs), q1, q3, relSpread(xs), units[name])
	}
	return nil
}

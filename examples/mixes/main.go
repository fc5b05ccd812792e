// Mixes: drive a full paper workload mix through the public experiment API.
//
// Runs Mix 1 (two LLC-sensitive workloads) under all four Table 4 schemes at
// a small scale and prints the Figure-10-style group plus the Table 6 row —
// the same code path the benchmark harness and cmd/experiments use.
//
//	go run ./examples/mixes           # Mix 1
//	go run ./examples/mixes 4         # any mix id
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"

	"untangle/internal/experiments"
	"untangle/internal/report"
	"untangle/internal/workload"
)

func main() {
	log.SetFlags(0)
	mixID := 1
	if len(os.Args) > 1 {
		id, err := strconv.Atoi(os.Args[1])
		if err != nil {
			log.Fatalf("bad mix id %q", os.Args[1])
		}
		mixID = id
	}
	mix, err := workload.MixByID(mixID)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("running mix %d under Static/Time/Untangle/Shared (scale 0.005)...", mixID)
	res, err := experiments.RunMix(mix, experiments.Options{Scale: 0.005})
	if err != nil {
		log.Fatal(err)
	}
	charts, err := report.MixCharts(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report.MixCaption(mix, nil), charts)
	row, err := res.Table6()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(report.Table6([]experiments.Table6Row{row}))
}

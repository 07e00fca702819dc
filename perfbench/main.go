// Command perfbench is the repository benchmark: one program that runs
// one named workload end to end through the scan service's public entry
// points, checks every result against a Go regexp oracle, and prints
// the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) by name and unit. The last line of standard output is
// the JSON result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the root of a checkout, through perfbench/run.py):
//
//	perfbench --workload dpi_session|protomata_bulk|log_fleet --seed N --seconds S --trace 0|1
//
// Workload definitions, rule sets, rate ladders and latency limits live
// in workloads.json next to this file, compiled into the binary.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

//go:embed workloads.json
var workloadsJSON []byte

// workloadFuncs maps each workload name to its driver.
var workloadFuncs = map[string]func(*run) error{
	"dpi_session":    runDPI,
	"protomata_bulk": runBulk,
	"log_fleet":      runFleet,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workload := flag.String("workload", "", "workload name (dpi_session, protomata_bulk, log_fleet)")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics")
	flag.Parse()

	cfg, err := loadConfig(workloadsJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fn, ok := workloadFuncs[*workload]
	wl, okCfg := cfg.Workloads[*workload]
	if !ok || !okCfg {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	r := newRun(*workload, wl, *seed, *seconds, *trace == 1)
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	r.finish()
	r.report(os.Stdout)
	out, err := json.Marshal(r.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !r.correct() {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sortedNames returns the metric names in a stable print order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

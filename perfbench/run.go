package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rulesConfig names a workload's rule set: a generated anmlzoo suite at
// a fixed generator seed (the rules are part of the workload, so the
// input seed varies the traffic, never the program), or inline rules.
type rulesConfig struct {
	Suite  string   `json:"suite"`
	Count  int      `json:"count"`
	Seed   int64    `json:"seed"`
	Inline []string `json:"inline"`
}

// workloadConfig is one workload's fixed definition from workloads.json.
// Fields a workload does not use stay zero.
type workloadConfig struct {
	Why            string      `json:"why"`
	Loop           string      `json:"loop"`
	Rules          rulesConfig `json:"rules"`
	SetupRepeats   int         `json:"setup_repeats"`
	TailPercentile float64     `json:"tail_percentile"`
	CensusOps      int         `json:"census_ops"`
	SliceSeconds   float64     `json:"slice_seconds"`

	// protomata_bulk
	DocBytes     int `json:"doc_bytes"`
	DocPool      int `json:"doc_pool"`
	PlantsPerDoc int `json:"plants_per_doc"`

	// dpi_session and protomata_bulk
	ChunkBytes int `json:"chunk_bytes"`

	// dpi_session
	Connections  int `json:"connections"`
	Flows        int `json:"flows"`
	FlowBytes    int `json:"flow_bytes"`
	WitnessEvery int `json:"witness_every_bytes"`

	// log_fleet
	Shards           int       `json:"shards"`
	Tenants          []string  `json:"tenants"`
	RecordsPerFrame  int       `json:"records_per_frame"`
	RecordMin        int       `json:"record_min_bytes"`
	RecordMax        int       `json:"record_max_bytes"`
	FramePool        int       `json:"frame_pool"`
	WitnessPerMille  int       `json:"witness_per_mille"`
	RateLadder       []float64 `json:"rate_ladder_ops_s"`
	ReferenceRate    float64   `json:"reference_rate_ops_s"`
	ReferenceShare   float64   `json:"reference_share"`
	LatencyLimitMs   float64   `json:"latency_limit_ms"`
	GatewayWorkers   int       `json:"gateway_workers"`
	TenantQueueDepth int       `json:"tenant_queue_depth"`
}

type config struct {
	Workloads map[string]workloadConfig `json:"workloads"`
}

func loadConfig(b []byte) (*config, error) {
	var c config
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &c, nil
}

// endToEndMetrics and layerMetrics are the canonical metric tables; the
// benchmark's test holds BENCHMARK.json to them. Every run prints every
// metric of its kind; a per-layer metric whose layer is not on the
// workload's path reads 0 (listed per workload in workloads.json).
var endToEndMetrics = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"throughput_mb_s", "MiB/s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"max_rate_ops_s", "1/s"},
	{"cpu_ms_per_mb", "ms/MiB"},
	{"peak_rss_mb", "MiB"},
}

var layerMetrics = []struct{ Name, Unit string }{
	{"compile.ms", "ms"},
	{"approx.build_ms", "ms"},
	{"prefilter.build_ms", "ms"},
	{"gate.build_ms", "ms"},
	{"approx.ns_per_byte", "ns/B"},
	{"approx.screened_frac", "ratio"},
	{"approx.precision", "ratio"},
	{"approx.share", "ratio"},
	{"prefilter.ns_per_byte", "ns/B"},
	{"prefilter.skip_frac", "ratio"},
	{"prefilter.share", "ratio"},
	{"gate.ns_per_byte", "ns/B"},
	{"gate.negative_frac", "ratio"},
	{"gate.cache_miss_frac", "ratio"},
	{"gate.bails", "count"},
	{"gate.share", "ratio"},
	{"exact.ns_per_byte", "ns/B"},
	{"exact.ns_per_cycle", "ns/cycle"},
	{"exact.cycles_per_byte", "cycles/B"},
	{"exact.share", "ratio"},
	{"window.count_per_mb", "1/MiB"},
	{"window.carry_frac", "ratio"},
	{"window.self_share", "ratio"},
	{"ckpt.export_us", "us"},
	{"ckpt.bytes", "B"},
	{"decode.us", "us"},
	{"encode.us", "us"},
	{"queue.highwater", "count"},
	{"server.p50_us", "us"},
	{"server.tail_us", "us"},
	{"server.shed", "count"},
	{"net.share", "ratio"},
	{"gateway.hop_us", "us"},
	{"gateway.rerouted", "count"},
	{"gateway.shed", "count"},
	{"fairqueue.depth_max", "count"},
	{"client.encode.us", "us"},
	{"client.retries", "count"},
	{"loadgen.late_tail_ms", "ms"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_b_per_byte", "B/B"},
	{"trace.overhead_frac", "ratio"},
	{"failed_frac", "ratio"},
	{"op_tail_pct", "pct"},
	{"op_samples", "count"},
}

// run is one benchmark invocation's state: its settings, the metrics
// it has measured, and the op outcome counts behind failed_frac.
type run struct {
	name    string
	cfg     workloadConfig
	seed    int64
	seconds float64
	traced  bool

	e2e   map[string]metric
	layer map[string]metric

	attempted  int64 // ops sent in measured phases
	failed     int64 // ops that errored or were shed
	mismatched int64 // ops whose result differed from the oracle
	traceBad   int64 // spans that broke the recorder's nesting check
	notes      []string

	// perturb, when set, alters every expected transcript; the tests use
	// it to show that a wrong oracle answer fails the run.
	perturb func([]hit) []hit
}

// expect returns the expected transcript for one oracle answer.
func (r *run) expect(hs []hit) []hit {
	if r.perturb != nil {
		return r.perturb(hs)
	}
	return hs
}

func newRun(name string, cfg workloadConfig, seed int64, seconds float64, traced bool) *run {
	return &run{
		name: name, cfg: cfg, seed: seed, seconds: seconds, traced: traced,
		e2e: map[string]metric{}, layer: map[string]metric{},
	}
}

func (r *run) endToEnd(name string, v float64) { r.e2e[name] = metric{v, unitOf(name)} }
func (r *run) perLayer(name string, v float64) { r.layer[name] = metric{v, unitOf(name)} }

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func unitOf(name string) string {
	for _, m := range endToEndMetrics {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range layerMetrics {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("perfbench: metric " + name + " is not in the metric tables")
}

// recordOps folds one measured phase's op outcomes into the run.
func (r *run) recordOps(attempted, failed, mismatched int64) {
	r.attempted += attempted
	r.failed += failed
	r.mismatched += mismatched
}

func (r *run) correct() bool { return r.mismatched == 0 && r.failed == 0 && r.traceBad == 0 }

// finish adds the metrics every run reports and fills absent per-layer
// metrics (layers not on this workload's path) with 0.
func (r *run) finish() {
	if r.traced {
		frac := 0.0
		if r.attempted > 0 {
			frac = float64(r.failed+r.mismatched) / float64(r.attempted)
		}
		r.perLayer("failed_frac", frac)
		for _, m := range layerMetrics {
			if _, ok := r.layer[m.Name]; !ok {
				r.layer[m.Name] = metric{0, m.Unit}
			}
		}
		return
	}
	if _, ok := r.e2e["peak_rss_mb"]; !ok {
		r.endToEnd("peak_rss_mb", peakRSSMiB())
	}
}

func (r *run) result() result {
	failed := r.failed + r.mismatched
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
		failed++
	}
	ms := r.e2e
	if r.traced {
		ms = r.layer
	}
	return result{Correct: r.correct() && r.attempted > 0, Attempted: attempted, Failed: failed, Metrics: ms}
}

// report prints the human-readable lines that precede the JSON result.
func (r *run) report(w io.Writer) {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g mode=%s loop=%s\n", r.name, r.seed, r.seconds, mode, r.cfg.Loop)
	fmt.Fprintf(w, "machine nproc=%d GOMAXPROCS=%d go=%s network=loopback\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, n := range r.notes {
		fmt.Fprintln(w, "note", n)
	}
	ms := r.e2e
	if r.traced {
		ms = r.layer
	}
	for _, n := range sortedNames(ms) {
		fmt.Fprintf(w, "metric %-26s %16.6f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	fmt.Fprintf(w, "ops attempted=%d failed=%d mismatched=%d\n", r.attempted, r.failed, r.mismatched)
}

// timeSetup builds the system n times and returns the median build
// time; every instance but the last is torn down, the last is kept.
func timeSetup(n int, build func() (teardown func(), err error)) (median float64, keep func(), err error) {
	if n < 1 {
		n = 1
	}
	var times []float64
	for i := 0; i < n; i++ {
		runtime.GC() // start every build from the same heap state
		t0 := time.Now()
		td, err := build()
		if err != nil {
			if keep != nil {
				keep()
			}
			return 0, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if keep != nil {
			keep()
		}
		keep = td
	}
	sort.Float64s(times)
	return times[len(times)/2], keep, nil
}

// usage is a point-in-time sample of the process's resource counters.
type usage struct {
	wall     time.Time
	cpu      time.Duration // user + system
	gcCPU    float64       // runtime GC CPU seconds
	totalCPU float64       // runtime-accounted CPU seconds
	alloc    uint64        // cumulative heap bytes allocated
}

var usageSamples = []rtmetrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

func sampleUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]rtmetrics.Sample, len(usageSamples))
	copy(s, usageSamples)
	rtmetrics.Read(s)
	u := usage{
		wall: time.Now(),
		cpu:  time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
	if s[0].Value.Kind() == rtmetrics.KindFloat64 {
		u.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == rtmetrics.KindFloat64 {
		u.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == rtmetrics.KindUint64 {
		u.alloc = s[2].Value.Uint64()
	}
	return u
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§7): Table 2 (ISA advanced
// primitives), Figure 4 (execution time per suite and engine), Figure 5
// (energy efficiency), the 1-to-10-core scaling with FPGA resource
// utilisation, and the ablation study over the design choices DESIGN.md
// calls out.
//
// Every experiment takes an Options value so the same code runs at
// test scale (a few rules over tens of kilobytes) and at paper scale
// (200 rules over 1 MB); cmd/alvearebench drives the latter and
// EXPERIMENTS.md records paper-versus-measured results.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"alveare/internal/anmlzoo"
	"alveare/internal/arch"
	"alveare/internal/backend"
	"alveare/internal/baseline/dpu"
	"alveare/internal/baseline/gpu"
	"alveare/internal/baseline/pikevm"
	"alveare/internal/multicore"
	"alveare/internal/perf"
)

// Options scales the experiments.
type Options struct {
	Patterns    int   // rules per suite
	DatasetSize int   // bytes per suite dataset
	Seed        int64 // generator seed
	Cores       int   // scale-out width of the big ALVEARE configuration

	// Progress, when non-nil, receives one line per completed
	// measurement step (suite x engine); long paper-scale runs use it
	// to show liveness.
	Progress func(format string, args ...any) `json:"-"`
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(format, args...)
	}
}

// Paper returns the paper-scale setup: 200 REs, 1 MB, 10 cores.
func Paper() Options {
	return Options{Patterns: 200, DatasetSize: 1 << 20, Seed: 2024, Cores: perf.MaxCores}
}

// Small returns a fast setup for tests and smoke runs.
func Small() Options {
	return Options{Patterns: 6, DatasetSize: 24 << 10, Seed: 2024, Cores: 4}
}

func (o Options) normalize() Options {
	p := Paper()
	if o.Patterns <= 0 {
		o.Patterns = p.Patterns
	}
	if o.DatasetSize <= 0 {
		o.DatasetSize = p.DatasetSize
	}
	if o.Seed == 0 {
		o.Seed = p.Seed
	}
	if o.Cores <= 0 {
		o.Cores = p.Cores
	}
	return o
}

// ---------------------------------------------------------------------
// Table 2: ISA advanced primitives reduce code (and, being RISC-based,
// the cycles to execute the instruction set).

// Table2Row compares one microbenchmark RE under the minimal and the
// advanced compiler, next to the paper's reported numbers.
type Table2Row struct {
	RE          string
	MinimalOps  int
	AdvancedOps int
	Reduction   float64

	PaperMinimal   int
	PaperAdvanced  int
	PaperReduction float64
}

// table2Microbenchmarks are the paper's Table 2 REs with its reported
// counts.
var table2Microbenchmarks = []struct {
	re                string
	minimal, advanced int
	reduction         float64
}{
	{"[a-zA-Z]", 26, 1, 26.0},
	{"[DBEZX]{7}", 28, 6, 4.66},
	{".{3,6}", 1160, 2, 580.0},
	{"[^ ]*", 66, 2, 33.0},
}

// Table2 compiles the four microbenchmarks in both modes and reports
// instruction counts excluding the EoR, the paper's metric.
func Table2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, m := range table2Microbenchmarks {
		min, err := backend.Compile(m.re, backend.Minimal())
		if err != nil {
			return nil, fmt.Errorf("minimal %q: %w", m.re, err)
		}
		adv, err := backend.Compile(m.re, backend.Options{})
		if err != nil {
			return nil, fmt.Errorf("advanced %q: %w", m.re, err)
		}
		row := Table2Row{
			RE:             m.re,
			MinimalOps:     min.OpCount(),
			AdvancedOps:    adv.OpCount(),
			PaperMinimal:   m.minimal,
			PaperAdvanced:  m.advanced,
			PaperReduction: m.reduction,
		}
		row.Reduction = float64(row.MinimalOps) / float64(row.AdvancedOps)
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable2 renders the comparison as a text table.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "RE\tMinimal Ops\tAdvanced Ops\tReduction\tPaper(Min->Adv)\tPaper Reduction")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.2fx\t%d -> %d\t%.2fx\n",
			r.RE, r.MinimalOps, r.AdvancedOps, r.Reduction,
			r.PaperMinimal, r.PaperAdvanced, r.PaperReduction)
	}
	w.Flush()
	return b.String()
}

// ---------------------------------------------------------------------
// Figures 4 and 5: per-suite average execution time and energy
// efficiency per engine.

// Engine labels, in the figures' presentation order.
const (
	EngAlveare1 = "ALVEARE-1"
	EngAlveareN = "ALVEARE-N" // N = Options.Cores, renamed in results
	EngRE2A53   = "RE2-A53"
	EngDPU      = "DPU"
	EngINFAnt   = "GPU-iNFAnt"
	EngOBAT     = "GPU-OBAT"
)

// EngineResult is one bar of Figure 4/5: the per-RE average execution
// time on the 1 MB stream, the system power, and the energy-efficiency
// KPI 1/(t*P).
type EngineResult struct {
	Engine    string
	Seconds   float64 // average per-RE execution time
	Matches   int64   // total matches found across the rule set
	Skipped   int     // rules this engine could not run
	PowerW    float64
	EnergyEff float64
}

// SuiteResult aggregates one benchmark suite.
type SuiteResult struct {
	Suite   string
	Rules   int
	Engines []EngineResult
}

// Figure4 runs every engine on every suite and returns the measured
// series; Figure 5 derives from the same data (RenderFigure5).
func Figure4(opt Options) ([]SuiteResult, error) {
	opt = opt.normalize()
	var out []SuiteResult
	for _, suite := range anmlzoo.All(opt.Patterns, opt.DatasetSize, opt.Seed) {
		sr, err := runSuite(suite, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", suite.Name, err)
		}
		out = append(out, sr)
	}
	return out, nil
}

func runSuite(suite *anmlzoo.Suite, opt Options) (SuiteResult, error) {
	sr := SuiteResult{Suite: suite.Name, Rules: len(suite.Patterns)}

	alv1, err := alveareEngine(suite, 1)
	if err != nil {
		return sr, err
	}
	opt.progress("%s: ALVEARE-1 done (avg %s)", suite.Name, fmtSeconds(alv1.Seconds))
	alvN, err := alveareEngine(suite, opt.Cores)
	if err != nil {
		return sr, err
	}
	alvN.Engine = fmt.Sprintf("ALVEARE-%d", opt.Cores)
	opt.progress("%s: %s done (avg %s)", suite.Name, alvN.Engine, fmtSeconds(alvN.Seconds))
	re2, err := re2Engine(suite)
	if err != nil {
		return sr, err
	}
	opt.progress("%s: RE2-A53 done (avg %s)", suite.Name, fmtSeconds(re2.Seconds))
	dpuRes, err := dpuEngine(suite)
	if err != nil {
		return sr, err
	}
	opt.progress("%s: DPU done (avg %s)", suite.Name, fmtSeconds(dpuRes.Seconds))
	inf, obat, err := gpuEngines(suite)
	if err != nil {
		return sr, err
	}
	opt.progress("%s: GPU models done (avg %s / %s)", suite.Name, fmtSeconds(inf.Seconds), fmtSeconds(obat.Seconds))
	sr.Engines = []EngineResult{alv1, alvN, re2, dpuRes, inf, obat}
	for i := range sr.Engines {
		e := &sr.Engines[i]
		e.EnergyEff = perf.EnergyEff(e.Seconds, e.PowerW)
	}
	return sr, nil
}

// StreamChunk is the input-chunk size every engine processes at a time:
// the paper adopts the DPU's 16 KiB job limit across the board "for
// fairness", which also bounds the per-chunk work each ALVEARE core
// receives (and with it the scale-out efficiency).
const StreamChunk = 16 << 10

// alveareEngine measures the per-RE average wall time of an n-core
// ALVEARE on the suite, processing the stream in 16 KiB chunks.
func alveareEngine(suite *anmlzoo.Suite, cores int) (EngineResult, error) {
	res := EngineResult{Engine: fmt.Sprintf("ALVEARE-%d", cores), PowerW: perf.AlvearePowerAt(cores)}
	var total float64
	ran := 0
	cfg := arch.DefaultConfig()
	// Bound pathological rules: a rule needing more than ~300 cycles
	// per byte of chunk is excluded, as the paper excludes bad-formed
	// rules from its random selection.
	cfg.MaxCycles = int64(StreamChunk) * 300
	for _, re := range suite.Patterns {
		p, err := backend.Compile(re, backend.Options{})
		if err != nil {
			return res, fmt.Errorf("compile %q: %w", re, err)
		}
		eng, err := multicore.New(p, cores, cfg, 0)
		if err != nil {
			return res, err
		}
		var wall int64
		var matches int64
		failed := false
		for off := 0; off < len(suite.Dataset); off += StreamChunk {
			end := off + StreamChunk
			if end > len(suite.Dataset) {
				end = len(suite.Dataset)
			}
			r, err := eng.Run(suite.Dataset[off:end])
			if err != nil {
				failed = true
				break
			}
			wall += r.WallCycles
			matches += int64(len(r.Matches))
		}
		if failed {
			res.Skipped++
			continue
		}
		total += perf.AlveareTime(wall)
		res.Matches += matches
		ran++
	}
	if ran > 0 {
		res.Seconds = total / float64(ran)
	}
	return res, nil
}

// re2Engine measures the Pike VM (RE2's core) and models A53 seconds
// from its thread-step count.
func re2Engine(suite *anmlzoo.Suite) (EngineResult, error) {
	res := EngineResult{Engine: EngRE2A53, PowerW: perf.A53PowerW}
	var total float64
	ran := 0
	for _, re := range suite.Patterns {
		p, err := pikevm.Compile(re)
		if err != nil {
			return res, fmt.Errorf("pikevm %q: %w", re, err)
		}
		n := p.Count(suite.Dataset)
		total += perf.A53Time(p.Steps)
		res.Matches += int64(n)
		ran++
	}
	if ran > 0 {
		res.Seconds = total / float64(ran)
	}
	return res, nil
}

// dpuEngine measures the BlueField-2 model per rule with the paper's
// 16 KiB chunk limit.
func dpuEngine(suite *anmlzoo.Suite) (EngineResult, error) {
	res := EngineResult{Engine: EngDPU, PowerW: perf.DPUPowerW}
	cfg := dpu.DefaultConfig()
	var total float64
	ran := 0
	for _, re := range suite.Patterns {
		e, err := dpu.New(re, cfg)
		if err != nil {
			return res, fmt.Errorf("dpu %q: %w", re, err)
		}
		r := e.Process(suite.Dataset)
		total += r.DeviceSeconds
		res.Matches += int64(r.Matches)
		ran++
	}
	if ran > 0 {
		res.Seconds = total / float64(ran)
	}
	return res, nil
}

// gpuEngines measures the NFA frontier once per rule and prices it
// under both GPU models.
func gpuEngines(suite *anmlzoo.Suite) (inf, obat EngineResult, err error) {
	inf = EngineResult{Engine: EngINFAnt, PowerW: perf.V100PowerW}
	obat = EngineResult{Engine: EngOBAT, PowerW: perf.V100PowerW}
	infCfg, obatCfg := gpu.INFAntConfig(), gpu.OBATConfig()
	var tInf, tObat float64
	ran := 0
	for _, re := range suite.Patterns {
		e, gerr := gpu.New(re, obatCfg)
		if gerr != nil {
			return inf, obat, fmt.Errorf("gpu %q: %w", re, gerr)
		}
		w := e.Measure(suite.Dataset)
		ri := infCfg.Model(w)
		ro := obatCfg.Model(w)
		tInf += ri.DeviceSeconds
		tObat += ro.DeviceSeconds
		inf.Matches += int64(w.Matches)
		obat.Matches += int64(w.Matches)
		ran++
	}
	if ran > 0 {
		inf.Seconds = tInf / float64(ran)
		obat.Seconds = tObat / float64(ran)
	}
	return inf, obat, nil
}

// RenderFigure4 renders the execution-time series (lower is better).
func RenderFigure4(rs []SuiteResult) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Suite\tEngine\tAvg exec time\tMatches\tSkipped")
	for _, sr := range rs {
		for _, e := range sr.Engines {
			fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%d\n", sr.Suite, e.Engine, fmtSeconds(e.Seconds), e.Matches, e.Skipped)
		}
	}
	w.Flush()
	return b.String()
}

// RenderFigure5 renders the energy-efficiency series (higher is
// better).
func RenderFigure5(rs []SuiteResult) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Suite\tEngine\tPower (W)\tEnergy eff (1/J)")
	for _, sr := range rs {
		for _, e := range sr.Engines {
			fmt.Fprintf(w, "%s\t%s\t%.2f\t%.3g\n", sr.Suite, e.Engine, e.PowerW, e.EnergyEff)
		}
	}
	w.Flush()
	return b.String()
}

// Speedups extracts the headline ratios of the paper's abstract from a
// Figure 4 run: the big ALVEARE versus each baseline per suite.
func Speedups(rs []SuiteResult) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Suite\tvs RE2-A53\tvs DPU\tvs iNFAnt\tvs OBAT\tvs ALVEARE-1\tEff vs A53\tEff vs DPU")
	for _, sr := range rs {
		get := func(name string) *EngineResult {
			for i := range sr.Engines {
				if sr.Engines[i].Engine == name {
					return &sr.Engines[i]
				}
			}
			return nil
		}
		var big *EngineResult
		for i := range sr.Engines {
			if strings.HasPrefix(sr.Engines[i].Engine, "ALVEARE-") && sr.Engines[i].Engine != EngAlveare1 {
				big = &sr.Engines[i]
			}
		}
		if big == nil {
			big = get(EngAlveare1)
		}
		row := func(name string) string {
			e := get(name)
			if e == nil || e.Seconds == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2fx", perf.Speedup(e.Seconds, big.Seconds))
		}
		effRow := func(name string) string {
			e := get(name)
			if e == nil || e.EnergyEff == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2fx", big.EnergyEff/e.EnergyEff)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n", sr.Suite,
			row(EngRE2A53), row(EngDPU), row(EngINFAnt), row(EngOBAT), row(EngAlveare1),
			effRow(EngRE2A53), effRow(EngDPU))
	}
	w.Flush()
	return b.String()
}

func fmtSeconds(s float64) string {
	switch {
	case s <= 0:
		return "-"
	case s < 1e-6:
		return fmt.Sprintf("%.1f ns", s*1e9)
	case s < 1e-3:
		return fmt.Sprintf("%.1f us", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2f ms", s*1e3)
	default:
		return fmt.Sprintf("%.2f s", s)
	}
}

// ---------------------------------------------------------------------
// Scaling: 1..10 cores — wall-time speedup per suite plus the FPGA
// resource model that bounds the scale-out.

// ScalingRow is one core count of the scaling experiment.
type ScalingRow struct {
	Cores   int
	LUTPct  float64
	BRAMPct float64
	// Speedup per suite versus the single core.
	Speedup map[string]float64
}

// Scaling measures the multi-core speedup on every suite at the given
// core counts (default 1, 2, 4, 8, 10) and attaches the utilisation
// model.
func Scaling(opt Options, coreCounts ...int) ([]ScalingRow, error) {
	opt = opt.normalize()
	if len(coreCounts) == 0 {
		coreCounts = []int{1, 2, 4, 8, perf.MaxCores}
	}
	sort.Ints(coreCounts)
	suites := anmlzoo.All(opt.Patterns, opt.DatasetSize, opt.Seed)

	// wall[suite][cores] = average wall seconds.
	wall := map[string]map[int]float64{}
	for _, suite := range suites {
		wall[suite.Name] = map[int]float64{}
		for _, n := range coreCounts {
			er, err := alveareEngine(suite, n)
			if err != nil {
				return nil, err
			}
			wall[suite.Name][n] = er.Seconds
			opt.progress("scaling %s @ %d cores done (avg %s)", suite.Name, n, fmtSeconds(er.Seconds))
		}
	}
	var rows []ScalingRow
	for _, n := range coreCounts {
		lut, bram := perf.Utilization(n)
		row := ScalingRow{Cores: n, LUTPct: lut, BRAMPct: bram, Speedup: map[string]float64{}}
		for _, suite := range suites {
			base := wall[suite.Name][coreCounts[0]]
			row.Speedup[suite.Name] = perf.Speedup(base, wall[suite.Name][n])
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderScaling renders the scaling experiment.
func RenderScaling(rows []ScalingRow, suites []string) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Cores\tLUT%%\tBRAM%%")
	for _, s := range suites {
		fmt.Fprintf(w, "\t%s speedup", s)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%.2f\t%.2f", r.Cores, r.LUTPct, r.BRAMPct)
		for _, s := range suites {
			fmt.Fprintf(w, "\t%.2fx", r.Speedup[s])
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return b.String()
}

// ---------------------------------------------------------------------
// Ablation: the design choices DESIGN.md calls out, measured as average
// ALVEARE cycles per rule on one suite.

// AblationRow is one configuration of the ablation study.
type AblationRow struct {
	Config    string
	AvgCycles float64
	Slowdown  float64 // versus the full design
	Skipped   int
}

// ablationConfig is one compiler/architecture variant.
type ablationConfig struct {
	name     string
	compiler backend.Options
	arch     func(arch.Config) arch.Config
}

func ablationConfigs() []ablationConfig {
	id := func(c arch.Config) arch.Config { return c }
	return []ablationConfig{
		{"full design (4 CU, fused, all primitives)", backend.Options{}, id},
		{"no fusion", backend.Options{NoFusion: true}, id},
		{"no RANGE primitive", noRangeOptions(), id},
		{"no NOT primitive", noNotOptions(), id},
		{"no counters (unfolded)", noCountersOptions(), id},
		{"minimal compiler", backend.Minimal(), id},
		{"1 compute unit", backend.Options{}, func(c arch.Config) arch.Config { c.ComputeUnits = 1; return c }},
		{"2 compute units", backend.Options{}, func(c arch.Config) arch.Config { c.ComputeUnits = 2; return c }},
	}
}

// Ablation runs the configurations on the named suite. The default is
// Snort, whose negated classes and counters exercise every advanced
// primitive (PowerEN's alternation-led rules barely use NOT/RANGE).
func Ablation(opt Options, suiteName string) ([]AblationRow, error) {
	opt = opt.normalize()
	if suiteName == "" {
		suiteName = "Snort"
	}
	suite, err := anmlzoo.ByName(suiteName, opt.Patterns, opt.DatasetSize, opt.Seed)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	var baseline float64
	for i, cfg := range ablationConfigs() {
		avg, skipped, err := ablationRun(suite, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.name, err)
		}
		opt.progress("ablation %q done (avg %.0f cycles)", cfg.name, avg)
		row := AblationRow{Config: cfg.name, AvgCycles: avg, Skipped: skipped}
		if i == 0 {
			baseline = avg
		}
		if baseline > 0 {
			row.Slowdown = avg / baseline
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func ablationRun(suite *anmlzoo.Suite, cfg ablationConfig) (avg float64, skipped int, err error) {
	acfg := cfg.arch(arch.DefaultConfig())
	var total int64
	ran := 0
	for _, re := range suite.Patterns {
		p, err := backend.Compile(re, cfg.compiler)
		if err != nil {
			return 0, 0, fmt.Errorf("compile %q: %w", re, err)
		}
		c, err := arch.NewCore(p, acfg)
		if err != nil {
			return 0, 0, err
		}
		if _, err := c.FindAll(suite.Dataset, 0); err != nil {
			skipped++
			continue
		}
		total += c.Stats().Cycles
		ran++
	}
	if ran > 0 {
		avg = float64(total) / float64(ran)
	}
	return avg, skipped, nil
}

func noRangeOptions() backend.Options {
	o := backend.Options{}
	o.IR.NoRange = true
	return o
}

func noNotOptions() backend.Options {
	o := backend.Options{}
	o.IR.NoNot = true
	return o
}

func noCountersOptions() backend.Options {
	o := backend.Options{}
	o.IR.NoCounters = true
	return o
}

// RenderAblation renders the ablation table.
func RenderAblation(rows []AblationRow) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Configuration\tAvg cycles/rule\tSlowdown\tSkipped")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.0f\t%.2fx\t%d\n", r.Config, r.AvgCycles, r.Slowdown, r.Skipped)
	}
	w.Flush()
	return b.String()
}

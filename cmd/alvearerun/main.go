// Command alvearerun executes a regular expression over files or stdin
// on the ALVEARE simulator and reports matches and the
// microarchitecture's performance counters.
//
// Usage:
//
//	alvearerun [-cores N] [-all] [-stats] [-chunk N] [-overlap N]
//	           [-policy failfast|degrade|skip] [-budget N] [-timeout D]
//	           [-metrics MODE] 'regex' [file...]
//
// With no files, data is read from standard input. Single-core runs
// without -trace/-vcd stream the input through a chunked window
// (Engine.ScanReader), so arbitrarily large inputs are never loaded
// into memory; multi-core and traced runs need random access and read
// the whole input.
//
// Exit status is 1 when nothing matches, 124 when -timeout expires and
// 130 on Ctrl-C — both stops flush the counts gathered so far. -policy
// selects the runaway containment: abort (failfast), retry on the safe
// linear-time engine (degrade), or drop the poisoned region (skip);
// -budget caps the cycles one scan attempt may burn before it counts
// as a runaway (the default 2^40 effectively never trips).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"alveare"
	"alveare/internal/arch"
	"alveare/internal/cli"
	"alveare/internal/perf"
)

// ctx is the tool's root context: cancelled by SIGINT/SIGTERM and by
// -timeout, threaded through every scan so Ctrl-C stops a run cleanly,
// flushing the counts collected so far.
var ctx context.Context

func main() {
	var (
		cores = flag.Int("cores", 1, "ALVEARE cores (divide-and-conquer over the stream)")
		all   = flag.Bool("all", false, "report every non-overlapping match, not just the first")
		stats = flag.Bool("stats", false, "print microarchitecture counters and modelled device time")
		quiet = flag.Bool("q", false, "suppress per-match output (exit status only)")
		trace = flag.Bool("trace", false, "print a cycle-by-cycle execution trace to stderr (single core)")
		vcd   = flag.String("vcd", "", "write a VCD waveform of the execution to this file (single core)")
		chunk = flag.Int("chunk", 0, "streaming window size in bytes (0 = default 64 KiB)")
		olap  = flag.Int("overlap", 0, "chunk-boundary overlap in bytes (0 = default 256)")
		cf    = cli.RegisterScan(flag.CommandLine)
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: alvearerun [flags] 'regex' [file...]")
		os.Exit(cli.ExitUsage)
	}
	var stop context.CancelFunc
	ctx, stop = cli.Context(cf.Timeout)
	defer stop()
	prog, err := alveare.Compile(flag.Arg(0))
	fatalIf(err)
	opts := append([]alveare.Option{alveare.WithCores(*cores),
		alveare.WithChunkSize(*chunk), alveare.WithOverlap(*olap)},
		cf.EngineOptions("alvearerun")...)
	eng, err := alveare.NewEngine(prog, opts...)
	fatalIf(err)

	// Tracing runs on a dedicated single core so the trace and the
	// waveform describe one coherent pipeline.
	var traceCore *arch.Core
	var vcdWriter *arch.VCDWriter
	if *trace || *vcd != "" {
		traceCore, err = arch.NewCore(prog, arch.DefaultConfig())
		fatalIf(err)
		if *vcd != "" {
			f, err := os.Create(*vcd)
			fatalIf(err)
			defer f.Close()
			vcdWriter = arch.NewVCDWriter(f, "1ns")
			defer vcdWriter.Close()
			traceCore.SetTracer(vcdWriter.Tracer())
		}
		if *trace {
			text := arch.TextTracer(os.Stderr)
			if vcdWriter != nil {
				wave := vcdWriter.Tracer()
				traceCore.SetTracer(func(ev arch.TraceEvent) { text(ev); wave(ev) })
			} else {
				traceCore.SetTracer(text)
			}
		}
	}

	files := flag.Args()[1:]
	if len(files) == 0 {
		files = []string{"-"}
	}
	found := false
	for _, name := range files {
		label := name
		if name == "-" {
			label = "(stdin)"
		}
		// The common case — one core, no tracing — streams the input
		// through a bounded window instead of slurping it.
		if traceCore == nil && *cores == 1 {
			if scanStream(eng, name, label, *all, *stats, *quiet, cf.Metrics != "") {
				found = true
			}
			continue
		}
		data, err := readInput(name)
		fatalIf(err)
		if traceCore != nil {
			// Drive the traced core over the same input (first match).
			if _, _, err := traceCore.Find(data); err != nil {
				fmt.Fprintln(os.Stderr, "alvearerun: trace:", err)
			}
		}
		if *all {
			res, err := eng.RunCtx(ctx, data)
			flushIfStopped(label, len(res.Matches), err)
			fatalIf(err)
			for _, m := range res.Matches {
				found = true
				if !*quiet {
					fmt.Printf("%s: [%d,%d) %q\n", label, m.Start, m.End, clip(data[m.Start:m.End]))
				}
			}
			if *stats {
				printRunStats(res.WallCycles, res.TotalCycles, len(res.Matches))
			}
			continue
		}
		m, ok, err := eng.FindCtx(ctx, data)
		flushIfStopped(label, 0, err)
		fatalIf(err)
		if ok {
			found = true
			if !*quiet {
				fmt.Printf("%s: [%d,%d) %q\n", label, m.Start, m.End, clip(data[m.Start:m.End]))
			}
		} else if !*quiet {
			fmt.Printf("%s: no match\n", label)
		}
		if *stats {
			st := eng.Stats()
			fmt.Printf("  cycles=%d instructions=%d speculations=%d rollbacks=%d scan=%d refill=%d\n",
				st.Cycles, st.Instructions, st.Speculations, st.Rollbacks, st.ScanCycles, st.RefillCycles)
			fmt.Printf("  modelled time @300MHz: %.3g s\n", perf.AlveareTime(st.Cycles))
		}
	}
	fatalIf(cli.WriteMetrics(cf.Metrics, eng.MetricsSnapshot()))
	if !found {
		os.Exit(1)
	}
}

// scanStream runs one input through the chunked reader scan and prints
// results in the same format as the in-memory paths. It reports
// whether anything matched.
func scanStream(eng *alveare.Engine, name, label string, all, stats, quiet, keepStats bool) bool {
	in, closeIn, err := openInput(name)
	fatalIf(err)
	defer closeIn()
	// -metrics reports one snapshot for the whole run; counters then
	// accumulate across inputs instead of resetting per file.
	if !keepStats {
		eng.ResetStats()
	}
	matched := false
	n := 0
	_, err = eng.ScanReaderCtx(ctx, in, func(m alveare.Match, text []byte) bool {
		matched = true
		n++
		if !quiet {
			fmt.Printf("%s: [%d,%d) %q\n", label, m.Start, m.End, clip(text))
		}
		return all // first-match mode stops after one hit
	})
	flushIfStopped(label, n, err)
	fatalIf(err)
	if !matched && !all && !quiet {
		fmt.Printf("%s: no match\n", label)
	}
	if stats {
		st := eng.Stats()
		if all {
			printRunStats(st.Cycles, st.Cycles, n)
		} else {
			fmt.Printf("  cycles=%d instructions=%d speculations=%d rollbacks=%d scan=%d refill=%d\n",
				st.Cycles, st.Instructions, st.Speculations, st.Rollbacks, st.ScanCycles, st.RefillCycles)
			fmt.Printf("  modelled time @300MHz: %.3g s\n", perf.AlveareTime(st.Cycles))
		}
	}
	return matched
}

func printRunStats(wall, total int64, matches int) {
	fmt.Printf("  matches=%d wall_cycles=%d total_cycles=%d modelled_time=%.3g s\n",
		matches, wall, total, perf.AlveareTime(wall))
}

func openInput(name string) (io.Reader, func() error, error) {
	if name == "-" {
		return os.Stdin, func() error { return nil }, nil
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func readInput(name string) ([]byte, error) {
	if name == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(name)
}

func clip(b []byte) string {
	const max = 60
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}

// flushIfStopped handles an interrupted or timed-out scan: the counts
// collected before the stop are flushed to stdout, the cause goes to
// stderr, and the process exits with the conventional code (130 for
// Ctrl-C, 124 for -timeout). Other errors — and nil — return to the
// caller untouched.
func flushIfStopped(label string, matches int, err error) {
	code := cli.ExitCode(err)
	if code != cli.ExitInterrupt && code != cli.ExitDeadline {
		return
	}
	fmt.Printf("%s: stopped after %d match(es)\n", label, matches)
	cli.Exit("alvearerun", err)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "alvearerun:", err)
		os.Exit(cli.ExitError)
	}
}

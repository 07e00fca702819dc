// Command alvearesrv is the ALVEARE scan service: a long-running TCP
// daemon that loads a rule database, listens for framed scan requests
// (see docs/PROTOCOL.md), and serves them from a worker pool over the
// concurrent RuleSet scanner.
//
// Usage:
//
//	alvearesrv -rules rules.txt [-addr :7171] [-workers N] [-queue N]
//	           [-maxframe N] [-read-timeout D] [-write-timeout D]
//	           [-request-timeout D]
//	           [-policy failfast|degrade|skip] [-budget N] [-timeout D]
//	           [-drain D] [-metrics MODE] [-pprof ADDR]
//
// The rules file holds one regular expression per line; blank lines
// and '#' comments are skipped. Rules hot-reload without a restart via
// the protocol's RELOAD request (compiled once into an immutable
// snapshot and swapped atomically under live traffic) — there is no
// downtime and no torn rule set.
//
// Admission control: requests past the bounded queue are answered with
// SHED instead of queueing unboundedly; -queue sets the depth and
// -workers the pool width. -request-timeout bounds one scan, -policy
// and -budget contain runaway patterns exactly as in the offline
// tools, so adversarial payloads cannot wedge the service.
//
// On SIGINT/SIGTERM (or when -timeout expires) the server drains
// gracefully: the listener closes, in-flight requests finish, then the
// process exits — -drain caps how long the drain may take. -metrics
// flushes the server's deterministic snapshot on exit; the STATS
// request serves the same snapshot live, and -pprof additionally
// serves net/http/pprof with the snapshot on /debug/vars.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"time"

	"alveare/internal/cli"
	"alveare/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":7171", "listen address")
		rulesPath = flag.String("rules", "", "rule database, one regular expression per line (required)")
		workers   = flag.Int("workers", 0, "service worker pool width (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "admission queue depth; full = SHED (0 = default 128)")
		maxFrame  = flag.Int("maxframe", 0, "largest accepted request frame in bytes (0 = 1 MiB)")
		readTO    = flag.Duration("read-timeout", 0, "per-frame read deadline; idle connections close after it (0 = 30s)")
		writeTO   = flag.Duration("write-timeout", 0, "per-frame write deadline; clients that stop reading are disconnected (0 = 30s, negative = none)")
		requestTO = flag.Duration("request-timeout", 0, "per-request scan deadline (0 = unbounded)")
		drain     = flag.Duration("drain", 30*time.Second, "graceful-drain deadline on shutdown")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof and expvar on this address")
		cacheSize = flag.Int("pattern-cache", 0, "LRU capacity for ad-hoc SCAN-PATTERN engines (0 = default 64)")
		cf        = cli.RegisterScan(flag.CommandLine)
	)
	flag.Parse()
	if *rulesPath == "" {
		fmt.Fprintln(os.Stderr, "usage: alvearesrv -rules FILE [flags]")
		os.Exit(cli.ExitUsage)
	}
	policy := cf.MustPolicy("alvearesrv")
	text, err := os.ReadFile(*rulesPath)
	fatalIf(err)
	rules := server.ParseRules(string(text))
	if len(rules) == 0 {
		fatalIf(fmt.Errorf("%s: no rules", *rulesPath))
	}

	srv, err := server.New(server.Config{
		Addr:           *addr,
		Rules:          rules,
		Workers:        *workers,
		QueueDepth:     *queue,
		MaxFrame:       *maxFrame,
		ReadTimeout:    *readTO,
		WriteTimeout:   *writeTO,
		RequestTimeout: *requestTO,
		Policy:         policy,
		Budget:         cf.Budget,
		PatternCache:   *cacheSize,
		NoDFA:          cf.NoDFA,
		NoApprox:       cf.NoApprox,
		ApproxStates:   cf.ApproxStates,
	})
	fatalIf(err)

	if *pprofAddr != "" {
		expvar.Publish("alveare", expvar.Func(func() any { return srv.MetricsSnapshot() }))
		go func() {
			if serr := http.ListenAndServe(*pprofAddr, nil); serr != nil {
				fmt.Fprintln(os.Stderr, "alvearesrv: pprof:", serr)
			}
		}()
	}

	// -timeout caps the server's lifetime (0 = run until a signal);
	// SIGINT/SIGTERM trigger the same graceful drain.
	ctx, stop := cli.Context(cf.Timeout)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	// Report the resolved address once the listener is up (":0" style
	// addresses pick a free port), so scripts can find the service.
	for srv.Addr() == nil {
		select {
		case serveErr := <-errCh:
			fatalIf(serveErr)
			return
		case <-time.After(time.Millisecond):
		}
	}
	fmt.Printf("alvearesrv: listening on %s (%d rules, %d workers)\n", srv.Addr(), len(rules), flagWorkers(*workers))

	select {
	case serveErr := <-errCh:
		fatalIf(serveErr)
	case <-ctx.Done():
		fmt.Fprintf(os.Stderr, "alvearesrv: %v; draining (max %s)\n", ctx.Err(), *drain)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if derr := srv.Shutdown(drainCtx); derr != nil {
			fmt.Fprintln(os.Stderr, "alvearesrv: drain expired, connections aborted:", derr)
		}
		<-errCh // Serve returns nil after a shutdown
	}
	fatalIf(cli.WriteMetrics(cf.Metrics, srv.MetricsSnapshot()))
}

// flagWorkers echoes the effective pool width in the startup line.
func flagWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "alvearesrv:", err)
		os.Exit(cli.ExitError)
	}
}

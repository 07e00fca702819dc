package arch

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alveare/internal/anmlzoo"
	"alveare/internal/backend"
)

var updateStats = flag.Bool("update", false, "rewrite testdata/stats_golden.txt")

// goldenCase is one program run over one input under one
// configuration.
type goldenCase struct {
	name string
	re   string
	opts backend.Options
	cfg  Config
	data []byte
}

// goldenTable2 are the paper's Table 2 microbenchmarks, compiled by
// both the minimal and the advanced compiler.
var goldenTable2 = []string{"[a-zA-Z]", "[DBEZX]{7}", ".{3,6}", "[^ ]*"}

// goldenCases lists every program the stats golden pins: the Table 2
// programs over a seeded mixed-alphabet input, every rule of each
// anmlzoo suite over its own seeded dataset, and the guardrail trips
// (cycle budget, stack depth) that feed Runaways and RetriedCycles.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase
	r := rand.New(rand.NewSource(2024))
	mixed := make([]byte, 4096)
	for i := range mixed {
		mixed[i] = "aZq DBEZX7 .\n"[r.Intn(13)]
	}
	for _, re := range goldenTable2 {
		cases = append(cases,
			goldenCase{"table2/minimal/" + re, re, backend.Minimal(), DefaultConfig(), mixed},
			goldenCase{"table2/advanced/" + re, re, backend.Options{}, DefaultConfig(), mixed})
	}
	for _, name := range anmlzoo.Names() {
		s, err := anmlzoo.ByName(name, 0, 8<<10, 2024)
		if err != nil {
			t.Fatal(err)
		}
		for i, re := range s.Patterns {
			cases = append(cases, goldenCase{fmt.Sprintf("%s/%03d", name, i), re, backend.Options{}, DefaultConfig(), s.Dataset})
		}
	}
	hostile := []byte(strings.Repeat(strings.Repeat("aab", 20)+strings.Repeat("a", 40)+"x", 8))
	budget := DefaultConfig()
	budget.MaxCycles = 20000
	shallow := DefaultConfig()
	shallow.StackDepth = 16
	cases = append(cases,
		goldenCase{"guard/runaway", "(a|aa)+b", backend.Options{}, budget, hostile},
		goldenCase{"guard/stack", "(a|aa)+b", backend.Options{}, shallow, hostile},
		goldenCase{"guard/greedy-lazy", "(a|b){2,9}?b(a*)+x", backend.Options{}, DefaultConfig(), hostile})
	return cases
}

// goldenRun executes one case with Config.Metrics off or on and
// renders the outcome: error, match count and transcript digest, every
// Stats field (in declaration order) and the per-CU utilization.
func goldenRun(t *testing.T, gc goldenCase, metrics, traced bool) (line string, transcript []Match) {
	t.Helper()
	p, err := backend.Compile(gc.re, gc.opts)
	if err != nil {
		t.Fatalf("%s: compile %q: %v", gc.name, gc.re, err)
	}
	cfg := gc.cfg
	cfg.Metrics = metrics
	c, err := NewCore(p, cfg)
	if err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}
	if traced {
		c.SetTracer(func(TraceEvent) {})
	}
	ms, ferr := c.FindAll(gc.data, 0)
	h := sha256.New()
	for _, m := range ms {
		fmt.Fprintf(h, "%d,%d;", m.Start, m.End)
	}
	return fmt.Sprintf("%s metrics=%t err=%v matches=%d digest=%x\n  %v cu=%v\n",
		gc.name, metrics, ferr, len(ms), h.Sum(nil)[:8], c.Stats(), c.CUUtilization()), ms
}

// TestStatsGolden pins the cycle model: every Stats counter, the
// per-CU utilization and every FindAll transcript, with detailed
// metrics off and on, for every Table 2 program and anmlzoo rule (and
// checks that installing a tracer changes nothing). The
// golden was generated before the engine's dispatch was rewritten; any
// counter moving by one fails it. Regenerate (only for an intended
// model change) with `go test -run TestStatsGolden -update`.
func TestStatsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full anmlzoo rule sets")
	}
	var b strings.Builder
	for _, gc := range goldenCases(t) {
		off, offMs := goldenRun(t, gc, false, false)
		on, onMs := goldenRun(t, gc, true, false)
		if fmt.Sprint(offMs) != fmt.Sprint(onMs) {
			t.Errorf("%s: transcript differs with metrics on", gc.name)
		}
		// A tracer observes the run; it must not change it.
		if tr, _ := goldenRun(t, gc, true, true); tr != on {
			t.Errorf("%s: traced run differs:\n%s\nwant:\n%s", gc.name, tr, on)
		}
		b.WriteString(off)
		b.WriteString(on)
	}
	got := b.String()
	path := filepath.Join("testdata", "stats_golden.txt")
	if *updateStats {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("stats drifted from golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("stats golden length differs: got %d lines, want %d", len(gl), len(wl))
}

package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"alveare/internal/backend"
)

func testRules() []string {
	return []string{
		`GET [^ ]*\.php`,
		`passwd`,
		`[0-9]{3}-[0-9]{4}`,
		`(cat|dog|bird)`,
		`x[a-f]+y`,
		`ERROR|WARN`,
		`a{3,}`,
		`[^ ]+@[a-z]+\.com`,
		`--+`,
		`0x[0-9a-f]{2,8}`,
		`q(w|e)+?r`,
		`needle`,
	}
}

func testTraffic(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	alphabet := "abcdefqwrxy0123456789 .-@"
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = alphabet[r.Intn(len(alphabet))]
	}
	for _, w := range []string{
		"GET /index.php", "passwd", "555-1234", "catdog", "xabcdefy",
		"ERROR", "aaaa", "bob@acme.com", "----", "0xdeadbeef", "qweer", "needle",
	} {
		p := r.Intn(len(buf) - len(w))
		copy(buf[p:], w)
	}
	return buf
}

// scanSerialReference computes per-rule results the pre-concurrency
// way: one engine per rule, sequential FindAll.
func scanSerialReference(t *testing.T, rules []string, data []byte) []RuleMatches {
	t.Helper()
	var out []RuleMatches
	for i, re := range rules {
		p, err := CompileWith(re, backend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := eng.FindAll(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) > 0 {
			out = append(out, RuleMatches{Rule: i, Matches: ms})
		}
	}
	return out
}

func sameRuleMatches(a, b []RuleMatches) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d rules hit", len(a), len(b))
	}
	for i := range a {
		if a[i].Rule != b[i].Rule {
			return fmt.Errorf("hit %d: rule %d vs %d", i, a[i].Rule, b[i].Rule)
		}
		if len(a[i].Matches) != len(b[i].Matches) {
			return fmt.Errorf("rule %d: %d vs %d matches", a[i].Rule, len(a[i].Matches), len(b[i].Matches))
		}
		for j := range a[i].Matches {
			if a[i].Matches[j] != b[i].Matches[j] {
				return fmt.Errorf("rule %d match %d: %v vs %v", a[i].Rule, j, a[i].Matches[j], b[i].Matches[j])
			}
		}
	}
	return nil
}

// TestRuleSetConcurrentScan checks that the worker-pool scan returns
// exactly the sequential per-rule results, at several worker widths.
func TestRuleSetConcurrentScan(t *testing.T) {
	rules := testRules()
	data := testTraffic(7, 20000)
	want := scanSerialReference(t, rules, data)
	if len(want) == 0 {
		t.Fatal("corpus hit no rules; test is vacuous")
	}
	for _, workers := range []int{1, 2, 8, 32} {
		rs, err := NewRuleSet(rules, backend.Options{}, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if rs.Workers() != workers {
			t.Errorf("Workers() = %d, want %d", rs.Workers(), workers)
		}
		got, err := rs.Scan(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRuleMatches(got, want); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
		if rs.Stats().Cycles == 0 {
			t.Errorf("workers=%d: no aggregate cycles", workers)
		}
	}
}

// TestRuleSetParallelCallers hammers one RuleSet from many goroutines —
// the sync.Pool recycling and stats merging must be race-free (run
// under -race) and every caller must see identical results.
func TestRuleSetParallelCallers(t *testing.T) {
	rules := testRules()
	rs, err := NewRuleSet(rules, backend.Options{}, WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([][]byte, 6)
	wants := make([][]RuleMatches, len(inputs))
	for i := range inputs {
		inputs[i] = testTraffic(int64(100+i), 6000)
		wants[i] = scanSerialReference(t, rules, inputs[i])
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 24)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, in := range inputs {
				got, err := rs.Scan(in)
				if err != nil {
					errCh <- err
					return
				}
				if err := sameRuleMatches(got, wants[i]); err != nil {
					errCh <- fmt.Errorf("input %d: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if rs.Stats().Cycles == 0 {
		t.Error("no cycles aggregated across parallel scans")
	}
	rs.ResetStats()
	if rs.Stats().Cycles != 0 {
		t.Error("ResetStats did not clear the aggregate")
	}
}

// TestRuleSetScanReader checks the streaming rule-set scan against the
// in-memory batch scan (overlaps are sized over every rule's longest
// match, so the chunked results must be identical).
func TestRuleSetScanReader(t *testing.T) {
	rules := testRules()
	data := testTraffic(13, 30000)
	for _, cfg := range []struct{ chunk, overlap, workers int }{
		{7, 64, 8}, {256, 64, 4}, {4096, 256, 2}, {1 << 16, 256, 8},
	} {
		rs, err := NewRuleSet(rules, backend.Options{},
			WithWorkers(cfg.workers), WithChunkSize(cfg.chunk), WithOverlap(cfg.overlap))
		if err != nil {
			t.Fatal(err)
		}
		want, err := rs.Scan(data)
		if err != nil {
			t.Fatal(err)
		}
		got := map[int][]Match{}
		consumed, err := rs.ScanReader(bytes.NewReader(data), func(rule int, m Match, text []byte) bool {
			if !bytes.Equal(text, data[m.Start:m.End]) {
				t.Errorf("rule %d: text %q != data[%d:%d]", rule, text, m.Start, m.End)
			}
			got[rule] = append(got[rule], m)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if consumed != int64(len(data)) {
			t.Errorf("consumed %d of %d bytes", consumed, len(data))
		}
		var gotList []RuleMatches
		for i := range rules {
			if len(got[i]) > 0 {
				gotList = append(gotList, RuleMatches{Rule: i, Matches: got[i]})
			}
		}
		if err := sameRuleMatches(gotList, want); err != nil {
			t.Errorf("chunk=%d overlap=%d workers=%d: %v", cfg.chunk, cfg.overlap, cfg.workers, err)
		}
	}
}

func TestRuleSetScanReaderEarlyStop(t *testing.T) {
	rs, err := NewRuleSet([]string{"a", "b"}, backend.Options{}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(strings.Repeat("ab", 5000))
	seen := 0
	if _, err := rs.ScanReader(bytes.NewReader(data), func(int, Match, []byte) bool {
		seen++
		return seen < 5
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 5 {
		t.Errorf("emitted %d matches after stop at 5", seen)
	}
}

func TestRuleSetEmpty(t *testing.T) {
	rs, err := NewRuleSet(nil, backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hits, err := rs.Scan([]byte("anything"))
	if err != nil || hits != nil {
		t.Errorf("empty set: hits=%v err=%v", hits, err)
	}
	n, err := rs.ScanReader(strings.NewReader("anything"), func(int, Match, []byte) bool { return true })
	if err != nil || n != 8 {
		t.Errorf("empty set reader: n=%d err=%v", n, err)
	}
}

// TestEngineReaderMatchesFindAll covers Engine.FindReader/CountReader
// against the in-memory path on a multi-chunk input.
func TestEngineReaderMatchesFindAll(t *testing.T) {
	p, err := Compile(`[a-f]+[0-9]`)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, WithChunkSize(128), WithOverlap(32))
	if err != nil {
		t.Fatal(err)
	}
	data := testTraffic(21, 10000)
	want, err := eng.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.FindReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("FindReader %d matches, FindAll %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("match %d: %v vs %v", i, got[i], want[i])
		}
	}
	n, err := eng.CountReader(bytes.NewReader(data))
	if err != nil || n != len(want) {
		t.Errorf("CountReader = %d, want %d (err %v)", n, len(want), err)
	}
}

// TestRuleSetPoolRecyclesCores is a regression pin for pooled cores.
// RuleSet recycles cores through a sync.Pool between Scan calls, and
// every pooled core is a clone sharing its rule's decoded program, so
// any per-input state a Reset failed to clear (or any clone writing to
// the shared micro-ops) would scan the SECOND input with state left by
// the FIRST — missing matches or fabricating them. Scan two inputs with
// matches at disjoint offsets through one RuleSet and demand each
// result equals a fresh RuleSet's.
func TestRuleSetPoolRecyclesCores(t *testing.T) {
	rules := []string{`(foo|bar)needle`, `[a-z]{2,4}?dle`}
	// Input A: matches early. Input B: padding shifts every match far
	// from A's offsets (and drops one).
	inA := []byte("fooneedle....barneedle" + strings.Repeat(".", 400))
	inB := []byte(strings.Repeat(".", 300) + "fooneedle" + strings.Repeat(".", 100))

	scanFresh := func(data []byte) []RuleMatches {
		rs, err := NewRuleSet(rules, backend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out, err := rs.Scan(data)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	rs, err := NewRuleSet(rules, backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for _, in := range [][]byte{inA, inB} {
			got, err := rs.Scan(in)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameRuleMatches(got, scanFresh(in)); err != nil {
				t.Fatalf("round %d: pooled cores diverge from fresh rule set: %v", round, err)
			}
		}
	}
	// Sanity: the inputs really differ in what they match.
	if a, b := scanFresh(inA), scanFresh(inB); len(a) == 0 || len(b) == 0 ||
		len(a[0].Matches) != 2 || len(b[0].Matches) != 1 {
		t.Fatalf("fixture drifted: A=%v B=%v", a, b)
	}
}

// TestFirstMatchParity holds FirstMatchCtx, which probes through the
// rule set's pooled pipeline (admission screen, prefilter, DFA gate,
// guarded core), to the parent semantics of probing one standalone
// Engine per rule in rule order: a hostile rule ahead of healthy ones,
// under a tight budget, for every policy with the DFA gate and the
// admission stage on and off. Rule, ok flag and error must agree, and
// Stats must gain exactly the cycles the probes spent.
func TestFirstMatchParity(t *testing.T) {
	rules := []string{`(a|aa)+b`, `needle`, `x[0-9]+y`}
	run := strings.Repeat("a", 40)
	inputs := []string{run + " needle x12y", run + "b", run, "clean traffic", "x1y then needle", ""}
	for _, policy := range []Policy{FailFast, Degrade, Skip} {
		for _, dfa := range []bool{false, true} {
			for _, apx := range []bool{false, true} {
				opts := []Option{WithBudget(20000), WithPolicy(policy)}
				if dfa {
					opts = append(opts, WithDFA())
				}
				if apx {
					opts = append(opts, WithApprox())
				}
				rs, err := NewRuleSet(rules, backend.Options{}, opts...)
				if err != nil {
					t.Fatal(err)
				}
				for _, in := range inputs {
					data := []byte(in)
					name := fmt.Sprintf("%v dfa=%v approx=%v %.12q", policy, dfa, apx, in)
					before := rs.Stats().Cycles
					rule, ok, err := rs.FirstMatchCtx(context.Background(), data)
					got := fmt.Sprint(rule, ok, err)
					cycles := rs.Stats().Cycles - before

					// The engines keep their own admission filters; the
					// rule set screens once for the union of its rules.
					engRule, engOK, engErr, _ := firstMatchByEngines(t, rules, policy, opts, data)
					if want := fmt.Sprint(engRule, engOK, engErr); got != want {
						// The one difference: a rule's own filter could prove
						// it clean where the union screen admits the input
						// for another rule. The rule's core then runs and,
						// under FailFast, its budget trip aborts the probe —
						// what ScanCtx does on the same input.
						_, scanErr := rs.ScanCtx(context.Background(), data)
						if !(apx && !dfa && policy == FailFast && errors.Is(err, ErrRunaway) && fmt.Sprint(scanErr) == fmt.Sprint(err)) {
							t.Errorf("%s: FirstMatch = %s, engines give %s", name, got, want)
						}
					}

					// Behind the union screen, engines without their own
					// filters run exactly the rule set's probes.
					wantRule, wantOK, wantErr, wantCycles := 0, false, error(nil), int64(0)
					if f := rs.ApproxFilter(); f == nil || f.AdmitAll() || f.Suspect(data) {
						wantRule, wantOK, wantErr, wantCycles = firstMatchByEngines(t, rules, policy, append(opts, WithoutApprox()), data)
					}
					if want := fmt.Sprint(wantRule, wantOK, wantErr); got != want || cycles != wantCycles {
						t.Errorf("%s: FirstMatch = %s adding %d cycles to Stats, screened engines give %s spending %d",
							name, got, cycles, want, wantCycles)
					}
				}
			}
		}
	}
}

// firstMatchByEngines probes one standalone Engine per rule in rule
// order, passing Degrade/Skip faults over and joining them, and sums
// the cycles the engines spent.
func firstMatchByEngines(t *testing.T, rules []string, policy Policy, opts []Option, data []byte) (int, bool, error, int64) {
	t.Helper()
	var deferred []error
	var cycles int64
	for i, re := range rules {
		p, err := Compile(re)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		hit, merr := eng.MatchCtx(context.Background(), data)
		cycles += eng.Stats().Cycles
		if merr != nil {
			merr = scanErrFor(i, merr)
			if policy == FailFast {
				return 0, false, merr, cycles
			}
			deferred = append(deferred, merr)
			continue
		}
		if hit {
			return i, true, nil, cycles
		}
	}
	return 0, false, errors.Join(deferred...), cycles
}

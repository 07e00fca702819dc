package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// tinyRun builds a run of workload name on shrunken inputs, short
// enough for a unit test; the rule sets and the code path are the real
// ones.
func tinyRun(t *testing.T, name string, traced bool) *run {
	t.Helper()
	cfg, err := loadConfig(workloadsJSON)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg.Workloads[name]
	c.SetupRepeats = 1
	switch name {
	case "protomata_bulk":
		c.DocPool, c.DocBytes, c.CensusOps = 2, 8<<10, 1
		c.ChunkBytes = 4 << 10
	case "dpi_session":
		c.Flows, c.FlowBytes, c.ChunkBytes, c.WitnessEvery = 2, 64<<10, 8<<10, 4<<10
	case "log_fleet":
		c.FramePool, c.CensusOps, c.WitnessPerMille = 8, 4, 200
		c.RateLadder, c.ReferenceRate = []float64{100, 200}, 100
	}
	return newRun(name, c, 7, 0.4, traced)
}

func TestWorkloadsPassOracle(t *testing.T) {
	for name, fn := range workloadFuncs {
		r := tinyRun(t, name, false)
		if err := fn(r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.correct() || r.attempted == 0 {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d mismatched=%d", name, r.correct(), r.attempted, r.failed, r.mismatched)
		}
	}
}

// TestPerturbedTranscriptIsCaught runs every workload against a wrong
// oracle: the run must count mismatches and report itself incorrect.
func TestPerturbedTranscriptIsCaught(t *testing.T) {
	perturbations := map[string]func([]hit) []hit{
		"spurious match": func(hs []hit) []hit {
			out := append([]hit{{Rule: 0, Start: 0, End: 1}}, hs...)
			sortHits(out)
			return out
		},
		"shifted end": func(hs []hit) []hit {
			out := append([]hit(nil), hs...)
			for i := range out {
				out[i].End++
			}
			return out
		},
	}
	for name, fn := range workloadFuncs {
		for label, p := range perturbations {
			r := tinyRun(t, name, false)
			r.perturb = p
			if err := fn(r); err != nil {
				t.Fatalf("%s/%s: %v", name, label, err)
			}
			if r.mismatched == 0 || r.correct() || r.result().Correct {
				t.Fatalf("%s/%s: perturbed oracle not caught: mismatched=%d", name, label, r.mismatched)
			}
		}
	}
}

// TestTracedRuns checks the traced runs' stage attribution on the
// shrunken inputs: the replay agrees with the oracle, spans nest, and
// the stage findings the benchmark is built around hold.
func TestTracedRuns(t *testing.T) {
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	layer := map[string]map[string]float64{}
	for name, fn := range workloadFuncs {
		r := tinyRun(t, name, true)
		if err := fn(r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r.finish()
		if !r.correct() {
			t.Fatalf("%s: traced run incorrect: mismatched=%d traceBad=%d", name, r.mismatched, r.traceBad)
		}
		if len(r.layer) != len(layerMetrics) {
			t.Fatalf("%s: %d per-layer metrics, want %d", name, len(r.layer), len(layerMetrics))
		}
		layer[name] = map[string]float64{}
		for n, m := range r.layer {
			layer[name][n] = m.Value
		}
	}
	bulk, dpi, fleet := layer["protomata_bulk"], layer["dpi_session"], layer["log_fleet"]
	for _, s := range []string{"approx.share", "prefilter.share", "gate.share", "window.self_share"} {
		if bulk[s] >= bulk["exact.share"] {
			t.Errorf("protomata_bulk: %s %.3f >= exact.share %.3f", s, bulk[s], bulk["exact.share"])
		}
	}
	if dpi["approx.screened_frac"] <= 0 || dpi["gate.negative_frac"] <= bulk["gate.negative_frac"] {
		t.Errorf("dpi_session: screened_frac %.3f, gate.negative_frac %.3f vs protomata %.3f",
			dpi["approx.screened_frac"], dpi["gate.negative_frac"], bulk["gate.negative_frac"])
	}
	// log_fleet's net.share against exact.share compares wall time on the
	// wire with replayed computation; that holds at the workload's real
	// rates but not at these tiny ones, nor under the race detector, so
	// it is checked on full traced runs instead.
	if dpi["ckpt.bytes"] <= 0 || fleet["gateway.hop_us"] <= 0 {
		t.Errorf("ckpt.bytes %.0f, gateway.hop_us %.1f: want both positive", dpi["ckpt.bytes"], fleet["gateway.hop_us"])
	}
}

// TestCensusRepeats runs the same seed twice: the census counts must be
// identical (the lazy-DFA cache counters excepted).
func TestCensusRepeats(t *testing.T) {
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	exact := []string{"exact.cycles_per_byte", "approx.screened_frac", "gate.negative_frac", "prefilter.skip_frac", "ckpt.bytes"}
	for name, fn := range workloadFuncs {
		var got [2]map[string]float64
		for i := range got {
			r := tinyRun(t, name, true)
			if err := fn(r); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got[i] = map[string]float64{}
			for _, n := range exact {
				got[i][n] = r.layer[n].Value
			}
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Errorf("%s: census differs between same-seed runs:\n%v\n%v", name, got[0], got[1])
		}
	}
}

func TestChunkedExpectation(t *testing.T) {
	all := []hit{{0, 2, 5}, {0, 10, 30}, {1, 30, 50}, {1, 60, 62}}
	// Chunks end at 32 and 64; overlap 8. The 20-byte match lies inside
	// the first chunk and is kept; the one straddling 32 is dropped.
	want, dropped := chunkedExpectation(all, 8, []int{32, 64})
	if dropped != 1 || !reflect.DeepEqual(want, []hit{{0, 2, 5}, {0, 10, 30}, {1, 60, 62}}) {
		t.Fatalf("got %v dropped %d", want, dropped)
	}
}

func TestSessionAcks(t *testing.T) {
	// Pushes end at 100, 200, 250; overlap 10: push 1 owns starts below
	// 90, push 2 below 190, push 3 below 240, the close the rest.
	acks := sessionAcks([]hit{{0, 5, 9}, {0, 89, 95}, {0, 90, 95}, {1, 239, 241}, {1, 245, 250}}, 10, []int{100, 200, 250})
	want := [][]hit{{{0, 5, 9}, {0, 89, 95}}, {{0, 90, 95}}, {{1, 239, 241}}, {{1, 245, 250}}}
	if !reflect.DeepEqual(acks, want) {
		t.Fatalf("got %v want %v", acks, want)
	}
}

func TestRecorderSelfTimeAndNesting(t *testing.T) {
	rec := newRecorder(time.Now(), 1, 1)
	root := rec.add("replay", 1, -1, 0, 100)
	rec.add("gate", 1, root, 10, 30)
	rec.add("exact", 1, root, 25, 60) // overlaps gate by 5
	rec.endOp()
	if got := rec.totals["replay"].SelfN; got != 50 {
		t.Fatalf("replay self time %d, want 50", got)
	}
	if rec.badOps != 0 {
		t.Fatalf("nested op flagged: %d", rec.badOps)
	}
	root = rec.add("replay", 2, -1, 0, 10)
	rec.add("exact", 2, root, 0, 20) // child longer than its parent
	rec.endOp()
	if rec.badOps != 1 {
		t.Fatalf("overrunning child not flagged")
	}
	if len(rec.kept) != 3 {
		t.Fatalf("kept %d spans, want the first op's 3", len(rec.kept))
	}
}

func TestMaxRate(t *testing.T) {
	type rung struct{ rate, tail float64 }
	rt := func(x rung) (float64, float64) { return x.rate, x.tail }
	pass := func(x rung) bool { return x.tail <= 10 }
	cases := []struct {
		rungs []rung
		want  float64
	}{
		{[]rung{{100, 2}, {200, 6}, {300, 14}}, 250},
		{[]rung{{100, 2}, {200, 6}}, 200},
		{[]rung{{100, 20}, {200, 30}}, 50},
		{[]rung{{100, 2}, {200, 14}, {300, 6}, {400, 14}}, 350},
	}
	for _, c := range cases {
		if got := maxRate(c.rungs, pass, rt, 10); got != c.want {
			t.Errorf("%v: got %v want %v", c.rungs, got, c.want)
		}
	}
}

func TestInputsDeterministic(t *testing.T) {
	pats := []string{"ab[cd]{2}", "x[^ ]{3}y"}
	a, err := logFrames(3, 2, 4, 64, 256, 500, pats)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := logFrames(3, 2, 4, 64, 256, 500, pats)
	c, _ := logFrames(4, 2, 4, 64, 256, 500, pats)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Fatal("log frames must depend on the seed alone")
	}
	for _, f := range a {
		for _, rec := range f {
			if len(rec) < 64 || len(rec) > 256 {
				t.Fatalf("record of %d bytes outside 64-256", len(rec))
			}
			for _, ch := range rec {
				if ch >= 0x80 {
					t.Fatalf("non-ASCII byte in %q", rec)
				}
			}
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the metric tables and the
// workload definitions the program runs.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
		Why  string `json:"why"`
	}
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	cfg, err := loadConfig(workloadsJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(cfg.Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.json", len(b.Workloads), len(cfg.Workloads))
	}
	for _, w := range b.Workloads {
		if c, ok := cfg.Workloads[w.Name]; !ok || c.Why != w.Why || workloadFuncs[w.Name] == nil {
			t.Errorf("workload %q: missing, or its why differs from workloads.json", w.Name)
		}
	}
	check := func(kind string, got []named, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: %s %s, want %s %s", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, layerMetrics)
}

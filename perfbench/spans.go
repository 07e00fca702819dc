package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval: a layer call made on behalf of one op.
type span struct {
	Name   string
	Op     int64
	ID     int32
	Parent int32 // -1 for a root span
	Start  int64 // ns since the recorder's epoch
	End    int64
}

// spanTotals aggregates one span name: calls, total and self time.
type spanTotals struct {
	Count  int64
	TotalN int64 // ns
	SelfN  int64 // ns not covered by child spans
}

// recorder keeps spans in memory for one goroutine. An op's spans are
// recorded with add, and endOp closes the op: it computes each span's self
// time, checks the nesting invariant (the children of a span sum to no
// more than the span), folds the op into the per-name totals, and keeps
// the raw spans of the first keepOps ops for the trace file.
type recorder struct {
	epoch   time.Time
	tid     int
	keepOps int

	cur     []span // the open op's spans
	kept    []span
	keptOps int
	totals  map[string]*spanTotals
	ops     int64
	badOps  int64 // ops whose children overran a parent
}

func newRecorder(epoch time.Time, tid, keepOps int) *recorder {
	return &recorder{epoch: epoch, tid: tid, keepOps: keepOps, totals: map[string]*spanTotals{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records a finished span and returns its id within the op.
func (r *recorder) add(name string, op int64, parent int32, start, end int64) int32 {
	id := int32(len(r.cur))
	r.cur = append(r.cur, span{Name: name, Op: op, ID: id, Parent: parent, Start: start, End: end})
	return id
}

// endOp closes the open op.
func (r *recorder) endOp() {
	spans := r.cur
	r.ops++
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	bad := false
	for _, s := range spans {
		dur := s.End - s.Start
		var sum int64
		for _, c := range children[s.ID] {
			sum += c.End - c.Start
		}
		if sum > dur {
			bad = true
		}
		t := r.totals[s.Name]
		if t == nil {
			t = &spanTotals{}
			r.totals[s.Name] = t
		}
		t.Count++
		t.TotalN += dur
		t.SelfN += dur - covered(s, children[s.ID])
	}
	if bad {
		r.badOps++
	}
	if r.keptOps < r.keepOps {
		r.kept = append(r.kept, spans...)
		r.keptOps++
	}
	r.cur = r.cur[:0]
}

// covered returns how much of s's interval its children cover (the
// union of their intervals clipped to s).
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, c := range kids {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// mergeTotals folds several recorders' totals into one map.
func mergeTotals(rs []*recorder) (map[string]spanTotals, int64, int64) {
	out := map[string]spanTotals{}
	var ops, bad int64
	for _, r := range rs {
		ops += r.ops
		bad += r.badOps
		for n, t := range r.totals {
			o := out[n]
			o.Count += t.Count
			o.TotalN += t.TotalN
			o.SelfN += t.SelfN
			out[n] = o
		}
	}
	return out, ops, bad
}

// chromeEvent is one Chrome trace-event record (the JSON format
// chrome://tracing and Perfetto load, the same one metrics.WriteChromeTrace
// writes for the simulator's events).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeSpans writes the kept spans of every recorder as a Chrome
// trace-event JSON document and returns the file path.
func writeSpans(dir, name string, rs []*recorder) (string, error) {
	var evs []chromeEvent
	for _, r := range rs {
		for _, s := range r.kept {
			evs = append(evs, chromeEvent{
				Name: s.Name, Ph: "X",
				TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				PID: 1, TID: r.tid,
				Args: map[string]any{"op": s.Op, "span": s.ID, "parent": s.Parent},
			})
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	doc := map[string]any{"traceEvents": evs, "displayTimeUnit": "ms",
		"otherData": map[string]any{"clock": "wall-ns", "source": "perfbench"}}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}

// outDir is where traced runs leave their span files: the build
// directory of the checkout.
func outDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return filepath.Join(d, "spans")
	}
	return filepath.Join(".bench_build", "spans")
}

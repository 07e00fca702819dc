package main

import (
	"bytes"
	"runtime"
	"time"

	"alveare/internal/backend"
	"alveare/internal/core"
	"alveare/internal/stream"
)

// runBulk is protomata_bulk: one caller runs RuleSet.ScanReader back to
// back over Protomata documents, no network. One op is one document.
func runBulk(r *run) error {
	c := r.cfg
	patterns, err := ruleSet(c.Rules)
	if err != nil {
		return err
	}
	docs, err := proteinDocs(r.seed, c.DocPool, c.DocBytes, c.PlantsPerDoc, patterns)
	if err != nil {
		return err
	}
	overlap := stream.DefaultOverlap

	// Oracle, outside every timed phase.
	orc, err := newOracle(patterns)
	if err != nil {
		return err
	}
	var ends []int
	for e := c.ChunkBytes; e < c.DocBytes; e += c.ChunkBytes {
		ends = append(ends, e)
	}
	ends = append(ends, c.DocBytes)
	want := make([][]hit, len(docs))
	var total, dropped int
	for i, d := range docs {
		var n int
		want[i], n = chunkedExpectation(r.expect(orc.scan(d)), overlap, ends)
		total += len(want[i])
		dropped += n
	}
	r.notef("oracle %d matches over %d documents, %d dropped by the same-chunk rule", total, len(docs), dropped)

	opts := []core.Option{
		core.WithDFA(), core.WithApprox(),
		core.WithWorkers(runtime.NumCPU()),
		core.WithChunkSize(c.ChunkBytes), core.WithOverlap(overlap),
	}
	var rs *core.RuleSet
	setup, keep, err := timeSetup(c.SetupRepeats, func() (func(), error) {
		x, err := core.NewRuleSet(patterns, backend.Options{}, opts...)
		rs = x
		return func() {}, err
	})
	if err != nil {
		return err
	}
	defer keep()
	r.endToEnd("setup_s", setup)

	var got []hit
	scan := func(k int) (int, bool, error) {
		i := k % len(docs)
		got = got[:0]
		_, err := rs.ScanReader(bytes.NewReader(docs[i]), func(rule int, m core.Match, _ []byte) bool {
			got = append(got, hit{rule, m.Start, m.End})
			return true
		})
		return i, err == nil && sameHits(got, want[i]), err
	}

	// Census on the fresh rule set: the first census_ops documents, in
	// order. It is also the warm-up: timing starts after it.
	rs.ResetStats()
	var bad int64
	for k := 0; k < c.CensusOps; k++ {
		if _, ok, err := scan(k); err != nil {
			return err
		} else if !ok {
			bad++
		}
	}
	r.recordOps(int64(c.CensusOps), 0, bad)
	if r.traced {
		r.censusMetrics(ruleSetCensus(rs, int64(c.CensusOps*c.DocBytes)))
	}

	k := c.CensusOps
	measure := func(d time.Duration, each func(i int, lat time.Duration) error) (*meter, error) {
		var ops, bad int64
		m := startMeter(seconds(c.SliceSeconds))
		defer func() { r.recordOps(ops, 0, bad) }()
		for deadline := time.Now().Add(d); time.Now().Before(deadline); {
			t0 := time.Now()
			i, ok, err := scan(k)
			el := time.Since(t0)
			k++
			ops++
			if err != nil {
				m.finish()
				return m, err
			}
			if !ok {
				bad++
			}
			m.op(el, int64(len(docs[i])))
			if each != nil {
				if err := each(i, el); err != nil {
					m.finish()
					return m, err
				}
			}
		}
		m.finish()
		return m, nil
	}

	if !r.traced {
		m, err := measure(seconds(r.seconds), nil)
		if err != nil {
			return err
		}
		r.rateMetrics(m)
		r.endToEnd("max_rate_ops_s", r.e2e["ops_per_s"].Value)
		r.latencyMetrics(m)
		return nil
	}

	// Traced run: untraced half for the runtime metrics, traced half in
	// which each op is followed by its staged replay.
	m, err := measure(seconds(r.seconds/2), nil)
	if err != nil {
		return err
	}
	r.runtimeMetrics(m)
	r.latencyMetrics(m)

	st, bt, err := buildStaged(patterns, overlap)
	if err != nil {
		return err
	}
	r.buildMetrics(bt)
	rec := newRecorder(time.Now(), 1, keepTraceOps)
	var counts stageCounts
	var replayBad int64
	var out []hit
	_, err = measure(seconds(r.seconds/2), func(i int, el time.Duration) error {
		op := int64(k)
		end := rec.now()
		rec.add("op", op, -1, end-int64(el), end)
		root := rec.add("replay", op, -1, rec.now(), 0)
		tr := &tracer{rec: rec, op: op, parent: root, counts: &counts}
		var err error
		out, err = st.scanDoc(tr, docs[i], c.ChunkBytes, out[:0])
		rec.cur[root].End = rec.now()
		rec.endOp()
		if !sameHits(out, want[i]) {
			replayBad++
		}
		return err
	})
	if err != nil {
		return err
	}
	_, err = r.traceResults([]*recorder{rec}, counts, replayBad)
	return err
}

// keepTraceOps is how many ops' raw spans a traced run writes out.
const keepTraceOps = 64

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// traceResults turns the recorders into the stage metrics, writes the
// span file and folds the recorder's checks into the run. It returns
// the span totals by name.
func (r *run) traceResults(recs []*recorder, counts stageCounts, replayBad int64) (map[string]spanTotals, error) {
	tot, ops, bad := mergeTotals(recs)
	r.stageMetrics(tot, counts)
	r.traceBad += bad
	r.mismatched += replayBad
	path, err := writeSpans(outDir(), r.name+"-spans.json", recs)
	if err != nil {
		return nil, err
	}
	r.notef("traced %d ops; %d broke span nesting; %d replay transcripts differed; spans in %s", ops, bad, replayBad, path)
	return tot, nil
}

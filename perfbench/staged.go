package main

import (
	"context"
	"errors"
	"time"

	"alveare/internal/approx"
	"alveare/internal/arch"
	"alveare/internal/automata"
	"alveare/internal/backend"
	"alveare/internal/core"
	"alveare/internal/isa"
	"alveare/internal/prefilter"
	"alveare/internal/stream"
)

// staged is the traced run's replay of the scan pipeline: the same
// stages the rule set runs for each window — admission automaton,
// literal prefilter, per-rule lazy-DFA gate, exact simulator — built
// from the same patterns with the layers' own public constructors and
// driven through their public entry points, so each call can be timed
// from outside. It follows core.Stream's window discipline (and
// RuleSet.ScanCtx's one-shot path for batch items) sequentially, one
// rule after another, with no worker pool. Its transcripts are checked
// against the oracle like the real path's.
type staged struct {
	n       int
	overlap int
	progs   []*isa.Program
	filter  *approx.Filter
	pf      *prefilter.Set
	dfas    []*automata.LazyDFA // nil where the rule has no gate
	cores   []*arch.Core
	bits    prefilter.Bits
}

// buildTimes is the set-up cost of each stage.
type buildTimes struct {
	compile, approx, prefilter, gate time.Duration
}

func buildStaged(patterns []string, overlap int) (*staged, buildTimes, error) {
	var bt buildTimes
	s := &staged{n: len(patterns), overlap: overlap}

	t := time.Now()
	for _, p := range patterns {
		prog, err := core.CompileWith(p, backend.Options{})
		if err != nil {
			return nil, bt, err
		}
		s.progs = append(s.progs, prog)
	}
	bt.compile = time.Since(t)

	t = time.Now()
	for _, p := range patterns {
		var d *automata.LazyDFA
		if lp, err := automata.CompileLazy(p); err == nil {
			d = lp.NewDFA(0)
		}
		s.dfas = append(s.dfas, d)
	}
	bt.gate = time.Since(t)

	t = time.Now()
	var lits []prefilter.Literal
	for i, p := range s.progs {
		if p.Hint != nil && len(p.Hint.Literal) >= 2 {
			lits = append(lits, prefilter.Literal{Rule: i, Bytes: p.Hint.Literal})
		}
	}
	if pf, err := prefilter.NewSet(len(patterns), lits); err == nil {
		s.pf = pf
		s.bits = prefilter.NewBits(len(patterns))
	}
	bt.prefilter = time.Since(t)

	t = time.Now()
	s.filter = approx.Build(patterns, 0)
	bt.approx = time.Since(t)

	for _, p := range s.progs {
		c, err := arch.NewCore(p, arch.DefaultConfig())
		if err != nil {
			return nil, bt, err
		}
		s.cores = append(s.cores, c)
	}
	return s, bt, nil
}

// stageCounts accumulates what the replay did, beside the span times.
type stageCounts struct {
	bytes   int64 // payload bytes replayed
	windows int64
	carry   int64 // overlap bytes scanned again
	cycles  int64 // modelled exact-engine cycles
}

func (c *stageCounts) add(o stageCounts) {
	c.bytes += o.bytes
	c.windows += o.windows
	c.carry += o.carry
	c.cycles += o.cycles
}

// tracer ties the replay's spans to one op and its root span.
type tracer struct {
	rec    *recorder
	op     int64
	parent int32
	counts *stageCounts
}

func (tr *tracer) span(name string, start int64) {
	tr.rec.add(name, tr.op, tr.parent, start, tr.rec.now())
}

// stagedStream mirrors core.Stream: a buffered window with an overlap
// carry and one resume offset per rule.
type stagedStream struct {
	s    *staged
	buf  []byte
	base int
	pos  []int
}

func (s *staged) newStream() *stagedStream {
	return &stagedStream{s: s, pos: make([]int, s.n)}
}

// feed scans chunk as the flow's next window (the last one when final)
// and appends the matches it reports to out.
func (st *stagedStream) feed(tr *tracer, chunk []byte, final bool, out []hit) ([]hit, error) {
	st.buf = append(st.buf, chunk...)
	tr.counts.bytes += int64(len(chunk))
	return st.window(tr, len(chunk), final, out)
}

// scanDoc replays RuleSet.ScanReader over doc: refills of chunk bytes,
// the first short refill being the final window.
func (s *staged) scanDoc(tr *tracer, doc []byte, chunk int, out []hit) ([]hit, error) {
	st := s.newStream()
	for off := 0; ; off += chunk {
		end := min(off+chunk, len(doc))
		final := end-off < chunk
		var err error
		if out, err = st.feed(tr, doc[off:end], final, out); err != nil || final {
			return out, err
		}
	}
}

// scanItem replays RuleSet.ScanCtx on one whole input: a single final
// window at offset 0.
func (s *staged) scanItem(tr *tracer, data []byte, out []hit) ([]hit, error) {
	st := &stagedStream{s: s, buf: data, pos: make([]int, s.n)}
	tr.counts.bytes += int64(len(data))
	return st.window(tr, len(data), true, out)
}

func (st *stagedStream) window(tr *tracer, nr int, final bool, out []hit) ([]hit, error) {
	s := st.s
	buf, base := st.buf, st.base
	limit := base + len(buf)
	ownEnd := limit
	if !final {
		ownEnd = max(limit-s.overlap, base)
	}
	tr.counts.windows++
	tr.counts.carry += int64(len(buf) - nr)
	skip := func(i int) {
		if final {
			st.pos[i] = limit + 1
		} else if st.pos[i] < ownEnd {
			st.pos[i] = ownEnd
		}
	}

	if !s.filter.AdmitAll() {
		t := tr.rec.now()
		suspect := s.filter.Suspect(buf)
		tr.span("approx", t)
		if !suspect {
			for i := range st.pos {
				skip(i)
			}
			st.carryTail(final, limit)
			return out, nil
		}
	}
	var bits prefilter.Bits
	if s.pf != nil {
		t := tr.rec.now()
		s.pf.Candidates(buf, s.bits)
		tr.span("prefilter", t)
		bits = s.bits
	}
	for i := 0; i < s.n; i++ {
		if bits != nil && !bits.Has(i) {
			skip(i)
			continue
		}
		c := s.cores[i]
		c.Reset()
		f := &tracedFinder{tr: tr, dfa: s.dfas[i], core: c}
		rule := i
		npos, _, err := stream.ScanWindowCtx(context.Background(), f, buf, base, final, s.overlap, st.pos[i],
			func(m arch.Match, _ []byte) bool {
				out = append(out, hit{rule, m.Start, m.End})
				return true
			})
		if err != nil {
			return out, err
		}
		st.pos[i] = npos
		tr.counts.cycles += c.Stats().Cycles
	}
	st.carryTail(final, limit)
	return out, nil
}

func (st *stagedStream) carryTail(final bool, limit int) {
	if final {
		return
	}
	carry := max(limit-st.s.overlap, st.base)
	st.buf = append(st.buf[:0], st.buf[carry-st.base:]...)
	st.base = carry
}

// tracedFinder is the gate-then-exact probe of core's fast path with a
// span around each stage call.
type tracedFinder struct {
	tr   *tracer
	dfa  *automata.LazyDFA
	core *arch.Core
	dead bool // the gate bailed earlier in this window
}

func (f *tracedFinder) FindFromCtx(ctx context.Context, data []byte, from int) (arch.Match, bool, error) {
	if f.dfa != nil && !f.dead {
		t := f.tr.rec.now()
		_, found, err := f.dfa.FirstAcceptCtx(ctx, data, from)
		f.tr.span("gate", t)
		switch {
		case errors.Is(err, automata.ErrDFABail):
			f.dead = true
		case err != nil:
			return arch.Match{}, false, err
		case !found:
			return arch.Match{}, false, nil
		}
	}
	t := f.tr.rec.now()
	m, ok, err := f.core.FindFromCtx(ctx, data, from)
	f.tr.span("exact", t)
	return m, ok, err
}

// stageMetrics turns the replay's span totals and counts into the
// per-layer time metrics. Shares are each stage's self time over the
// replayed ops' total time; window.self_share is the replay's own
// window bookkeeping (the part no stage span covers).
func (r *run) stageMetrics(tot map[string]spanTotals, c stageCounts) {
	replay := float64(tot["replay"].TotalN)
	bytes := float64(c.bytes)
	for _, st := range []string{"approx", "prefilter", "gate", "exact"} {
		r.perLayer(st+".ns_per_byte", ratio(float64(tot[st].TotalN), bytes))
		r.perLayer(st+".share", ratio(float64(tot[st].SelfN), replay))
	}
	r.perLayer("exact.ns_per_cycle", ratio(float64(tot["exact"].TotalN), float64(c.cycles)))
	mib := bytes / (1 << 20)
	r.perLayer("window.count_per_mb", ratio(float64(c.windows), mib))
	r.perLayer("window.carry_frac", ratio(float64(c.carry), bytes))
	r.perLayer("window.self_share", ratio(float64(tot["replay"].SelfN), replay))
	ops := float64(tot["op"].TotalN)
	r.perLayer("trace.overhead_frac", ratio(replay, ops+replay))
}

// buildMetrics reports the stage build times of the replay pipeline,
// which are the same constructor calls the rule set makes.
func (r *run) buildMetrics(bt buildTimes) {
	r.perLayer("compile.ms", float64(bt.compile)/1e6)
	r.perLayer("approx.build_ms", float64(bt.approx)/1e6)
	r.perLayer("prefilter.build_ms", float64(bt.prefilter)/1e6)
	r.perLayer("gate.build_ms", float64(bt.gate)/1e6)
}

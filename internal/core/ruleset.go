package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"alveare/internal/approx"
	"alveare/internal/arch"
	"alveare/internal/automata"
	"alveare/internal/backend"
	"alveare/internal/isa"
	"alveare/internal/prefilter"
	"alveare/internal/stream"
)

// RuleSet is a compiled multi-pattern database — the deployment unit of
// deep-packet-inspection workloads, where hundreds of rules scan the
// same stream. Rules are dispatched to a bounded worker pool (the
// multi-core ALVEARE parallelises over data; a rule set parallelises
// over rules, as the paper's per-RE evaluation runs one RE per loaded
// core). Scanning cores are recycled through per-rule pools, so a
// RuleSet is safe for concurrent Scan calls from multiple goroutines.
type RuleSet struct {
	patterns []string
	progs    []*isa.Program
	workers  int
	chunk    int // reader-scan refill size (WithChunkSize)
	overlap  int // stream boundary carry (WithOverlap)
	policy   Policy

	// safes hold one lazily-compiled safe-engine fallback per rule,
	// engaged by the Degrade policy; safeVM serialises itself, so the
	// slice is shared across concurrent scans.
	safes []*safeVM

	// pools hold per-rule scanning cores, clones of one loaded core per
	// rule that share its decoded program; Get yields a Reset core whose
	// speculation-stack arenas survive recycling (arch.Core.Reset). A
	// core whose scan panicked is abandoned, never pooled again.
	pools []sync.Pool

	// tracer, when set (WithTracer), is installed on every core borrowed
	// for a scan; pooled cores run concurrently, so it must be safe for
	// concurrent use.
	tracer arch.Tracer

	// Hybrid fast path (WithDFA): one shareable lazy-DFA program per
	// supported rule with pooled gate instances, plus the cross-rule
	// Aho–Corasick literal dispatcher built from the compiled programs'
	// prefilter hints. pf is nil when the fast path is off or the
	// literal trie was too large — every rule then dispatches.
	useDFA   bool
	dfaCache int
	lazy     []*automata.LazyProg
	dfaPools []sync.Pool
	pf       *prefilter.Set
	bitsPool sync.Pool

	// Admission stage (WithApprox): one over-approximating automaton
	// for the union of every rule, screening whole inputs (ScanCtx)
	// and whole windows (Stream) before the prefilter and the rule
	// fan-out. admit is nil when the stage is off; it is kept even
	// when the build degraded to admit-all so metrics can report the
	// degradation, but screening is skipped then (admit.AdmitAll()).
	admit *approx.Filter

	mu         sync.Mutex   // guards the roll-ups below
	agg        arch.Stats   // aggregate across all rules and scans
	perRule    []arch.Stats // per-rule roll-up (index = rule)
	occ        []int64      // jobs completed per worker slot
	dispatched int64        // rule-scan jobs handed to the pool
	streamCtr  stream.Counters
	fast       FastStats   // fast-path roll-up across all rules and scans
	approxCtr  ApproxStats // admission-stage roll-up
}

// NewRuleSet compiles every pattern with the given compiler options and
// builds each rule once: its program, a loaded prototype core for its
// scanning pool, its safe-engine fallback and, with WithDFA, its
// lazy-DFA program. WithCores is ignored (see WithCores).
func NewRuleSet(patterns []string, copt backend.Options, opts ...Option) (*RuleSet, error) {
	s := settings{cfg: arch.DefaultConfig()}
	for _, o := range opts {
		o(&s)
	}
	rs := &RuleSet{
		patterns: append([]string(nil), patterns...),
		workers:  s.workers,
		chunk:    s.chunk,
		overlap:  s.overlap,
		policy:   s.policy,
		tracer:   s.tracer,
		perRule:  make([]arch.Stats, len(patterns)),
		pools:    make([]sync.Pool, len(patterns)),
	}
	for i, re := range rs.patterns {
		p, err := CompileWith(re, copt)
		if err != nil {
			return nil, fmt.Errorf("core: rule %d %q: %w", i, re, err)
		}
		proto, err := arch.NewCore(p, s.cfg)
		if err != nil {
			return nil, err
		}
		// Pooled cores are clones of the prototype: they share its
		// decoded program, decoded once per rule.
		rs.pools[i].New = func() any { return proto.Clone() }
		rs.progs = append(rs.progs, p)
		rs.safes = append(rs.safes, newSafeVM(re))
	}
	if s.dfa {
		rs.useDFA = true
		rs.dfaCache = s.dfaCache
		rs.lazy = make([]*automata.LazyProg, len(rs.patterns))
		rs.dfaPools = make([]sync.Pool, len(rs.patterns))
		for i, re := range rs.patterns {
			// A rule the lazy DFA cannot gate (oversized NFA) scans the
			// slow exact path; the fast path never changes capability.
			if lp, lerr := automata.CompileLazy(re); lerr == nil {
				rs.lazy[i] = lp
			}
		}
		var lits []prefilter.Literal
		for i, p := range rs.progs {
			if p.Hint != nil && len(p.Hint.Literal) >= 2 {
				lits = append(lits, prefilter.Literal{Rule: i, Bytes: p.Hint.Literal})
			}
		}
		// A trie past the node bound just disables cross-rule dispatch
		// (pf == nil dispatches everything); the DFA gates still apply.
		if pf, perr := prefilter.NewSet(len(rs.patterns), lits); perr == nil {
			rs.pf = pf
		}
		rs.bitsPool.New = func() any { return prefilter.NewBits(len(rs.patterns)) }
	}
	if s.approx {
		// One filter for the union of every rule: a clean window skips
		// the whole fan-out. The filter is kept even when the build
		// degraded to admit-all so metrics can report the degradation.
		rs.admit = approx.Build(rs.patterns, s.approxStates)
	}
	return rs, nil
}

// ApproxEnabled reports whether the admission stage (WithApprox) is
// active on this rule set (true even when the filter degraded to
// admit-all — see ApproxFilter().AdmitAll()).
func (rs *RuleSet) ApproxEnabled() bool { return rs.admit != nil }

// ApproxFilter returns the rule set's admission filter, nil when off.
func (rs *RuleSet) ApproxFilter() *approx.Filter { return rs.admit }

// ApproxStats reports the admission stage's roll-up across all scans.
func (rs *RuleSet) ApproxStats() ApproxStats {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.approxCtr
}

// screening reports whether window screening actually runs: the stage
// is on and the filter discriminates (an admit-all filter would walk
// every byte to admit every window — pure waste).
func (rs *RuleSet) screening() bool {
	return rs.admit != nil && !rs.admit.AdmitAll()
}

// FastEnabled reports whether the hybrid fast path (WithDFA) is active
// on this rule set.
func (rs *RuleSet) FastEnabled() bool { return rs.useDFA }

// PrefilterEnabled reports whether the cross-rule Aho–Corasick literal
// dispatcher is active (it requires the fast path and a literal trie
// within bounds).
func (rs *RuleSet) PrefilterEnabled() bool { return rs.pf != nil }

// PrefilteredRules returns how many rules are gated by a necessary
// literal (the rest always dispatch).
func (rs *RuleSet) PrefilteredRules() int {
	if rs.pf == nil {
		return 0
	}
	return rs.pf.Filtered()
}

// FastStats reports the fast-path roll-up across all rules and scans:
// gate outcomes, DFA cache behaviour and prefilter dispatch counters.
func (rs *RuleSet) FastStats() FastStats {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.fast
}

// getDFA borrows rule i's pooled lazy-DFA gate, or nil when the rule
// has no gate (fast path off or unsupported pattern).
func (rs *RuleSet) getDFA(i int) *automata.LazyDFA {
	if !rs.useDFA || rs.lazy[i] == nil {
		return nil
	}
	if d, ok := rs.dfaPools[i].Get().(*automata.LazyDFA); ok && d != nil {
		return d
	}
	return rs.lazy[i].NewDFA(rs.dfaCache)
}

// putDFA returns a borrowed gate, folding its cache counters and the
// scan's gate-outcome counters into the roll-up.
func (rs *RuleSet) putDFA(i int, d *automata.LazyDFA, fst *FastStats) {
	fst.addLazy(d.TakeStats())
	rs.mu.Lock()
	rs.fast.Add(*fst)
	rs.mu.Unlock()
	rs.dfaPools[i].Put(d)
}

// candidates runs the cross-rule prefilter over one input window,
// returning the candidate mask (recycle with putBits) or nil when
// every rule must dispatch.
func (rs *RuleSet) candidates(data []byte) prefilter.Bits {
	if rs.pf == nil {
		return nil
	}
	bits := rs.bitsPool.Get().(prefilter.Bits)
	rs.pf.Candidates(data, bits)
	return bits
}

func (rs *RuleSet) putBits(bits prefilter.Bits) {
	if bits != nil {
		rs.bitsPool.Put(bits)
	}
}

// Len returns the number of rules.
func (rs *RuleSet) Len() int { return len(rs.progs) }

// Pattern returns the i-th rule's source.
func (rs *RuleSet) Pattern(i int) string { return rs.patterns[i] }

// Workers returns the scan concurrency bound (0 means GOMAXPROCS).
func (rs *RuleSet) Workers() int { return rs.workers }

// workerCount clamps the configured bound to the job count.
func (rs *RuleSet) workerCount(jobs int) int {
	n := rs.workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > jobs {
		n = jobs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// getCore borrows the i-th rule's scanning core, reset for a new input,
// with the rule set's tracer (if any) installed.
func (rs *RuleSet) getCore(i int) *arch.Core {
	c := rs.pools[i].Get().(*arch.Core)
	c.Reset()
	c.SetTracer(rs.tracer)
	return c
}

// merge folds one fan-out's telemetry into the roll-ups: per[i] is each
// scanned rule's counters for this batch, occ[w] each worker slot's
// completed-job count, and sent the number of jobs dispatched. Window
// throughput (when the batch was one stream window of nr bytes) rides
// along so every early return inside the scan loops leaves the
// roll-ups consistent.
func (rs *RuleSet) merge(per []arch.Stats, occ []int64, sent int64, windows, nr int64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for i := range per {
		rs.agg.Add(per[i])
		rs.perRule[i].Add(per[i])
	}
	for len(rs.occ) < len(occ) {
		rs.occ = append(rs.occ, 0)
	}
	for w, c := range occ {
		rs.occ[w] += c
	}
	rs.dispatched += sent
	rs.streamCtr.Windows += windows
	rs.streamCtr.Bytes += nr
}

// fanOut runs job for each live rule (live nil: every rule) on the
// worker pool and waits for them. cand is the prefilter's candidate
// mask (nil dispatches every live rule; fanOut recycles it): a live
// rule it withholds goes to skip (if set) instead. The prefilter's
// dispatch counters join the roll-up; each worker slot's completed-job
// count and the number of jobs sent are returned for merge.
func (rs *RuleSet) fanOut(cand prefilter.Bits, live func(i int) bool, skip func(i int), job func(i int)) (occ []int64, sent int64) {
	n := rs.Len()
	occ = make([]int64, rs.workerCount(n))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := range occ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				job(i)
				occ[w]++
			}
		}(w)
	}
	var skipped int64
	for i := 0; i < n; i++ {
		if live != nil && !live(i) {
			continue
		}
		if cand != nil && !cand.Has(i) {
			if skip != nil {
				skip(i)
			}
			skipped++
			continue
		}
		jobs <- i
		sent++
	}
	close(jobs)
	wg.Wait()
	rs.putBits(cand)
	rs.countPrefilter(sent, skipped)
	return occ, sent
}

// countPrefilter folds one pass's prefilter dispatch counts into the
// fast-path roll-up.
func (rs *RuleSet) countPrefilter(sent, skipped int64) {
	if rs.useDFA {
		rs.mu.Lock()
		rs.fast.PrefilterPasses += sent
		rs.fast.PrefilterSkips += skipped
		rs.mu.Unlock()
	}
}

// cancelled counts one scan aborted by cancellation.
func (rs *RuleSet) cancelled() {
	rs.mu.Lock()
	rs.agg.CancelledScans++
	rs.mu.Unlock()
}

// RuleMatches reports one rule's hits in a scanned stream.
type RuleMatches struct {
	Rule    int
	Matches []Match
	// Err is the rule's own isolated failure (a *ScanError), set when
	// the Skip or Degrade policy contained a fault in this rule without
	// aborting the scan. Matches holds whatever the rule completed
	// before it died. Nil on a clean rule.
	Err error
}

// withRule borrows rule i's pooled core and, when the fast path gates
// the rule, its lazy DFA, and runs fn with the per-scan finder (the
// gate over the policy-applying guarded core, degraded from the start
// when sticky is set) and the guarded core itself. It returns the core
// to its pool, folds the gate's counters into the roll-up and returns
// the core's counters, the guarded core's degraded state and fn's error
// as a *ScanError. A panic inside fn is recovered into a *ScanError at
// offset off and the core is abandoned, so one faulty rule (or a
// corrupted pooled core) cannot take down the whole scan.
func (rs *RuleSet) withRule(i int, off int64, sticky bool, fn func(f stream.Finder, g *guarded) error) (st arch.Stats, degraded bool, err error) {
	degraded = sticky
	defer func() {
		if r := recover(); r != nil {
			err = &ScanError{Rule: i, Offset: off, Cause: fmt.Errorf("rule fault: %v", r)}
		}
	}()
	core := rs.getCore(i)
	var fallbacks int64
	g := &guarded{
		core:       core,
		vm:         rs.safes[i],
		policy:     rs.policy,
		degraded:   sticky,
		onFallback: func() { fallbacks++ },
	}
	var f stream.Finder = g
	dfa := rs.getDFA(i)
	var fst FastStats
	if dfa != nil {
		// Gate stickiness (a cache bail) is scoped to this call; the
		// next one retries the gate on a flushed cache.
		f = &fastFinder{dfa: dfa, slow: g, st: &fst}
	}
	ferr := fn(f, g)
	if dfa != nil {
		rs.putDFA(i, dfa, &fst)
	}
	st = core.Stats()
	st.Fallbacks += fallbacks
	rs.pools[i].Put(core)
	return st, g.degraded, scanErrFor(i, ferr)
}

// scanRule runs one rule's one-shot FindAll over data with the failure
// policy applied: through the DFA gate when the rule has one, straight
// through the resilient policy loop otherwise.
func (rs *RuleSet) scanRule(ctx context.Context, i int, data []byte) (ms []Match, st arch.Stats, err error) {
	st, _, err = rs.withRule(i, -1, false, func(f stream.Finder, g *guarded) error {
		var ferr error
		if _, gated := f.(*fastFinder); gated {
			ms, ferr = findAllWith(ctx, f, data, 0)
		} else {
			ms, ferr = resilientFindAll(ctx, g.core, g.vm, g.policy, data, g.onFallback)
		}
		return ferr
	})
	return ms, st, err
}

// Scan runs every rule over data on the worker pool and returns the
// hits of the rules that matched, in rule order. Per-rule counters are
// merged race-free into the aggregate reported by Stats.
func (rs *RuleSet) Scan(data []byte) ([]RuleMatches, error) {
	return rs.ScanCtx(context.Background(), data)
}

// ScanCtx is Scan with cooperative cancellation and per-rule fault
// isolation: a rule whose core faults (or panics) is recovered into a
// *ScanError without disturbing the other rules. Under FailFast the
// first rule failure is returned as the scan's error; under Degrade and
// Skip contained failures ride along in the result's per-rule Err slots
// and the returned error stays nil. Cancellation always aborts with the
// partial results collected so far.
func (rs *RuleSet) ScanCtx(ctx context.Context, data []byte) ([]RuleMatches, error) {
	n := rs.Len()
	if n == 0 {
		return nil, nil
	}
	// Admission first: a clean verdict proves no rule matches anywhere
	// in the input, so the prefilter and the fan-out are skipped and
	// the result is exactly the empty result they would produce.
	screened := rs.screening()
	if screened && !rs.screenWindow(data) {
		return nil, nil
	}
	// One prefilter pass over the input picks the candidate rules; a
	// rule whose necessary literal is absent cannot match and is never
	// dispatched (its result is exactly the empty result it would
	// produce).
	matches := make([][]Match, n)
	errs := make([]error, n)
	per := make([]arch.Stats, n)
	occ, sent := rs.fanOut(rs.candidates(data), nil, nil, func(i int) {
		matches[i], per[i], errs[i] = rs.scanRule(ctx, i, data)
	})

	var scanErr error
	cancelled := false
	for _, err := range errs {
		if err == nil {
			continue
		}
		if isCancel(err) {
			cancelled = true
			scanErr = err
			break
		}
		if rs.policy == FailFast && scanErr == nil {
			scanErr = err
		}
	}
	rs.merge(per, occ, sent, 0, 0)
	if cancelled {
		rs.cancelled()
	}

	var out []RuleMatches
	hit := false
	for i, ms := range matches {
		ruleErr := errs[i]
		if isCancel(ruleErr) {
			ruleErr = nil // reported as the scan error, not a rule fault
		}
		if len(ms) > 0 {
			hit = true
		}
		if len(ms) > 0 || ruleErr != nil {
			out = append(out, RuleMatches{Rule: i, Matches: ms, Err: ruleErr})
		}
	}
	if screened && hit {
		rs.creditExactHit()
	}
	return out, scanErr
}

// ScanReader scans an unbounded stream against every rule: the input
// is consumed once, window by window (WithChunkSize / WithOverlap),
// and each window is dispatched to the worker pool — one resume
// position per rule, following the same one-shot-equivalent discipline
// as Engine.ScanReader. emit is called sequentially (never
// concurrently), windows in stream order and rules in rule order
// within a window; text aliases the window buffer and is valid only
// during the call. Returning false stops the scan. The byte count
// consumed from r is returned.
//
// Matches longer than the overlap are the chunking scheme's documented
// blind spot, exactly as for Engine.ScanReader.
func (rs *RuleSet) ScanReader(r io.Reader, emit func(rule int, m Match, text []byte) bool) (int64, error) {
	return rs.ScanReaderCtx(context.Background(), r, emit)
}

// scanRuleWindow runs one rule's window scan with the failure policy
// applied. sticky carries the rule's degraded state between windows so
// a rule that fell back to the safe engine stays on it for the rest of
// the stream.
func (rs *RuleSet) scanRuleWindow(ctx context.Context, i int, buf []byte, base int, final bool, overlap, from int, sticky bool) (ms []Match, st arch.Stats, npos int, nowSticky bool, err error) {
	npos = from
	st, nowSticky, err = rs.withRule(i, int64(from), sticky, func(f stream.Finder, _ *guarded) error {
		var got []Match
		p, _, werr := stream.ScanWindowCtx(ctx, f, buf, base, final, overlap, from,
			func(m Match, _ []byte) bool {
				got = append(got, m)
				return true
			})
		ms, npos = got, p
		return werr
	})
	return ms, st, npos, nowSticky, err
}

// ScanReaderCtx is ScanReader with cooperative cancellation (checked
// every window) and per-rule fault isolation: a rule whose core faults
// past what its policy can contain is retired from the scan — the
// remaining rules keep scanning the stream — and its *ScanError is
// joined into the error returned after the stream drains. Under
// FailFast the first rule failure aborts the whole scan immediately;
// cancellation always aborts, reporting the bytes consumed so far. A
// rule degraded to the safe engine (Degrade policy) stays on it for the
// remainder of the stream.
// The loop is the pull-mode driver over the same Stream state machine
// push-mode callers (the scan service's streaming sessions) use, so
// the two paths cannot diverge: each refill is one Stream window.
func (rs *RuleSet) ScanReaderCtx(ctx context.Context, r io.Reader, emit func(rule int, m Match, text []byte) bool) (int64, error) {
	st := rs.NewStream(0)
	done, err := st.carry.Pull(ctx, r, rs.chunk, func(nr int, final bool) (bool, error) {
		return st.window(ctx, nr, final, emit)
	})
	if re, ok := err.(*stream.ReadError); ok {
		// The refill or the between-window cancellation check failed;
		// window faults arrive as *ScanError and pass through.
		if isCancel(re.Err) {
			rs.cancelled()
		}
		err = scanErrFor(-1, re)
	}
	if !done {
		return st.Consumed(), err
	}
	return st.Consumed(), errors.Join(st.dead...)
}

// FirstMatch returns the lowest-numbered rule that occurs in data.
func (rs *RuleSet) FirstMatch(data []byte) (rule int, ok bool, err error) {
	return rs.FirstMatchCtx(context.Background(), data)
}

// FirstMatchCtx is FirstMatch with cooperative cancellation. Rules are
// probed in order through the same stages as ScanCtx — the rule-set
// admission screen, the literal prefilter, each rule's DFA gate and
// its pooled guarded core — and their counters join Stats. Under
// Degrade and Skip a faulting rule is passed over (its error is
// returned, joined, only when no later rule matches), under FailFast
// the first fault aborts the probe.
func (rs *RuleSet) FirstMatchCtx(ctx context.Context, data []byte) (rule int, ok bool, err error) {
	n := rs.Len()
	screened := rs.screening()
	if n == 0 || screened && !rs.screenWindow(data) {
		return 0, false, nil
	}
	cand := rs.candidates(data)
	per := make([]arch.Stats, n)
	var sent, skipped int64
	defer func() {
		rs.putBits(cand)
		rs.merge(per, nil, 0, 0, 0)
		rs.countPrefilter(sent, skipped)
		if isCancel(err) {
			rs.cancelled()
		}
		if screened && ok {
			rs.creditExactHit()
		}
	}()
	var deferred []error
	for i := 0; i < n; i++ {
		if cand != nil && !cand.Has(i) {
			skipped++
			continue
		}
		sent++
		hit := false
		var perr error
		per[i], _, perr = rs.withRule(i, -1, false, func(f stream.Finder, _ *guarded) error {
			_, found, ferr := f.FindFromCtx(ctx, data, 0)
			hit = found
			return ferr
		})
		if perr != nil {
			if isCancel(perr) || rs.policy == FailFast {
				return 0, false, perr
			}
			deferred = append(deferred, perr)
			continue
		}
		if hit {
			return i, true, nil
		}
	}
	return 0, false, errors.Join(deferred...)
}

// Stats returns the aggregate counters merged from every pooled core
// across all Scan and ScanReader calls so far.
func (rs *RuleSet) Stats() Stats {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.agg
}

// RuleStats returns rule i's accumulated counters across all scans.
func (rs *RuleSet) RuleStats(i int) Stats {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.perRule[i]
}

// WorkerOccupancy returns the number of rule-scan jobs each worker slot
// completed; the values sum to Dispatched. The slice is sized to the
// widest pool any scan used.
func (rs *RuleSet) WorkerOccupancy() []int64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]int64(nil), rs.occ...)
}

// Dispatched returns the total number of rule-scan jobs handed to the
// worker pool (one per live rule per Scan call or stream window).
func (rs *RuleSet) Dispatched() int64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.dispatched
}

// StreamCounters reports the reader-scan throughput (windows, bytes,
// matches emitted) accumulated across ScanReader calls.
func (rs *RuleSet) StreamCounters() stream.Counters {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.streamCtr
}

// ResetStats clears the aggregate scan counters, the per-rule and
// worker-occupancy roll-ups, and the stream throughput accumulators.
func (rs *RuleSet) ResetStats() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.agg = arch.Stats{}
	rs.perRule = make([]arch.Stats, len(rs.patterns))
	rs.occ = nil
	rs.dispatched = 0
	rs.streamCtr = stream.Counters{}
	rs.fast = FastStats{}
	rs.approxCtr = ApproxStats{}
}

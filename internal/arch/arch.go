// Package arch is a cycle-level software model of the ALVEARE single-core
// microarchitecture (paper §6, Fig. 3). It executes compiled ISA programs
// against a data stream with the paper's structural organisation:
//
//   - Memories (A): the instruction memory serves the three possible
//     control flows (sequential, backward, forward) every cycle, so any
//     taken jump completes without a bubble; the data memory is a
//     two-level hierarchy whose small RAM refills are charged to the
//     cycle budget as the stream pointer advances.
//   - Decode units (B): three decoders prepare the prefetched
//     instructions; decode is pipelined and adds no per-instruction
//     cycles. A backup of the first instruction restarts the RE after a
//     complete sub-matching failure.
//   - Execution (C): a vectorial unit of ComputeUnits CUs, each with
//     four comparators, processes base operators; the aggregator
//     combines comparator results (and applies NOT). In scan mode the
//     overlapped CUs test ComputeUnits adjacent start offsets per cycle
//     (window = 4 + (CUs-1) characters).
//   - Controller and speculation stack (D): complex operators
//     (counters, sub-RE alternation) are executed with a
//     depth-first-like speculative approach; snapshots pushed on the
//     stack allow backtracking on mispredictions, in greedy or lazy
//     modality.
//
// The model is cycle-faithful at the ISA contract level: one instruction
// completes per cycle (fused base+close counts once), every speculation
// rollback costs one cycle, scanning advances ComputeUnits offsets per
// cycle, and small-RAM refills cost RefillCycles per window.
package arch

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"alveare/internal/isa"
)

// Config parameterises the microarchitecture. The zero value is not
// valid; use DefaultConfig.
type Config struct {
	// ComputeUnits is the number of vector compute units; the paper's
	// design point is four (a 7-character window).
	ComputeUnits int
	// SmallRAMSize is the window, in bytes, served by the small data
	// RAM between refills from the on-chip local buffer.
	SmallRAMSize int
	// RefillCycles is the cost of one small-RAM refill.
	RefillCycles int
	// StackDepth bounds the speculation stack; exceeding it is an
	// execution error (hardware would stall or fault). Zero means the
	// DefaultConfig depth.
	StackDepth int
	// MaxCycles aborts pathological executions (runaway backtracking on
	// adversarial inputs); zero means the DefaultConfig budget. The
	// budget is granted per execution — each Find/FindAll call may spend
	// up to MaxCycles beyond the counter value it started from.
	MaxCycles int64
	// ForceRunawayAt is a fault-injection hook: when positive, the core
	// trips ErrRunaway as soon as its accumulated cycle counter reaches
	// this value, regardless of MaxCycles. Zero disables the hook (the
	// normal configuration). See internal/faultinject.
	ForceRunawayAt int64
	// Metrics enables the detailed observability counters (per-stage
	// cycle attribution, speculation push/pop/flush accounting,
	// data-memory hit/miss classification, per-CU utilization). Off by
	// default: the hot loop then pays one nil check per sample site and
	// the detailed Stats fields stay zero.
	Metrics bool
}

// DefaultConfig returns the paper's design point: four compute units,
// a 64-byte small RAM with single-cycle refill, a 4096-entry speculation
// stack, and a generous runaway budget.
func DefaultConfig() Config {
	return Config{
		ComputeUnits: 4,
		SmallRAMSize: 64,
		RefillCycles: 1,
		StackDepth:   4096,
		MaxCycles:    1 << 40,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.ComputeUnits <= 0 {
		c.ComputeUnits = d.ComputeUnits
	}
	if c.SmallRAMSize <= 0 {
		c.SmallRAMSize = d.SmallRAMSize
	}
	if c.RefillCycles < 0 {
		c.RefillCycles = d.RefillCycles
	}
	if c.StackDepth <= 0 {
		c.StackDepth = d.StackDepth
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = d.MaxCycles
	}
	return c
}

// Stats accumulates the core's performance counters across executions.
type Stats struct {
	Cycles        int64 // total clock cycles
	Instructions  int64 // instructions dispatched
	Speculations  int64 // snapshots pushed for alternative paths
	Rollbacks     int64 // mispredictions recovered from the stack
	ScanCycles    int64 // cycles spent in multi-CU scan mode
	RefillCycles  int64 // cycles spent refilling the small data RAM
	Attempts      int64 // match attempts started
	MaxStackDepth int   // deepest speculation stack observed

	// Per-class dispatch counters (BaseOps counts vector-unit
	// executions including fused closes, which are also counted in
	// CloseOps; the classes therefore sum to >= Instructions).
	BaseOps  int64
	OpenOps  int64
	CloseOps int64

	// Guardrail counters. Runaways counts cycle-budget trips and is
	// maintained at the trip site in this package; Fallbacks (windows
	// retried on the safe linear-time engine) and CancelledScans (scans
	// that ended on context cancellation or deadline expiry) are
	// maintained by the engine layer in internal/core.
	Runaways       int64
	Fallbacks      int64
	CancelledScans int64

	// RetriedCycles attributes the cycles burned by match attempts that
	// ended in a recoverable fault (ErrRunaway, ErrStackOverflow) — the
	// poisoned region a Degrade or Skip retry re-pays. Cycles always
	// includes them; Cycles - RetriedCycles is the productive count, so
	// roll-ups across policy retries no longer double-count the
	// poisoned work. Unlike the detailed counters below this one is
	// always maintained: it is a correctness fix, and costs one
	// subtraction per faulting attempt.
	RetriedCycles int64

	// Detailed observability counters, maintained only when
	// Config.Metrics is set (the hot loop pays a nil check otherwise).
	//
	// Per-stage cycle attribution. Every simulated cycle lands in
	// exactly one stage: Fetch (multi-CU candidate scanning and
	// small-RAM refills — the memory-facing work), Decode (entering
	// operators and EoR, the decode/control units), Execute (vector-unit
	// base operations, including fused closes), Aggregate (standalone
	// closes, alternation chain steps and speculation rollbacks — the
	// aggregator/controller). When metrics are enabled from the first
	// cycle, CyclesFetch+CyclesDecode+CyclesExecute+CyclesAggregate ==
	// Cycles.
	CyclesFetch     int64
	CyclesDecode    int64
	CyclesExecute   int64
	CyclesAggregate int64

	// Speculation-stack event accounting. Speculations (above) counts
	// pushes; SpecPops counts snapshots consumed by rollbacks; SpecFlushes
	// counts snapshots discarded unconsumed when an attempt completes.
	// Invariants: SpecPops + SpecFlushes <= Speculations, and
	// SpecFlushes <= Speculations.
	SpecPops    int64
	SpecFlushes int64

	// Data-memory hierarchy classification: every stream access is one
	// DMemAccesses; it is an L1Hit when the small RAM already buffers
	// the address and an L1Miss (refill from the local buffer) when it
	// does not. L1Hits + L1Misses == DMemAccesses.
	DMemAccesses int64
	L1Hits       int64
	L1Misses     int64
}

// Add merges s2 into s: counters sum, stack high-water marks take the
// maximum. It is the aggregation primitive for multi-core and
// multi-rule runs (the caller serialises concurrent merges).
func (s *Stats) Add(s2 Stats) {
	s.Cycles += s2.Cycles
	s.Instructions += s2.Instructions
	s.Speculations += s2.Speculations
	s.Rollbacks += s2.Rollbacks
	s.ScanCycles += s2.ScanCycles
	s.RefillCycles += s2.RefillCycles
	s.Attempts += s2.Attempts
	s.BaseOps += s2.BaseOps
	s.OpenOps += s2.OpenOps
	s.CloseOps += s2.CloseOps
	s.Runaways += s2.Runaways
	s.Fallbacks += s2.Fallbacks
	s.CancelledScans += s2.CancelledScans
	s.RetriedCycles += s2.RetriedCycles
	s.CyclesFetch += s2.CyclesFetch
	s.CyclesDecode += s2.CyclesDecode
	s.CyclesExecute += s2.CyclesExecute
	s.CyclesAggregate += s2.CyclesAggregate
	s.SpecPops += s2.SpecPops
	s.SpecFlushes += s2.SpecFlushes
	s.DMemAccesses += s2.DMemAccesses
	s.L1Hits += s2.L1Hits
	s.L1Misses += s2.L1Misses
	if s2.MaxStackDepth > s.MaxStackDepth {
		s.MaxStackDepth = s2.MaxStackDepth
	}
}

// Match is one pattern occurrence: the half-open byte interval
// [Start, End) of the data stream.
type Match struct {
	Start, End int
}

// Execution errors.
var (
	ErrStackOverflow = errors.New("arch: speculation stack overflow")
	ErrRunaway       = errors.New("arch: cycle budget exceeded")
	ErrIntegrity     = errors.New("arch: program/controller integrity violation")
)

// CancelCheckCycles is the cooperative cancellation granularity: a
// context-carrying execution polls ctx.Err() at every attempt boundary
// and every CancelCheckCycles simulated cycles inside an attempt.
const CancelCheckCycles = 4096

// ExecError locates an execution failure in the data stream: Offset is
// the start offset of the failing match attempt, relative to the data
// slice the core was given (the stream and multicore layers rebase it
// to an absolute stream offset before it crosses their API), and Cycle
// is the accumulated cycle count at the trip. Err is the underlying
// cause — ErrRunaway, ErrStackOverflow, ErrIntegrity, or a context
// error — reachable through errors.Is/As.
type ExecError struct {
	Offset int
	Cycle  int64
	Err    error
}

func (e *ExecError) Error() string {
	return fmt.Sprintf("%v (offset %d, cycle %d)", e.Err, e.Offset, e.Cycle)
}

func (e *ExecError) Unwrap() error { return e.Err }

// Core is one ALVEARE execution core with its private instruction
// memory (the loaded program) and statistics. A core is not safe for
// concurrent use: it owns the speculation-stack memory that successive
// searches recycle (pool cores, or use one per goroutine, to scan in
// parallel).
type Core struct {
	cfg  Config
	prog *isa.Program
	// ops and sets are the decoded program (decode.go), read-only and
	// shared with every clone of this core.
	ops    []uop
	sets   []byteSet
	stats  Stats
	tracer Tracer
	// cuBusy counts, per compute unit, the characters it processed
	// (scan-mode offsets tested plus attempt-mode base executions on
	// CU 0); maintained only when Config.Metrics is set.
	cuBusy []int64
	// fault is the injected runaway trip point (Config.ForceRunawayAt,
	// overridable per core with InjectRunawayAt); 0 disables it.
	fault int64
	// scratch is the reusable per-search state: the speculation stack
	// arenas survive across searches so a recycled core pays no
	// reallocation on its next input (see Reset).
	scratch machine
}

// NewCore loads a validated program into a core, decoding it into
// micro-ops once.
func NewCore(p *isa.Program, cfg Config) (*Core, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ops, sets := decode(p.Code)
	return newCore(p, ops, sets, cfg.withDefaults()), nil
}

func newCore(p *isa.Program, ops []uop, sets []byteSet, cfg Config) *Core {
	return &Core{cfg: cfg, prog: p, ops: ops, sets: sets, fault: cfg.ForceRunawayAt, cuBusy: make([]int64, cfg.ComputeUnits)}
}

// Clone returns a fresh core running the same program under the same
// configuration, as NewCore would build it (zero counters, no tracer,
// no injected fault beyond Config.ForceRunawayAt), but sharing c's
// decoded program instead of decoding it again. Pools and scale-out
// engines clone one loaded core per program.
func (c *Core) Clone() *Core { return newCore(c.prog, c.ops, c.sets, c.cfg) }

// InjectRunawayAt forces the core to trip ErrRunaway once its
// accumulated cycle counter reaches k; 0 disables the hook. It is the
// fault-injection entry point used by internal/faultinject to exercise
// the runaway-containment paths deterministically.
func (c *Core) InjectRunawayAt(k int64) { c.fault = k }

// Program returns the loaded program.
func (c *Core) Program() *isa.Program { return c.prog }

// Stats returns the accumulated performance counters.
func (c *Core) Stats() Stats { return c.stats }

// ResetStats clears the performance counters.
func (c *Core) ResetStats() {
	c.stats = Stats{}
	for i := range c.cuBusy {
		c.cuBusy[i] = 0
	}
}

// CUUtilization returns a copy of the per-compute-unit busy counters:
// cuBusy[i] is the number of characters CU i processed (scan-mode
// offsets tested; attempt-mode base executions run on CU 0). All zeros
// unless Config.Metrics is enabled.
func (c *Core) CUUtilization() []int64 {
	return append([]int64(nil), c.cuBusy...)
}

// Reset prepares the core for a fresh input stream: it clears the
// performance counters and drops every reference to the previous data
// while retaining the speculation-stack and snapshot arenas at their
// grown capacity. Reset is what makes pooled cores cheap to recycle — a
// reused core re-runs without reallocating the stack memory its
// earlier inputs forced it to grow.
func (c *Core) Reset() {
	m := &c.scratch
	// Drop the metrics binding first so recycling the previous input's
	// leftover speculation state is not counted as flush events of the
	// fresh stats.
	m.det = nil
	m.data = nil
	m.frames = m.frames[:0]
	m.recycleChoices()
	m.buffered = 0
	c.ResetStats()
}

// frame is the execution-status snapshot pushed when a complex opening
// operator is encountered (paper §6 (D)). Only the dynamic state lives
// in the frame — the match count, the data-stream address at sub-RE
// entry and at the current iteration's entry; the static part (frame
// flavour, quantification bounds and modality, exit and next-alternative
// addresses) is read from the entering operator's micro-op at openPC.
type frame struct {
	openPC  int32
	count   int
	enterDP int // data pointer at sub-RE entry
	iterDP  int // data pointer at current iteration entry
}

// choice is one alternative execution path recorded by the speculation
// mechanism; restoring it recovers from a misprediction.
type choice struct {
	pc, dp int
	frames []frame
}

// machine is the per-search transient state. One machine lives inside
// each Core (Core.scratch) so its arenas — the structural frame stack,
// the choice stack and the snapshot free list — are recycled across
// searches instead of reallocated.
type machine struct {
	core    *Core
	data    []byte
	frames  []frame
	choices []choice
	// spare is the snapshot free list: frame slices released by
	// rollbacks, reused by the next speculation instead of allocating.
	spare [][]frame
	st    *Stats
	// det is the detailed-metrics binding: it aliases st when
	// Config.Metrics is enabled and is nil otherwise, so every detailed
	// sample site is one pointer check on the disabled hot path.
	det *Stats
	// data-memory model: high-water mark of the small RAM.
	buffered int
	budget   int64
	// ctx carries the caller's cancellation signal; nil when the search
	// is not cancellable. ctxCheck is the cycle count of the next
	// cooperative poll (every CancelCheckCycles cycles).
	ctx      context.Context
	ctxCheck int64
	// limit is the next cycle count at which a check falls due: the
	// smaller of budget and (when cancellable) ctxCheck. The step loop
	// compares against it alone.
	limit int64
}

// machine rebinds the core's scratch machine to a new data stream,
// keeping the grown arenas, and arms cooperative cancellation when ctx
// carries a cancel signal (a nil or never-cancelled context adds no
// per-cycle work).
func (c *Core) machine(ctx context.Context, data []byte) *machine {
	m := &c.scratch
	m.core = c
	m.data = data
	m.st = &c.stats
	m.det = nil
	if c.cfg.Metrics {
		m.det = &c.stats
	}
	// The cycle budget is granted per binding (one public search call),
	// so a scan that recovers from a runaway and resumes gets a fresh
	// allowance — mirroring hardware re-arming a job after a fault.
	m.budget = m.st.Cycles + c.cfg.MaxCycles
	if c.fault > 0 && c.fault < m.budget {
		m.budget = c.fault
	}
	m.ctx = nil
	if ctx != nil && ctx.Done() != nil {
		m.ctx = ctx
		m.ctxCheck = m.st.Cycles // poll on the first executed cycle
	}
	m.rearm()
	m.buffered = 0
	m.frames = m.frames[:0]
	m.recycleChoices()
	return m
}

// rearm recomputes limit from the budget and the next cancellation poll.
func (m *machine) rearm() {
	m.limit = m.budget
	if m.ctx != nil && m.ctxCheck < m.limit {
		m.limit = m.ctxCheck
	}
}

// poll runs the checks that fell due at the current cycle count: the
// cycle budget (ErrRunaway) and the cooperative cancellation poll.
func (m *machine) poll() error {
	if m.st.Cycles >= m.budget {
		m.st.Runaways++
		return ErrRunaway
	}
	if m.ctx != nil && m.st.Cycles >= m.ctxCheck {
		if cerr := m.ctx.Err(); cerr != nil {
			return cerr
		}
		m.ctxCheck = m.st.Cycles + CancelCheckCycles
	}
	m.rearm()
	return nil
}

// recycleChoices moves every pending choice's snapshot onto the free
// list and empties the choice stack. Discarded snapshots are the
// speculation flushes: paths pushed but never consumed, abandoned when
// their attempt resolved.
func (m *machine) recycleChoices() {
	if n := len(m.choices); n > 0 {
		if m.det != nil {
			m.det.SpecFlushes += int64(n)
		}
		if m.core != nil && m.core.tracer != nil && m.st != nil {
			m.emit(EvSpecFlush, 0, n)
		}
	}
	for i := range m.choices {
		if s := m.choices[i].frames; s != nil {
			m.spare = append(m.spare, s[:0])
		}
	}
	m.choices = m.choices[:0]
}

// Find reports the leftmost match in data.
func (c *Core) Find(data []byte) (Match, bool, error) {
	return c.FindFrom(data, 0)
}

// FindCtx is Find with cooperative cancellation: the search honours
// ctx's cancellation and deadline, polling at attempt boundaries and
// every CancelCheckCycles simulated cycles.
func (c *Core) FindCtx(ctx context.Context, data []byte) (Match, bool, error) {
	return c.FindFromCtx(ctx, data, 0)
}

// FindFrom reports the leftmost match starting at or after from.
func (c *Core) FindFrom(data []byte, from int) (Match, bool, error) {
	return c.machine(nil, data).search(from)
}

// FindFromCtx is FindFrom with cooperative cancellation.
func (c *Core) FindFromCtx(ctx context.Context, data []byte, from int) (Match, bool, error) {
	return c.machine(ctx, data).search(from)
}

// FindAll returns all non-overlapping matches (leftmost-first). A
// non-positive limit means no limit.
func (c *Core) FindAll(data []byte, limit int) ([]Match, error) {
	return c.FindAllFromCtx(nil, data, 0, limit)
}

// FindAllCtx is FindAll with cooperative cancellation.
func (c *Core) FindAllCtx(ctx context.Context, data []byte, limit int) ([]Match, error) {
	return c.FindAllFromCtx(ctx, data, 0, limit)
}

// FindAllFromCtx returns all non-overlapping matches starting at or
// after from. On error the matches found so far are returned alongside
// it; the error is an *ExecError whose Offset names the attempt the
// execution died in, so a caller may resume past it.
func (c *Core) FindAllFromCtx(ctx context.Context, data []byte, from, limit int) ([]Match, error) {
	var out []Match
	m := c.machine(ctx, data)
	if from < 0 {
		from = 0
	}
	for from <= len(data) {
		match, ok, err := m.search(from)
		if err != nil {
			return out, err
		}
		if !ok {
			break
		}
		out = append(out, match)
		if limit > 0 && len(out) >= limit {
			break
		}
		if match.End > match.Start {
			from = match.End
		} else {
			from = match.End + 1
		}
	}
	return out, nil
}

// Count returns the number of non-overlapping matches.
func (c *Core) Count(data []byte) (int, error) {
	ms, err := c.FindAll(data, 0)
	return len(ms), err
}

// search drives the scan loop: candidate start offsets are filtered by
// the overlapped compute units when the first instruction is a base
// operator, then each candidate runs a full speculative attempt.
func (m *machine) search(from int) (Match, bool, error) {
	first := &m.core.ops[0]
	cus := m.core.cfg.ComputeUnits
	start := from
	if start < 0 {
		start = 0
	}
	if m.ctx != nil {
		if cerr := m.ctx.Err(); cerr != nil {
			return Match{}, false, m.execErr(start, cerr)
		}
	}
	scanFirst := first.isBase()
	for start <= len(m.data) {
		if scanFirst {
			cand, cerr := m.scan(first, start)
			if cerr != nil {
				return Match{}, false, m.execErr(cand, cerr)
			}
			skipped := cand - start
			if skipped > 0 {
				sc := int64((skipped + cus - 1) / cus)
				m.st.Cycles += sc
				m.st.ScanCycles += sc
				if m.det != nil {
					m.det.CyclesFetch += sc
					m.chargeCUs(skipped, cus)
				}
				m.emit(EvScan, 0, cand)
			}
			// Scanning consumes the stream from the data memory too.
			m.touch(cand)
			if cand >= len(m.data) {
				// The tail cannot start a match unless the pattern can
				// match empty input; probe the final offset only for
				// base-first programs when data remains unconsumed.
				return Match{}, false, nil
			}
			start = cand
		}
		aStart := m.st.Cycles
		end, ok, err := m.attempt(start)
		if err != nil {
			m.chargeRetry(aStart, err)
			return Match{}, false, m.execErr(start, err)
		}
		if ok {
			return Match{Start: start, End: end}, true, nil
		}
		start++
	}
	return Match{}, false, nil
}

// scan is the overlapped compute units' candidate filter: it returns
// the first offset at or after cand where the base micro-op first hits,
// len(data) when none does. The scan can cover a whole window between
// attempts, so a cancellable search polls its context every 64 KiB
// (before testing each offset whose low 16 bits are all ones) to stay
// responsive on huge match-free stretches.
func (m *machine) scan(first *uop, cand int) (int, error) {
	data := m.data
	for cand < len(data) {
		stop := len(data)
		if m.ctx != nil {
			next := cand | 0xFFFF
			if next == cand {
				if cerr := m.ctx.Err(); cerr != nil {
					return cand, cerr
				}
				next += 0x10000
			}
			stop = min(stop, next)
		}
		if first.kind == opSet {
			set := &m.core.sets[first.arg]
			for ; cand < stop; cand++ {
				if set.has(data[cand]) {
					return cand, nil
				}
			}
			continue
		}
		for cand < stop {
			i := bytes.IndexByte(data[cand:stop], first.lit[0])
			if i < 0 {
				cand = stop
				break
			}
			cand += i
			if first.matchAND(data, cand) {
				return cand, nil
			}
			cand++
		}
	}
	return cand, nil
}

// chargeRetry attributes a faulted attempt's cycles to RetriedCycles
// when the fault is in the recoverable class: the policy layer retries
// exactly that region (Degrade re-scans it on the safe engine, Skip
// re-enters past it), so without the attribution the poisoned cycles
// would double-count against the productive total.
func (m *machine) chargeRetry(attemptStart int64, err error) {
	if errors.Is(err, ErrRunaway) || errors.Is(err, ErrStackOverflow) {
		m.st.RetriedCycles += m.st.Cycles - attemptStart
	}
}

// execErr locates err at the given attempt offset; errors already
// located pass through unchanged.
func (m *machine) execErr(offset int, err error) error {
	var ee *ExecError
	if errors.As(err, &ee) {
		return err
	}
	return &ExecError{Offset: offset, Cycle: m.st.Cycles, Err: err}
}

// attempt executes the program once with the match anchored at start,
// returning the end of the match on success. It is the one dispatch
// loop: the instrumentation bindings are read once into locals, and the
// per-step counters nothing reads mid-attempt (Instructions, BaseOps,
// OpenOps) accumulate in locals and are retired on every exit.
func (m *machine) attempt(start int) (end int, ok bool, err error) {
	ops, sets, data := m.core.ops, m.core.sets, m.data
	st, det := m.st, m.det
	tracing := m.core.tracer != nil
	m.frames = m.frames[:0]
	m.recycleChoices()
	st.Attempts++
	if tracing {
		m.emit(EvAttempt, 0, start)
	}
	var instrs, baseOps, openOps int64
	pc, dp := 0, start
	var alive bool
loop:
	for {
		if st.Cycles >= m.limit {
			if err = m.poll(); err != nil {
				break
			}
		}
		if uint(pc) >= uint(len(ops)) {
			err = fmt.Errorf("%w: pc %d outside program", ErrIntegrity, pc)
			break
		}
		op := &ops[pc]
		st.Cycles++
		instrs++
		if tracing {
			m.emit(EvExec, pc, dp)
		}
		// Each case attributes its cycle to one pipeline stage when
		// detailed metrics are on. Base operators with a fused close and
		// standalone closes fall through to the close below the switch;
		// every other case continues or leaves the loop.
		switch op.kind {
		case opSet, opAND:
			baseOps++
			if det != nil {
				det.CyclesExecute++
				m.core.cuBusy[0]++
			}
			m.touch(dp + int(op.n))
			var hit bool
			if op.kind == opSet {
				hit = dp < len(data) && sets[op.arg].has(data[dp])
			} else {
				hit = op.matchAND(data, dp)
			}
			if !hit {
				if pc, dp, alive = m.mismatch(op, pc); !alive {
					break loop
				}
				continue
			}
			dp += int(op.n)
			if op.close == isa.CloseNone {
				pc++
				continue
			}

		case opOpenGroup:
			openOps++
			if det != nil {
				det.CyclesDecode++
			}
			if op.arg >= 0 {
				// Speculate: if this alternative mismatches anywhere,
				// resume at the next alternative's entering operator with
				// the entry data pointer.
				if err = m.speculate(int(op.arg), dp, m.frames); err != nil {
					break loop
				}
			}
			if err = m.push(pc, dp); err != nil {
				break loop
			}
			pc++
			continue

		case opOpenQuant:
			openOps++
			if det != nil {
				det.CyclesDecode++
			}
			if err = m.push(pc, dp); err != nil {
				break loop
			}
			if pc, err = m.boundary(dp); err != nil {
				break loop
			}
			continue

		case opClose:
			if det != nil {
				det.CyclesAggregate++
			}

		case opEoR:
			if det != nil {
				det.CyclesDecode++
			}
			if tracing {
				m.emit(EvMatch, pc, dp)
			}
			end, ok = dp, true
			break loop

		default:
			err = fmt.Errorf("%w: undecodable instruction at pc %d", ErrIntegrity, pc)
			break loop
		}
		// The closing operator (paper §6 (D)): ")|" leaves the
		// alternation for its exit, ")" steps past itself, and the
		// quantifier closes run the counter decision.
		st.CloseOps++
		if len(m.frames) == 0 {
			err = fmt.Errorf("%w: close at pc %d with empty stack", ErrIntegrity, pc)
			break
		}
		f := &m.frames[len(m.frames)-1]
		open := &ops[f.openPC]
		switch op.close {
		case isa.CloseAlt, isa.ClosePlain:
			if open.kind != opOpenGroup {
				err = fmt.Errorf("%w: %q at pc %d over a counter sub-RE", ErrIntegrity, op.close, pc)
				break loop
			}
			m.pop()
			if op.close == isa.CloseAlt {
				pc = int(open.exit)
			} else {
				pc++
			}
		case isa.CloseQuantGreedy, isa.CloseQuantLazy:
			if open.kind != opOpenQuant {
				err = fmt.Errorf("%w: quantifier close at pc %d over non-counter sub-RE", ErrIntegrity, pc)
				break loop
			}
			if pc, dp, alive, err = m.closeQuant(f, open, dp); err != nil || !alive {
				break loop
			}
		default:
			err = fmt.Errorf("%w: unknown close %v at pc %d", ErrIntegrity, op.close, pc)
			break loop
		}
	}
	st.Instructions += instrs
	st.BaseOps += baseOps
	st.OpenOps += openOps
	if err != nil {
		return 0, false, err
	}
	return end, ok, nil
}

// boundary runs the counter decision of the paper's controller: repeat
// while under the minimum; stop at the maximum; otherwise speculate
// according to the greedy or lazy modality.
func (m *machine) boundary(dp int) (int, error) {
	f := &m.frames[len(m.frames)-1]
	op := &m.core.ops[f.openPC]
	body := int(f.openPC) + 1
	switch hi := op.qmax(); {
	case f.count < op.qmin():
		f.iterDP = dp
		return body, nil
	case hi >= 0 && f.count >= hi:
		m.pop()
		return int(op.exit), nil
	case op.flags&flagLazy != 0:
		// Lazy: speculate on the operation after the sub-RE; the
		// alternative path repeats the body once more.
		snap := m.snapshot(m.frames)
		snap[len(snap)-1].iterDP = dp
		if err := m.speculateSnap(body, dp, snap); err != nil {
			return 0, err
		}
		m.pop()
		return int(op.exit), nil
	default:
		// Greedy: speculate on re-matching the sub-RE; the alternative
		// path exits past the close.
		if err := m.speculate(int(op.exit), dp, m.frames[:len(m.frames)-1]); err != nil {
			return 0, err
		}
		f.iterDP = dp
		return body, nil
	}
}

// closeQuant executes a quantifier close over the counter frame f
// opened by open: it counts the iteration and runs the boundary
// decision. alive == false means the whole attempt failed (rollback
// exhausted).
func (m *machine) closeQuant(f *frame, open *uop, dp int) (npc, ndp int, alive bool, err error) {
	f.count++
	if dp == f.iterDP {
		// The iteration consumed no input. In the mandatory phase,
		// empty matches satisfy the remaining minimum (a body that
		// matched empty once can do so for every remaining copy). In
		// the speculative phase, an empty iteration is rejected as a
		// misprediction: the rollback first revisits the body's own
		// pending alternatives (which may produce a non-empty
		// iteration) and eventually the recorded loop exit. This
		// mirrors PCRE's empty-loop rule.
		if lo := open.qmin(); f.count <= lo {
			f.count = lo
			npc, err := m.boundary(dp)
			return npc, dp, true, err
		}
		npc, ndp, alive := m.rollback()
		return npc, ndp, alive, nil
	}
	npc, err = m.boundary(dp)
	return npc, dp, true, err
}

// mismatch handles a failed base operation: within an alternation chain
// the controller steps to the next alternative directly (all elements
// re-test the same character, so no snapshot is needed); otherwise it
// rolls back the most recent speculation. alive == false means the
// attempt failed.
func (m *machine) mismatch(op *uop, pc int) (npc, ndp int, alive bool) {
	if n := len(m.frames); n > 0 {
		f := &m.frames[n-1]
		if g := &m.core.ops[f.openPC]; g.kind == opOpenGroup && g.arg < 0 {
			// Chain element stepping. A fused ")|" marks a non-final
			// element; an unfused element is followed by its standalone
			// ")|" close.
			step := 0
			if op.close == isa.CloseAlt {
				step = 1
			} else if op.flags&flagChain != 0 {
				step = 2
			}
			if step > 0 {
				m.st.Cycles++
				m.st.Rollbacks++
				if m.det != nil {
					m.det.CyclesAggregate++
				}
				return pc + step, f.enterDP, true
			}
		}
	}
	return m.rollback()
}

// rollback restores the most recent speculation snapshot.
func (m *machine) rollback() (npc, ndp int, alive bool) {
	if len(m.choices) == 0 {
		return 0, 0, false
	}
	ch := &m.choices[len(m.choices)-1]
	m.choices = m.choices[:len(m.choices)-1]
	m.frames = append(m.frames[:0], ch.frames...)
	if ch.frames != nil {
		m.spare = append(m.spare, ch.frames[:0])
	}
	m.st.Cycles++
	m.st.Rollbacks++
	if m.det != nil {
		m.det.CyclesAggregate++
		m.det.SpecPops++
	}
	m.emit(EvRollback, ch.pc, ch.dp)
	return ch.pc, ch.dp, true
}

// speculate records an alternative path with a copy of the given frame
// stack prefix.
func (m *machine) speculate(pc, dp int, frames []frame) error {
	return m.speculateSnap(pc, dp, m.snapshot(frames))
}

func (m *machine) speculateSnap(pc, dp int, snap []frame) error {
	if len(m.choices)+len(m.frames) >= m.core.cfg.StackDepth {
		return ErrStackOverflow
	}
	m.choices = append(m.choices, choice{pc: pc, dp: dp, frames: snap})
	m.st.Speculations++
	m.emit(EvSpecPush, pc, dp)
	if d := len(m.choices) + len(m.frames); d > m.st.MaxStackDepth {
		m.st.MaxStackDepth = d
	}
	return nil
}

// snapshot copies the given frame prefix into a slice drawn from the
// free list when one is available (rollbacks return theirs), so steady
// speculate/rollback churn runs allocation-free.
func (m *machine) snapshot(frames []frame) []frame {
	if n := len(m.spare); n > 0 {
		s := m.spare[n-1]
		m.spare = m.spare[:n-1]
		return append(s, frames...)
	}
	return append([]frame(nil), frames...)
}

// push opens a frame for the entering operator at pc on the structural
// stack, enforcing the hardware stack capacity (frames and choices
// share the physical stack memory). The frame is written in place in
// the arena slot.
func (m *machine) push(pc, dp int) error {
	n := len(m.frames)
	if n+len(m.choices) >= m.core.cfg.StackDepth {
		return ErrStackOverflow
	}
	if n < cap(m.frames) {
		m.frames = m.frames[:n+1]
	} else {
		m.frames = append(m.frames, frame{})
	}
	f := &m.frames[n]
	f.openPC = int32(pc)
	f.count = 0
	f.enterDP = dp
	f.iterDP = dp
	if d := n + 1 + len(m.choices); d > m.st.MaxStackDepth {
		m.st.MaxStackDepth = d
	}
	return nil
}

func (m *machine) pop() {
	m.frames = m.frames[:len(m.frames)-1]
}

// touch models the two-level data memory: advancing the stream pointer
// past the buffered window refills the small RAM from the local buffer.
// Each call is one data-memory access: an L1 hit when the small RAM
// already buffers the address, an L1 miss (refill charged to the fetch
// stage) when it does not.
func (m *machine) touch(dp int) {
	if m.det != nil {
		m.det.DMemAccesses++
		if dp > m.buffered {
			m.det.L1Misses++
		} else {
			m.det.L1Hits++
		}
	}
	if dp > m.buffered {
		m.refill(dp)
	}
}

// refill advances the small RAM's window until it buffers dp.
func (m *machine) refill(dp int) {
	for dp > m.buffered {
		m.buffered += m.core.cfg.SmallRAMSize
		m.st.Cycles += int64(m.core.cfg.RefillCycles)
		m.st.RefillCycles += int64(m.core.cfg.RefillCycles)
		if m.det != nil {
			m.det.CyclesFetch += int64(m.core.cfg.RefillCycles)
		}
	}
}

// chargeCUs distributes skipped scan-mode characters over the compute
// units: every full scan cycle keeps all cus units busy, the remainder
// cycle occupies the first skipped%cus units.
func (m *machine) chargeCUs(skipped, cus int) {
	full := int64(skipped / cus)
	rem := skipped % cus
	busy := m.core.cuBusy
	for i := 0; i < cus && i < len(busy); i++ {
		busy[i] += full
		if i < rem {
			busy[i]++
		}
	}
}

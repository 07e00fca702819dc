package core

import (
	"context"
	"errors"

	"alveare/internal/arch"
	"alveare/internal/stream"
)

// Stream is a resumable push-mode scan of one unbounded flow against
// every rule — the state a scan-service streaming session carries
// across frames, over the shared stream.Carry window machine. Each
// pushed chunk is scanned as one window of the overlap discipline with
// one resume position per rule, the cross-rule literal prefilter run
// per window, fast-path gating intact and per-rule degraded/retired
// state carried between pushes; the emitted matches are byte-identical
// to RuleSet.ScanReader over the concatenated flow (matches longer
// than the overlap are the scheme's documented blind spot, exactly as
// there).
//
// ScanReaderCtx is the pull-mode loop over this same state machine, so
// the two paths cannot diverge. A Stream is single-caller: pushes must
// be serialised (the scan service's session registry enforces this);
// the RuleSet underneath stays safe for concurrent use by other scans.
type Stream struct {
	rs     *RuleSet
	carry  stream.Carry
	pos    []int // per-rule resume offsets
	sticky []bool
	dead   []error
	done   bool
}

// NewStream opens push-mode carry-over state for the rule set.
// Non-positive overlap selects the rule set's configured overlap
// (WithOverlap, default stream.DefaultOverlap).
func (rs *RuleSet) NewStream(overlap int) *Stream {
	if overlap <= 0 {
		overlap = rs.overlap
	}
	n := rs.Len()
	return &Stream{
		rs:     rs,
		carry:  stream.NewCarry(overlap),
		pos:    make([]int, n),
		sticky: make([]bool, n),
		dead:   make([]error, n),
	}
}

// Overlap returns the boundary carry in bytes — the longest match the
// stream is guaranteed to report identically to a one-shot scan.
func (st *Stream) Overlap() int { return st.carry.Overlap() }

// Consumed returns the total stream bytes absorbed so far.
func (st *Stream) Consumed() int64 { return st.carry.Consumed() }

// Buffered returns the resident carry-over tail in bytes (at most
// Overlap after each completed push).
func (st *Stream) Buffered() int { return st.carry.Buffered() }

// Finished reports whether the stream has been finalised (FinishCtx
// ran, a fault aborted it, or emit stopped it).
func (st *Stream) Finished() bool { return st.done }

// PushCtx scans chunk as the flow's next window. emit is called
// sequentially, rules in rule order, with absolute stream offsets;
// text aliases the window buffer and is valid only during the call.
// cont is false when emit stopped the scan (the stream is then
// finished). Under FailFast a rule fault aborts and finishes the
// stream; under Degrade/Skip the faulting rule is retired and its
// error surfaces from FinishCtx. An empty chunk is a no-op window.
func (st *Stream) PushCtx(ctx context.Context, chunk []byte, emit func(rule int, m Match, text []byte) bool) (cont bool, err error) {
	if st.done {
		return false, stream.ErrSessionFinished
	}
	if cerr := ctx.Err(); cerr != nil {
		st.rs.cancelled()
		st.done = true
		return false, scanErrFor(-1, &stream.ReadError{Offset: st.Consumed(), Err: cerr})
	}
	st.carry.Push(chunk)
	return st.window(ctx, len(chunk), false, emit)
}

// FinishCtx scans the carry-over tail as the flow's final window and
// returns the joined retirement errors of rules the policy contained
// mid-stream. The stream cannot be pushed to afterwards.
func (st *Stream) FinishCtx(ctx context.Context, emit func(rule int, m Match, text []byte) bool) (cont bool, err error) {
	if st.done {
		return false, stream.ErrSessionFinished
	}
	cont, werr := st.window(ctx, 0, true, emit)
	st.done = true
	if werr != nil {
		return false, werr
	}
	return cont, errors.Join(st.dead...)
}

// window runs one window pass over the buffered bytes: prefilter, rule
// fan-out to the worker pool, telemetry merge, deterministic emission,
// and (on a non-final continuing window) the overlap carry. nr is the
// byte count this window added, for the throughput roll-up.
func (st *Stream) window(ctx context.Context, nr int, final bool, emit func(rule int, m Match, text []byte) bool) (bool, error) {
	rs := st.rs
	n := rs.Len()
	buf, base := st.carry.Window()
	limit := base + len(buf)

	// Admission first: one filter walk over the whole buffered window
	// (carry tail plus new bytes) stands in for every rule's window
	// scan when it proves the window clean. Live rules' resume offsets
	// then advance exactly as a no-match ScanWindowCtx pass would, so
	// the skip is byte-identical; a match straddling the window
	// boundary starts inside the carry tail and reappears whole — and
	// is screened again — in the next window.
	screened := rs.screening()
	if screened && !rs.screenWindow(buf) {
		for i := 0; i < n; i++ {
			if st.dead[i] == nil {
				st.pos[i] = st.carry.Skip(st.pos[i], final)
			}
		}
		rs.merge(nil, nil, 0, 1, int64(nr))
		st.next(final)
		return true, nil
	}

	// One prefilter pass over the window buffer picks the candidate
	// rules and the live ones fan out to the workers, collected per
	// rule so the emission below is deterministic. A withheld rule's
	// resume offset advances exactly as a no-match window scan would
	// (stream.ScanWindowCtx's contract): the literal's absence from
	// the buffer proves no match lies in the window, so the two are
	// byte-identical.
	wins := make([][]Match, n)
	errs := make([]error, n)
	per := make([]arch.Stats, n)
	occ, sent := rs.fanOut(rs.candidates(buf),
		func(i int) bool { return st.dead[i] == nil },
		func(i int) { st.pos[i] = st.carry.Skip(st.pos[i], final) },
		func(i int) {
			wins[i], per[i], st.pos[i], st.sticky[i], errs[i] = rs.scanRuleWindow(ctx, i, buf, base, final, st.Overlap(), st.pos[i], st.sticky[i])
		})

	rs.merge(per, occ, sent, 1, int64(nr))
	for i, err := range errs {
		if err == nil {
			continue
		}
		if isCancel(err) || rs.policy == FailFast {
			if isCancel(err) {
				rs.cancelled()
			}
			st.done = true
			return false, err
		}
		// Retire the rule; the stream scan outlives it. Park its
		// resume offset past the stream so a stale offset can never
		// fault the carry-over arithmetic.
		st.dead[i] = err
		st.pos[i] = limit
	}
	if screened {
		for _, ms := range wins {
			if len(ms) > 0 {
				rs.creditExactHit()
				break
			}
		}
	}
	var emitted int64
	flushEmitted := func() {
		rs.mu.Lock()
		rs.streamCtr.Matches += emitted
		rs.mu.Unlock()
	}
	for i, ms := range wins {
		for _, m := range ms {
			emitted++
			if !emit(i, m, buf[m.Start-base:m.End-base]) {
				flushEmitted()
				st.done = true
				return false, nil
			}
		}
	}
	flushEmitted()
	st.next(final)
	return true, nil
}

// next ends a window that ran to completion: the final window finishes
// the stream, any other carries the shared overlap tail from the owned
// end — every live rule's resume offset is at or past it
// (ScanWindowCtx guarantees pos >= limit-overlap).
func (st *Stream) next(final bool) {
	if final {
		st.done = true
	} else {
		st.carry.Cut(st.carry.OwnEnd(false))
	}
}

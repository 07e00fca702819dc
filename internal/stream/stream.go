// Package stream implements chunked scanning of unbounded data
// streams. A Carry is the one overlap window machine every chunked
// path shares: it grows the window by refills (pull mode, Pull) or
// pushed chunks (push mode, Push), computes the region a window owns,
// advances resume offsets over a window proven clean, and carries the
// unfinalised tail into the next window, so the whole input is never
// resident — only one window of ChunkSize+Overlap bytes. ScanWindowCtx
// runs one finder's resume offset over one window; internal/core
// drives it once per rule (RuleSet, core.Stream) or for its single
// pattern (Engine reader scans), and keeps the one checkpoint codec
// for that state.
//
// The discipline is the sequential counterpart of the multicore
// engine's divide and conquer (paper §6): every window extends
// Overlap bytes past the region it finalises, so a match that begins
// near a boundary completes inside the extended window. The results
// are byte-identical to a one-shot Core.FindAll over the whole input
// provided no match is longer than Overlap bytes; longer matches are
// the scheme's documented blind spot (the same trade the BlueField-2
// DPU's 16 KiB jobs make). The equivalence is exact, not heuristic:
// within a window the scanner only finalises matches that start at
// least Overlap bytes before the window's end, and a leftmost-first
// attempt at such a start can only diverge from the one-shot attempt
// by matching past the window — which needs a match longer than the
// overlap.
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"

	"alveare/internal/arch"
)

// DefaultChunkSize is the refill granularity in bytes.
const DefaultChunkSize = 64 * 1024

// ErrSessionFinished reports a push into a stream that has already
// been finalised (its final window ran, the scan faulted, or emit
// stopped it) — the carry-over state is gone and cannot be resumed.
var ErrSessionFinished = errors.New("stream: session already finished")

// ReadError reports a stream-level failure at an absolute byte offset:
// a refill whose underlying reader failed, or a cancellation observed
// between windows. Offset is the stream position of the first byte that
// could not be processed, the exact point a caller can resume from.
type ReadError struct {
	Offset int64
	Err    error
}

func (e *ReadError) Error() string {
	return fmt.Sprintf("stream: read at offset %d: %v", e.Offset, e.Err)
}

func (e *ReadError) Unwrap() error { return e.Err }

// Finder is the execution interface a window scan drives: one leftmost
// search from a resume offset, honouring ctx. *arch.Core implements it;
// internal/core wraps cores with policy-applying finders (safe-engine
// fallback, skip containment) that slot in transparently.
type Finder interface {
	FindFromCtx(ctx context.Context, data []byte, from int) (arch.Match, bool, error)
}

// EmitFunc receives one match as it is finalised. text is the matched
// bytes inside the window buffer — valid only during the call; copy it
// to retain it. Returning false stops the scan.
type EmitFunc func(m arch.Match, text []byte) bool

// Counters accumulates stream-throughput telemetry: how many windows
// a scan searched, how many bytes it consumed, and how many matches it
// emitted. An engine keeps one across scans to roll up a whole
// session.
type Counters struct {
	Windows int64
	Bytes   int64
	Matches int64
}

// Carry is the overlap carry of one chunked scan: the buffered window
// (the carried tail plus the bytes added since) and its stream offset.
// Between windows only the unfinalised tail, at most Overlap bytes,
// stays resident. A Carry is single-goroutine.
type Carry struct {
	overlap int
	buf     []byte
	base    int // stream offset of buf[0]
}

// NewCarry opens an empty carry at stream offset 0. Non-positive
// overlap selects DefaultOverlap.
func NewCarry(overlap int) Carry {
	if overlap <= 0 {
		overlap = DefaultOverlap
	}
	return Carry{overlap: overlap}
}

// ResumeCarry rebuilds a carry whose window holds buf at stream offset
// base — the restore side of a checkpoint. The carry takes ownership
// of buf.
func ResumeCarry(overlap, base int, buf []byte) Carry {
	return Carry{overlap: overlap, buf: buf, base: base}
}

// Overlap returns the boundary carry in bytes — the longest match the
// scan is guaranteed to report identically to a one-shot scan.
func (c *Carry) Overlap() int { return c.overlap }

// Consumed returns the total stream bytes absorbed so far.
func (c *Carry) Consumed() int64 { return int64(c.base + len(c.buf)) }

// Buffered returns the resident window in bytes (at most Overlap
// between windows).
func (c *Carry) Buffered() int { return len(c.buf) }

// Window returns the buffered window and the stream offset of its
// first byte. The slice aliases the carry and is valid until the next
// Push, Pull refill or Cut.
func (c *Carry) Window() (buf []byte, base int) { return c.buf, c.base }

// grow extends the window by n bytes and returns that region for the
// caller to fill.
func (c *Carry) grow(n int) []byte {
	have := len(c.buf)
	if cap(c.buf) < have+n {
		nb := make([]byte, have, have+n+c.overlap)
		copy(nb, c.buf)
		c.buf = nb
	}
	c.buf = c.buf[:have+n]
	return c.buf[have:]
}

// Push appends chunk to the window: the push-mode refill.
func (c *Carry) Push(chunk []byte) { copy(c.grow(len(chunk)), chunk) }

// Pull is the pull-mode loop: it refills the window from r in
// chunk-sized reads (non-positive chunk selects DefaultChunkSize) and
// calls window after each, with the byte count the refill added and
// whether it reached EOF. ctx is checked before every refill. A
// cancellation or a failed read ends the loop with a *ReadError at
// Consumed, the first byte not processed; an error or a false cont
// from window ends it with that error. done is true when the final
// window ran and every window continued.
func (c *Carry) Pull(ctx context.Context, r io.Reader, chunk int, window func(nr int, final bool) (cont bool, err error)) (done bool, err error) {
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	for {
		if cerr := ctx.Err(); cerr != nil {
			return false, &ReadError{Offset: c.Consumed(), Err: cerr}
		}
		have := len(c.buf)
		nr, rerr := io.ReadFull(r, c.grow(chunk))
		c.buf = c.buf[:have+nr]
		final := false
		switch rerr {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			final = true
		default:
			return false, &ReadError{Offset: c.Consumed(), Err: rerr}
		}
		if cont, werr := window(nr, final); werr != nil || !cont {
			return false, werr
		}
		if final {
			return true, nil
		}
	}
}

// OwnEnd returns the stream offset where the window's owned region
// ends: a non-final window finalises only match starts before its last
// Overlap bytes, a final window owns everything.
func (c *Carry) OwnEnd(final bool) int {
	return ownEnd(c.base, c.base+len(c.buf), c.overlap, final)
}

// Skip returns where a resume offset pos moves when the window holds
// no match: past the owned region, or past the stream on the final
// window — exactly where a no-match ScanWindowCtx pass leaves it, so a
// window proven clean by a screen can skip the finder byte-identically.
func (c *Carry) Skip(pos int, final bool) int {
	return skip(pos, c.OwnEnd(final), c.base+len(c.buf), final)
}

// Cut carries the window's tail from stream offset from (clamped to
// the window) into the next window; every byte before it is done.
func (c *Carry) Cut(from int) {
	limit := c.base + len(c.buf)
	if from > limit {
		from = limit
	}
	if from < c.base {
		from = c.base
	}
	n := copy(c.buf, c.buf[from-c.base:])
	c.buf = c.buf[:n]
	c.base = from
}

func ownEnd(base, limit, overlap int, final bool) int {
	if final {
		return limit
	}
	return max(limit-overlap, base)
}

func skip(pos, ownEnd, limit int, final bool) int {
	if final {
		return limit + 1
	}
	return max(pos, ownEnd)
}

// ScanWindowCtx advances the one-shot FindAll resume discipline of one
// finder over one buffered window covering stream offsets
// [base, base+len(buf)). pos is the absolute resume offset (>= base);
// the updated offset is returned. When final is false the window only
// finalises matches starting before its last overlap bytes — later
// starts are re-searched by the caller's next window, which must begin
// at or before the returned offset. cont reports whether the scan
// should continue (emit returned true throughout and no execution
// error occurred). Execution errors carrying a window-relative offset
// (*arch.ExecError) are rebased to absolute stream offsets.
func ScanWindowCtx(ctx context.Context, f Finder, buf []byte, base int, final bool, overlap, pos int, emit EmitFunc) (npos int, cont bool, err error) {
	limit := base + len(buf)
	own := ownEnd(base, limit, overlap, final)
	for pos <= limit {
		if !final && pos >= own {
			break
		}
		m, ok, ferr := f.FindFromCtx(ctx, buf, pos-base)
		if ferr != nil {
			var ee *arch.ExecError
			if errors.As(ferr, &ee) && ee.Offset <= len(buf) {
				ferr = &arch.ExecError{Offset: base + ee.Offset, Cycle: ee.Cycle, Err: ee.Err}
			}
			return pos, false, ferr
		}
		if !ok {
			// No match anywhere in the window: every owned offset is
			// cleared (a match starting before the owned end would have
			// been wholly visible).
			pos = skip(pos, own, limit, final)
			break
		}
		start, end := base+m.Start, base+m.End
		if !final && start >= own {
			// Deferred: the match starts inside the carry region and is
			// re-found (with full read-ahead) by the next window. The
			// offsets before it hold no match start.
			pos = own
			break
		}
		keep := emit(arch.Match{Start: start, End: end}, buf[start-base:end-base])
		if end > start {
			pos = end
		} else {
			pos = end + 1 // empty match: advance one byte, as FindAll does
		}
		if !keep {
			return pos, false, nil
		}
	}
	return pos, true, nil
}

package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"alveare/internal/stream"
)

// ErrBadCheckpoint reports a stream checkpoint that failed structural
// validation — wrong version, unknown flags, truncation, trailing
// bytes, a rule count that disagrees with the restoring rule set, or
// offsets that violate the overlap-carry invariants. A checkpoint that
// decodes cleanly restores a stream whose future matches are
// byte-identical to the exporter's.
var ErrBadCheckpoint = errors.New("core: bad stream checkpoint")

// Stream checkpoint wire layout (version 1, big-endian):
//
//	u8  version (1)
//	u8  flags   (bit0: finished)
//	u32 overlap
//	u64 base    (stream offset of the first buffered byte)
//	u32 buffered length, then that many carry-window bytes
//	u32 rule count, then per rule:
//	    u8  rule flags (bit0: sticky/degraded, bit1: retired)
//	    u64 resume offset
//	    if retired: u16 error length, then that many error bytes
//
// The encoding is strict and self-delimiting: trailing bytes are an
// error, so a checkpoint embedded in a larger frame must be sliced
// exactly.
const (
	streamCkptVersion  = 1
	streamCkptFlagDone = 1 << 0

	streamCkptRuleSticky = 1 << 0
	streamCkptRuleDead   = 1 << 1

	streamCkptHeaderLen  = 1 + 1 + 4 + 8 + 4
	streamCkptMaxOffset  = 1 << 62 // u64→int safety fence
	streamCkptMaxOverlap = 1 << 30
	streamCkptMaxRules   = 1 << 20
)

// Export serialises the stream's resumable state — consumed offset,
// carry-window bytes, per-rule resume/degraded/retired state and
// config — as a small versioned checkpoint. Exported at a push
// boundary (after PushCtx returned), the checkpoint restored via
// RuleSet.RestoreStream on an equivalent rule set continues the flow
// with matches byte-identical to the uninterrupted stream.
//
// Retired rules keep their error text but lose its concrete type: a
// restored stream's FinishCtx reports the same message, not the same
// errors.Is identity.
func (st *Stream) Export() []byte {
	n := len(st.pos)
	buf, base := st.carry.Window()
	limit := base + len(buf)
	size := streamCkptHeaderLen + len(buf) + 4 + n*9
	msgs := make([]string, n)
	for i := 0; i < n; i++ {
		if st.dead[i] != nil {
			msg := st.dead[i].Error()
			if len(msg) > 0xFFFF {
				msg = msg[:0xFFFF]
			}
			msgs[i] = msg
			size += 2 + len(msg)
		}
	}
	out := make([]byte, 0, size)
	out = append(out, streamCkptVersion)
	var flags byte
	if st.done {
		flags |= streamCkptFlagDone
	}
	out = append(out, flags)
	out = binary.BigEndian.AppendUint32(out, uint32(st.Overlap()))
	out = binary.BigEndian.AppendUint64(out, uint64(base))
	out = binary.BigEndian.AppendUint32(out, uint32(len(buf)))
	out = append(out, buf...)
	out = binary.BigEndian.AppendUint32(out, uint32(n))
	for i := 0; i < n; i++ {
		var rf byte
		pos := st.pos[i]
		if st.sticky[i] {
			rf |= streamCkptRuleSticky
		}
		if st.dead[i] != nil {
			rf |= streamCkptRuleDead
			// A retired rule's frozen resume offset can sit below the
			// current base (the carry moved on without it); it is never
			// consulted again, so normalise it to the window limit where
			// the restore-side invariants hold.
			pos = limit
		}
		out = append(out, rf)
		out = binary.BigEndian.AppendUint64(out, uint64(pos))
		if st.dead[i] != nil {
			out = binary.BigEndian.AppendUint16(out, uint16(len(msgs[i])))
			out = append(out, msgs[i]...)
		}
	}
	return out
}

// ckptHeader is a stream checkpoint's decoded header: everything up
// to and including the rule count. rules is the per-rule records that
// follow it.
type ckptHeader struct {
	done    bool
	overlap uint32
	base    uint64
	window  []byte // aliases the checkpoint
	nrules  uint32
	rules   []byte
}

// decodeCkptHeader parses and validates a checkpoint's header — the
// one decoder RestoreStream and PeekCheckpoint share, so a header one
// of them rejects the other rejects too.
func decodeCkptHeader(cp []byte) (ckptHeader, error) {
	var h ckptHeader
	if len(cp) < streamCkptHeaderLen {
		return h, fmt.Errorf("%w: %d bytes, want >= %d", ErrBadCheckpoint, len(cp), streamCkptHeaderLen)
	}
	if cp[0] != streamCkptVersion {
		return h, fmt.Errorf("%w: version %d", ErrBadCheckpoint, cp[0])
	}
	if cp[1]&^byte(streamCkptFlagDone) != 0 {
		return h, fmt.Errorf("%w: unknown flags 0x%02x", ErrBadCheckpoint, cp[1])
	}
	h.done = cp[1]&streamCkptFlagDone != 0
	h.overlap = binary.BigEndian.Uint32(cp[2:6])
	h.base = binary.BigEndian.Uint64(cp[6:14])
	blen := uint64(binary.BigEndian.Uint32(cp[14:18]))
	if h.overlap == 0 || h.overlap > streamCkptMaxOverlap {
		return h, fmt.Errorf("%w: overlap %d", ErrBadCheckpoint, h.overlap)
	}
	if h.base > streamCkptMaxOffset {
		return h, fmt.Errorf("%w: offset overflow", ErrBadCheckpoint)
	}
	if !h.done && blen > uint64(h.overlap) {
		return h, fmt.Errorf("%w: %d buffered bytes exceed overlap %d", ErrBadCheckpoint, blen, h.overlap)
	}
	off := streamCkptHeaderLen + blen
	if uint64(len(cp)) < off+4 {
		return h, fmt.Errorf("%w: truncated carry window", ErrBadCheckpoint)
	}
	h.window = cp[streamCkptHeaderLen:off]
	h.nrules = binary.BigEndian.Uint32(cp[off : off+4])
	if h.nrules > streamCkptMaxRules {
		return h, fmt.Errorf("%w: rule count %d", ErrBadCheckpoint, h.nrules)
	}
	h.rules = cp[off+4:]
	return h, nil
}

// RestoreStream rebuilds a push-mode stream from an Export checkpoint.
// The rule set must be equivalent to the exporter's (same rules in the
// same order — the rule count is verified, the patterns are the
// caller's contract, e.g. the gateway's generation fence). Garbage
// input yields ErrBadCheckpoint, never a panic or a stream that
// silently diverges.
func (rs *RuleSet) RestoreStream(cp []byte) (*Stream, error) {
	h, err := decodeCkptHeader(cp)
	if err != nil {
		return nil, err
	}
	nrules := h.nrules
	if int(nrules) != rs.Len() {
		return nil, fmt.Errorf("%w: checkpoint has %d rules, rule set has %d", ErrBadCheckpoint, nrules, rs.Len())
	}
	base := h.base
	limit := base + uint64(len(h.window))
	posMax := limit
	if h.done {
		posMax = limit + 1
	}
	pos := make([]int, nrules)
	sticky := make([]bool, nrules)
	dead := make([]error, nrules)
	cp = h.rules
	off := uint64(0)
	for i := uint32(0); i < nrules; i++ {
		if uint64(len(cp)) < off+9 {
			return nil, fmt.Errorf("%w: truncated rule %d", ErrBadCheckpoint, i)
		}
		rf := cp[off]
		if rf&^byte(streamCkptRuleSticky|streamCkptRuleDead) != 0 {
			return nil, fmt.Errorf("%w: rule %d unknown flags 0x%02x", ErrBadCheckpoint, i, rf)
		}
		p := binary.BigEndian.Uint64(cp[off+1 : off+9])
		off += 9
		if p > streamCkptMaxOffset {
			return nil, fmt.Errorf("%w: rule %d offset overflow", ErrBadCheckpoint, i)
		}
		if p < base || p > limit+1 {
			return nil, fmt.Errorf("%w: rule %d pos %d outside [%d,%d]", ErrBadCheckpoint, i, p, base, limit+1)
		}
		if rf&streamCkptRuleDead == 0 && p > posMax {
			return nil, fmt.Errorf("%w: rule %d pos %d past limit %d", ErrBadCheckpoint, i, p, posMax)
		}
		pos[i] = int(p)
		sticky[i] = rf&streamCkptRuleSticky != 0
		if rf&streamCkptRuleDead != 0 {
			if uint64(len(cp)) < off+2 {
				return nil, fmt.Errorf("%w: truncated rule %d error", ErrBadCheckpoint, i)
			}
			mlen := uint64(binary.BigEndian.Uint16(cp[off : off+2]))
			off += 2
			if uint64(len(cp)) < off+mlen {
				return nil, fmt.Errorf("%w: truncated rule %d error text", ErrBadCheckpoint, i)
			}
			dead[i] = errors.New(string(cp[off : off+mlen]))
			off += mlen
		}
	}
	if off != uint64(len(cp)) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadCheckpoint, uint64(len(cp))-off)
	}
	return &Stream{
		rs:     rs,
		carry:  stream.ResumeCarry(int(h.overlap), int(base), append([]byte(nil), h.window...)),
		pos:    pos,
		sticky: sticky,
		dead:   dead,
		done:   h.done,
	}, nil
}

// CheckpointInfo is the header summary of a stream checkpoint, parsed
// without a rule set — what a relay (the gateway) needs to reason about
// a checkpoint it cannot restore itself: the consumed offset and the
// resident carry window, whose difference is the finalised prefix
// (every match already delivered starts before it).
type CheckpointInfo struct {
	Consumed uint64 // total stream bytes absorbed at export time
	Buffered uint64 // resident carry-window bytes
	Overlap  uint32
	Rules    uint32
	Done     bool
}

// PeekCheckpoint parses a stream checkpoint's header without restoring
// it. It rejects every header RestoreStream rejects; the per-rule
// records and their count against a rule set are not checked.
func PeekCheckpoint(cp []byte) (CheckpointInfo, error) {
	h, err := decodeCkptHeader(cp)
	if err != nil {
		return CheckpointInfo{}, err
	}
	return CheckpointInfo{
		Consumed: h.base + uint64(len(h.window)),
		Buffered: uint64(len(h.window)),
		Overlap:  h.overlap,
		Rules:    h.nrules,
		Done:     h.done,
	}, nil
}

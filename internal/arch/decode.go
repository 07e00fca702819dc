package arch

import "alveare/internal/isa"

// Decoded micro-ops: the software counterpart of the decode units
// (paper §6 (B)). NewCore decodes each validated instruction once, at
// load time, into a 16-byte micro-op that holds exactly what the
// execution loop needs: a dispatch class, the fused close, the
// operands, and jump targets resolved to absolute program counters.
// Single-character base operators (OR, RANGE, their NOT compositions,
// and one-byte AND) become a test against a 256-bit byte set kept in a
// side table. The decoded program is read-only and shared by every
// clone of the core. The 43-bit encoding (docs/ISA.md) and isa.Instr
// stay the canonical form; tracers and disassembly read those.

// opKind is a micro-op's dispatch class.
type opKind uint8

const (
	opInvalid   opKind = iota // undecodable (never produced from a validated program)
	opEoR                     // End of RE: the attempt matched
	opOpenQuant               // "(" with counters: push a counter frame, run the boundary decision
	opOpenGroup               // "(" without counters: alternation chain or alternative sub-RE
	opSet                     // one-character base test against a byte set, optionally fused with a close
	opAND                     // multi-character AND literal, optionally fused with a close
	opClose                   // standalone closing operator
)

// Micro-op flags.
const (
	flagLazy  uint8 = 1 << iota // open-quant: lazy modality
	flagChain                   // base without close followed by a standalone ")|"
)

// unboundedMax marks an open-quant micro-op without an upper bound.
const unboundedMax = 0xFF

// uop is one decoded micro-op (16 bytes):
//
//   - opSet: arg indexes the byte set in the side table; a hit
//     consumes n = 1 byte.
//   - opAND: lit holds the n (2..4) literal bytes a hit consumes.
//   - opOpenGroup: exit is the first pc after the sub-RE; arg is the
//     next alternative's OPEN, -1 when none.
//   - opOpenQuant: exit as above; lit[0] is the minimum count and
//     lit[1] the maximum (unboundedMax when none).
type uop struct {
	kind  opKind
	close isa.CloseOp // fused (base) or standalone (opClose) closing operator
	flags uint8
	n     uint8
	lit   [4]byte
	exit  int32
	arg   int32
}

// qmin is an open-quant micro-op's minimum count.
func (op *uop) qmin() int { return int(op.lit[0]) }

// qmax is an open-quant micro-op's maximum count, -1 when unbounded.
func (op *uop) qmax() int {
	if op.lit[1] == unboundedMax {
		return -1
	}
	return int(op.lit[1])
}

// isBase reports whether the micro-op carries a base operation.
func (op *uop) isBase() bool { return op.kind == opSet || op.kind == opAND }

// byteSet is a 256-bit character set.
type byteSet [4]uint64

func (s *byteSet) add(c byte) { s[c>>6] |= 1 << (c & 63) }

func (s *byteSet) has(c byte) bool { return s[c>>6]&(1<<(c&63)) != 0 }

// decode turns a validated program into its micro-ops and the byte
// sets its class ops test.
func decode(code []isa.Instr) ([]uop, []byteSet) {
	ops := make([]uop, len(code))
	var sets []byteSet
	for pc := range code {
		in := &code[pc]
		op := &ops[pc]
		op.close = in.Close
		switch {
		case in.IsEoR():
			op.kind = opEoR
		case in.Open:
			op.exit = int32(pc + in.Fwd)
			op.arg = -1
			if in.MinEn || in.MaxEn {
				op.kind = opOpenQuant
				if in.MinEn {
					op.lit[0] = in.Min
				}
				op.lit[1] = unboundedMax
				if in.MaxEn && in.Max != isa.Unbounded {
					op.lit[1] = in.Max
				}
				if in.Lazy {
					op.flags |= flagLazy
				}
				break
			}
			op.kind = opOpenGroup
			if in.BwdEn {
				op.arg = int32(pc + in.Bwd)
			}
		case in.HasBase():
			op.n = uint8(in.Consumes())
			if in.Base == isa.BaseAND && in.NChars > 1 {
				op.kind = opAND
				op.lit = in.Chars
			} else {
				op.kind = opSet
				op.arg = int32(len(sets))
				sets = append(sets, baseSet(in))
			}
			if in.Close == isa.CloseNone && pc+1 < len(code) {
				next := &code[pc+1]
				if !next.HasBase() && !next.Open && next.Close == isa.CloseAlt {
					op.flags |= flagChain
				}
			}
		case in.Close != isa.CloseNone:
			op.kind = opClose
		default:
			op.kind = opInvalid
		}
	}
	return ops, sets
}

// baseSet is the set of bytes a one-character base instruction hits,
// NOT composition included.
func baseSet(in *isa.Instr) byteSet {
	var s byteSet
	switch in.Base {
	case isa.BaseRANGE:
		for i := 0; i+1 < in.NChars; i += 2 {
			for c := int(in.Chars[i]); c <= int(in.Chars[i+1]); c++ {
				s.add(byte(c))
			}
		}
	default: // OR, one-byte AND
		for _, c := range in.Chars[:in.NChars] {
			s.add(c)
		}
	}
	if in.Not {
		for i := range s {
			s[i] = ^s[i]
		}
	}
	return s
}

// matchAND reports whether the AND literal op hits at data[dp:].
func (op *uop) matchAND(data []byte, dp int) bool {
	n := int(op.n)
	if dp > len(data)-n {
		return false
	}
	for i, c := range data[dp : dp+n] {
		if c != op.lit[i] {
			return false
		}
	}
	return true
}

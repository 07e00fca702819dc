package arch

import (
	"math/rand"
	"testing"
	"unsafe"

	"alveare/internal/isa"
)

// TestMicroOpSize pins the decoded form's footprint: at most 16 bytes
// per micro-op and 32 per speculation frame.
func TestMicroOpSize(t *testing.T) {
	if n := unsafe.Sizeof(uop{}); n > 16 {
		t.Errorf("micro-op is %d bytes, want <= 16", n)
	}
	if n := unsafe.Sizeof(frame{}); n > 32 {
		t.Errorf("frame is %d bytes, want <= 32", n)
	}
}

// TestDecodedBaseMatchesISA checks every decoded base operation
// against the canonical evaluator, isa.Instr.MatchBase, on random
// instructions of each class (NOT compositions, one- and two-range
// RANGE, one- to four-byte OR and AND) at every byte value and at
// every position near the end of the data.
func TestDecodedBaseMatchesISA(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 2000; trial++ {
		in := isa.Instr{Base: isa.BaseOp(1 + r.Intn(3))}
		switch in.Base {
		case isa.BaseRANGE:
			in.NChars = 2 + 2*r.Intn(2)
			for i := 0; i < in.NChars; i += 2 {
				lo, hi := byte(r.Intn(256)), byte(r.Intn(256))
				if lo > hi {
					lo, hi = hi, lo
				}
				in.Chars[i], in.Chars[i+1] = lo, hi
			}
			in.Not = r.Intn(2) == 0
		default:
			in.NChars = 1 + r.Intn(4)
			for i := 0; i < in.NChars; i++ {
				in.Chars[i] = "abc\x00\xff"[r.Intn(5)]
			}
			in.Not = in.Base == isa.BaseOR && r.Intn(2) == 0
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("%v: %v", in, err)
		}
		ops, sets := decode([]isa.Instr{in, {}})
		op := &ops[0]
		if want := in.Consumes(); int(op.n) != want {
			t.Fatalf("%v: decoded width %d, want %d", in, op.n, want)
		}
		data := make([]byte, 6)
		for c := 0; c < 256; c++ {
			for i := range data {
				data[i] = "abc\x00\xff"[r.Intn(5)]
			}
			data[0] = byte(c)
			for dp := 0; dp <= len(data); dp++ {
				_, want := in.MatchBase(data[dp:])
				var got bool
				if op.kind == opSet {
					got = dp < len(data) && sets[op.arg].has(data[dp])
				} else {
					got = op.matchAND(data, dp)
				}
				if got != want {
					t.Fatalf("%v on %q at %d: decoded %v, isa %v", in, data, dp, got, want)
				}
			}
		}
	}
}

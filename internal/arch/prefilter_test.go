package arch

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"alveare/internal/backend"
	"alveare/internal/isa"
)

// The compiler attaches a necessary-factor hint (isa.Program.Hint) to
// programs; the cross-rule literal prefilter in internal/prefilter
// dispatches on it. The exact engine does not read it. These tests pin
// both halves of that contract against the exact engine.

var hintPatterns = []string{
	"(GET|POST) /index",
	"(foo|bar)baz",
	"(a|b){2}needle[0-9]?",
	"(x|y)?WORD",
	"(alpha|beta|gamma)-tail",
	"(a|bb)END",
}

// hintInputs are random concatenations of pieces that do and do not
// complete the hint patterns.
func hintInputs(seed int64, n int) [][]byte {
	r := rand.New(rand.NewSource(seed))
	pieces := []string{"GET /index", "POST /index", "foobaz", "barbaz", "abneedle7",
		"xWORD", "WORD", "beta-tail", " ", "noise", "GET /x", "baz", "needle", "aEND", "bbEND", "EN"}
	out := make([][]byte, n)
	for i := range out {
		var sb strings.Builder
		for j := 0; j < r.Intn(8); j++ {
			sb.WriteString(pieces[r.Intn(len(pieces))])
		}
		out[i] = []byte(sb.String())
	}
	return out
}

// TestPrefilterEquivalence: the hint is metadata. A program with its
// hint and the same program with the hint stripped produce the same
// matches and the same cycle-level counters.
func TestPrefilterEquivalence(t *testing.T) {
	for _, re := range hintPatterns {
		hinted, err := backend.Compile(re, backend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if hinted.Hint == nil {
			t.Fatalf("%q: compiler attached no hint", re)
		}
		bare := &isa.Program{Source: hinted.Source, Code: hinted.Code}
		for _, data := range hintInputs(61, 50) {
			a, err := NewCore(hinted, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewCore(bare, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			ma, erra := a.FindAll(data, 0)
			mb, errb := b.FindAll(data, 0)
			if erra != nil || errb != nil {
				t.Fatal(erra, errb)
			}
			if len(ma) != len(mb) {
				t.Fatalf("%q on %q: hinted %v, bare %v", re, data, ma, mb)
			}
			for i := range ma {
				if ma[i] != mb[i] {
					t.Fatalf("%q on %q: hinted %v, bare %v", re, data, ma, mb)
				}
			}
			if a.Stats() != b.Stats() {
				t.Fatalf("%q on %q: hinted stats %+v, bare %+v", re, data, a.Stats(), b.Stats())
			}
		}
	}
}

// TestPrefilterMissesNothingAtBoundaries: the hint is sound. Every
// match the exact engine reports contains the hint literal starting
// between PreMin and PreMax bytes after the match start, including
// matches at the very start and end of the stream, so a prefilter
// that dispatches a rule only where its literal occurs misses nothing.
func TestPrefilterMissesNothingAtBoundaries(t *testing.T) {
	edges := [][]byte{[]byte("aEND"), []byte("bbEND"), []byte("aENDtail"), []byte("xxaEND"),
		[]byte("END"), []byte("aEN"), []byte("GET /index"), []byte("xWORD")}
	inputs := append(edges, hintInputs(62, 50)...)
	for _, re := range hintPatterns {
		p, err := backend.Compile(re, backend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		h := p.Hint
		c, err := NewCore(p, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, data := range inputs {
			ms, err := c.FindAll(data, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ms {
				span := data[m.Start:m.End]
				if !bytes.Contains(span, h.Literal) {
					t.Fatalf("%q on %q: match %v lacks hint literal %q", re, data, m, h.Literal)
				}
				if h.PreMax < 0 {
					continue
				}
				found := false
				for k := h.PreMin; k <= h.PreMax && !found; k++ {
					found = bytes.HasPrefix(span[min(k, len(span)):], h.Literal)
				}
				if !found {
					t.Fatalf("%q on %q: match %v has no %q within [%d,%d] of its start",
						re, data, m, h.Literal, h.PreMin, h.PreMax)
				}
			}
		}
	}
}

package stream_test

// A streaming session's state is a core.Stream: the shared Carry plus
// per-rule resume offsets, saved and restored by the one v1 checkpoint
// codec (core's Export / RestoreStream). These tests pin that codec at
// the carry layer, on one-rule streams.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"alveare/internal/arch"
	"alveare/internal/backend"
	"alveare/internal/core"
	"alveare/internal/stream"
)

func ruleSet(t *testing.T, re string, overlap int) *core.RuleSet {
	t.Helper()
	rs, err := core.NewRuleSet([]string{re}, backend.Options{}, core.WithOverlap(overlap))
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func keepAll(out *[]arch.Match) func(int, arch.Match, []byte) bool {
	return func(_ int, m arch.Match, _ []byte) bool { *out = append(*out, m); return true }
}

// pushRest pushes data[from:] in chunk-sized pieces and finishes.
func pushRest(t *testing.T, st *core.Stream, data []byte, from, chunk int, emit func(int, arch.Match, []byte) bool) {
	t.Helper()
	for off := from; off < len(data); off += chunk {
		end := min(off+chunk, len(data))
		if _, err := st.PushCtx(context.Background(), data[off:end], emit); err != nil {
			t.Fatalf("Push(off=%d): %v", off, err)
		}
	}
	if _, err := st.FinishCtx(context.Background(), emit); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestSessionExportRestoreEveryBoundary is the checkpoint property at
// the carry layer: exporting at ANY push boundary and restoring into a
// fresh stream must finish with exactly the matches the uninterrupted
// stream would have emitted — same offsets, same order, for chunk
// sizes above and below the overlap and for overlaps small enough to
// exercise the blind-spot edge. The restored and uninterrupted runs
// share chunk boundaries, so the equivalence is exact for every
// overlap, blind spot included.
func TestSessionExportRestoreEveryBoundary(t *testing.T) {
	data := []byte("..axb..axxxxxxxxb..ax..axxb-axxxb=axb axxxxb..b..axxxxxxxxxxxxb..")
	for _, overlap := range []int{4, 8, 64} {
		rs := ruleSet(t, "ax+b", overlap)
		for _, chunk := range []int{1, 3, 7, 16, len(data) + 1} {
			t.Run(fmt.Sprintf("overlap=%d/chunk=%d", overlap, chunk), func(t *testing.T) {
				var want []arch.Match
				pushRest(t, rs.NewStream(0), data, 0, chunk, keepAll(&want))
				// Walk one prefix stream across the data; at every push
				// boundary, export it, restore a twin, and let the twin
				// finish the remainder.
				prefix := rs.NewStream(0)
				var before []arch.Match
				for off := 0; off <= len(data); off += chunk {
					end := min(off+chunk, len(data))
					if off < len(data) {
						if _, err := prefix.PushCtx(context.Background(), data[off:end], keepAll(&before)); err != nil {
							t.Fatalf("Push(off=%d): %v", off, err)
						}
					}
					twin, err := rs.RestoreStream(prefix.Export())
					if err != nil {
						t.Fatalf("RestoreStream at boundary %d: %v", end, err)
					}
					if twin.Overlap() != prefix.Overlap() || twin.Consumed() != prefix.Consumed() || twin.Buffered() != prefix.Buffered() {
						t.Fatalf("boundary %d: restored overlap/consumed/buffered %d/%d/%d, exporter %d/%d/%d", end,
							twin.Overlap(), twin.Consumed(), twin.Buffered(), prefix.Overlap(), prefix.Consumed(), prefix.Buffered())
					}
					got := append([]arch.Match(nil), before...)
					pushRest(t, twin, data, end, chunk, keepAll(&got))
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("boundary %d: restored continuation diverged: got %d matches %v, want %d %v",
							end, len(got), got, len(want), want)
					}
					if off+chunk > len(data) {
						break
					}
				}
			})
		}
	}
}

// TestSessionRestoreFinished pins the done-flag round trip: a finished
// stream exports a checkpoint that restores to a finished stream,
// which refuses further pushes instead of silently rescanning.
func TestSessionRestoreFinished(t *testing.T) {
	rs := ruleSet(t, "ab", 4)
	st := rs.NewStream(0)
	var drop []arch.Match
	pushRest(t, st, []byte("xaby"), 0, 4, keepAll(&drop))
	twin, err := rs.RestoreStream(st.Export())
	if err != nil {
		t.Fatalf("RestoreStream(finished): %v", err)
	}
	if !twin.Finished() {
		t.Fatal("restored stream lost the finished flag")
	}
	if _, err := twin.PushCtx(context.Background(), []byte("ab"), keepAll(&drop)); !errors.Is(err, stream.ErrSessionFinished) {
		t.Fatalf("push into restored finished stream: err %v, want ErrSessionFinished", err)
	}
}

// TestSessionRestoreGarbage feeds the restorer structurally broken
// checkpoints; every one must answer ErrBadCheckpoint — never a panic,
// never a stream built on corrupt state.
func TestSessionRestoreGarbage(t *testing.T) {
	rs := ruleSet(t, "ab", 8)
	st := rs.NewStream(0)
	var drop []arch.Match
	if _, err := st.PushCtx(context.Background(), []byte("zzzzabzzzz"), keepAll(&drop)); err != nil {
		t.Fatal(err)
	}
	// Layout: version, flags, u32 overlap, u64 base, u32 window length
	// (8), the 8-byte window, u32 rule count, then rule 0's flags and
	// u64 resume offset.
	valid := st.Export()
	mutate := func(f func(cp []byte) []byte) []byte {
		cp := append([]byte(nil), valid...)
		return f(cp)
	}
	cases := map[string][]byte{
		"empty":        {},
		"short":        valid[:17],
		"bad version":  mutate(func(cp []byte) []byte { cp[0] = 99; return cp }),
		"bad flags":    mutate(func(cp []byte) []byte { cp[1] = 0xF0; return cp }),
		"trailing":     append(append([]byte(nil), valid...), 0),
		"zero overlap": mutate(func(cp []byte) []byte { cp[2], cp[3], cp[4], cp[5] = 0, 0, 0, 0; return cp }),
		"pos < base":   mutate(func(cp []byte) []byte { cp[13] = 0xF0; return cp }),
		"length lie":   mutate(func(cp []byte) []byte { cp[17]++; return cp }),
		"rule count":   mutate(func(cp []byte) []byte { cp[29]++; return cp }),
	}
	for name, cp := range cases {
		if _, err := rs.RestoreStream(cp); !errors.Is(err, core.ErrBadCheckpoint) {
			t.Errorf("%s: err %v, want ErrBadCheckpoint", name, err)
		}
	}
	// The valid checkpoint still restores after all that mutation —
	// mutate copied, the battery did not corrupt its own baseline.
	if _, err := rs.RestoreStream(valid); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
}

package arch

import (
	"strings"
	"testing"

	"alveare/internal/backend"
)

// TestResetRecyclesCore locks down the pooled-core contract: Reset
// clears counters and data references but keeps the speculation-stack
// arenas, and a recycled core behaves cycle-identically to a fresh one
// on its next input.
func TestResetRecyclesCore(t *testing.T) {
	p, err := backend.Compile("(a|b)*c", backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	core, err := NewCore(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in1 := []byte(strings.Repeat("ab", 200) + "c" + strings.Repeat("ba", 50))
	if _, err := core.FindAll(in1, 0); err != nil {
		t.Fatal(err)
	}
	if core.Stats().Cycles == 0 || core.Stats().Speculations == 0 {
		t.Fatalf("first run recorded no work: %+v", core.Stats())
	}
	framesCap := cap(core.scratch.frames)
	choicesCap := cap(core.scratch.choices)
	if choicesCap == 0 {
		t.Fatal("speculative pattern grew no choice stack")
	}

	core.Reset()
	if core.Stats() != (Stats{}) {
		t.Errorf("Reset left counters: %+v", core.Stats())
	}
	if core.scratch.data != nil {
		t.Error("Reset retained a reference to the previous input")
	}
	if cap(core.scratch.frames) != framesCap || cap(core.scratch.choices) != choicesCap {
		t.Errorf("Reset dropped arena capacity: frames %d->%d choices %d->%d",
			framesCap, cap(core.scratch.frames), choicesCap, cap(core.scratch.choices))
	}

	// The recycled core must be indistinguishable from a fresh one on a
	// new input: same matches, same counters (the model is cycle-exact).
	in2 := []byte("xx" + strings.Repeat("ba", 120) + "bc yy abc")
	fresh, err := NewCore(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gotM, err := core.FindAll(in2, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantM, err := fresh.FindAll(in2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotM) != len(wantM) {
		t.Fatalf("recycled %v, fresh %v", gotM, wantM)
	}
	for i := range gotM {
		if gotM[i] != wantM[i] {
			t.Fatalf("recycled %v, fresh %v", gotM, wantM)
		}
	}
	if core.Stats() != fresh.Stats() {
		t.Errorf("recycled counters diverge:\nrecycled %+v\nfresh    %+v", core.Stats(), fresh.Stats())
	}
}

// TestReusedCoreScanIsAllocationFree verifies the cheap-reuse path the
// sync.Pool recycling depends on: once the arenas have grown, repeated
// speculative scans on the same core allocate nothing.
func TestReusedCoreScanIsAllocationFree(t *testing.T) {
	p, err := backend.Compile("(a|b)+x", backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	core, err := NewCore(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(strings.Repeat("ab", 300)) // speculates, never matches
	// Warm-up grows the frame, choice and snapshot arenas.
	if _, err := core.FindAll(data, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		core.Reset()
		if _, err := core.FindAll(data, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("reused core allocates %.1f objects per no-match scan, want 0", allocs)
	}
}

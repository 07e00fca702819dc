// Differential battery for the service-side streaming protocol: a
// SESSION-OPEN/DATA/CLOSE stream through a real TCP server must be
// byte-identical to the local engine's streaming scan over the same
// concatenated bytes — for arbitrary frame splits, for the overlap
// edge cases (a carry of one byte, a carry larger than the whole
// stream), and with the lazy-DFA fast path both on and off. SCAN-BATCH
// gets the same treatment against per-item one-shot scans. These run
// under `make difftest` alongside the engine-level battery.
package alveare_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"testing"

	"alveare/internal/backend"
	"alveare/internal/core"
	"alveare/internal/server"
	"alveare/internal/server/client"
)

// diffSessRules mixes literals, classes, counters and alternation so
// matches routinely span more bytes than the small frame splits the
// battery pushes — every boundary case has to ride the overlap carry.
var diffSessRules = []string{
	"ab+c",
	"needle",
	"x[0-9]+y",
	"(GET|POST) /[a-z/]+",
	"a{2,4}b",
}

// diffSessPayload builds a seeded corpus dense in straddle-prone
// material: long single matches, half-written witnesses, filler.
func diffSessPayload(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	pieces := []string{
		"abc", "abbbbbbbbbbbbbbbbc", "needle", "x1234567y",
		"GET /index/html", "POST /a/b/c", "aaab", "aab",
		"nee", "ab", "x9", "GET ", "...", "filler filler ",
	}
	var b bytes.Buffer
	for b.Len() < n {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.Bytes()
}

// sortRuleMatches orders service matches for set comparison: the wire
// reports matches window-major, the local engines rule-major, so every
// equality check in this battery compares sorted sets.
func sortRuleMatches(ms []server.RuleMatch) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Rule != ms[j].Rule {
			return ms[i].Rule < ms[j].Rule
		}
		if ms[i].Start != ms[j].Start {
			return ms[i].Start < ms[j].Start
		}
		return ms[i].End < ms[j].End
	})
}

// diffLocalRuleSet compiles the battery's rules locally, the ground
// truth the service is measured against.
func diffLocalRuleSet(t testing.TB, overlap int) *core.RuleSet {
	t.Helper()
	opts := []core.Option{core.WithDFA()}
	if overlap > 0 {
		opts = append(opts, core.WithOverlap(overlap))
	}
	rs, err := core.NewRuleSet(diffSessRules, backend.Options{}, opts...)
	if err != nil {
		t.Fatalf("NewRuleSet: %v", err)
	}
	return rs
}

// diffLocalStream is the oracle: the local streaming scan (pull mode)
// over the same payload and overlap. chunkSize <= 0 keeps the default
// refill granularity — deliberately DIFFERENT from the frame splits
// the service tests push, which is valid whenever the overlap covers
// the longest match (the chunking-invariance condition). Tests that
// shrink the overlap below the longest match must pass the service's
// frame size here instead: the blind spot depends on where the window
// boundaries fall, so byte-identity is only promised for the same
// chunking.
func diffLocalStream(t testing.TB, payload []byte, overlap, chunkSize int) []server.RuleMatch {
	t.Helper()
	opts := []core.Option{core.WithDFA()}
	if overlap > 0 {
		opts = append(opts, core.WithOverlap(overlap))
	}
	if chunkSize > 0 {
		opts = append(opts, core.WithChunkSize(chunkSize))
	}
	rs, err := core.NewRuleSet(diffSessRules, backend.Options{}, opts...)
	if err != nil {
		t.Fatalf("NewRuleSet: %v", err)
	}
	var want []server.RuleMatch
	if _, err := rs.ScanReaderCtx(context.Background(), bytes.NewReader(payload),
		func(rule int, m core.Match, _ []byte) bool {
			want = append(want, server.RuleMatch{Rule: uint32(rule), Start: uint64(m.Start), End: uint64(m.End)})
			return true
		}); err != nil {
		t.Fatalf("ScanReaderCtx: %v", err)
	}
	sortRuleMatches(want)
	return want
}

// diffLocalOneShot is the one-shot oracle for batch items.
func diffLocalOneShot(t testing.TB, rs *core.RuleSet, payload []byte) []server.RuleMatch {
	t.Helper()
	rms, err := rs.ScanCtx(context.Background(), payload)
	if err != nil {
		t.Fatalf("ScanCtx: %v", err)
	}
	var want []server.RuleMatch
	for _, rm := range rms {
		if rm.Err != nil {
			t.Fatalf("rule %d: %v", rm.Rule, rm.Err)
		}
		for _, m := range rm.Matches {
			want = append(want, server.RuleMatch{Rule: uint32(rm.Rule), Start: uint64(m.Start), End: uint64(m.End)})
		}
	}
	sortRuleMatches(want)
	return want
}

// diffStartService boots a real TCP scan server plus a client against
// it, both torn down with the test.
func diffStartService(t testing.TB, cfg server.Config) *client.Client {
	t.Helper()
	if cfg.Rules == nil {
		cfg.Rules = diffSessRules
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// diffSessionScan pushes payload through one service session in
// chunk-sized frames and returns the sorted matches plus the total
// bytes the server acknowledged.
func diffSessionScan(t testing.TB, c *client.Client, payload []byte, chunk, overlap int) ([]server.RuleMatch, uint64) {
	t.Helper()
	sess, err := c.OpenSession(overlap)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	var got []server.RuleMatch
	for off := 0; off < len(payload); off += chunk {
		end := off + chunk
		if end > len(payload) {
			end = len(payload)
		}
		ms, _, err := sess.Write(payload[off:end])
		if err != nil {
			t.Fatalf("Write(off=%d): %v", off, err)
		}
		got = append(got, ms...)
	}
	ms, consumed, err := sess.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	got = append(got, ms...)
	sortRuleMatches(got)
	return got, consumed
}

func diffMatchesEqual(a, b []server.RuleMatch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDifferentialSessionChunking: the tentpole invariant end to end.
// One 32 KiB corpus, frame splits from 7 bytes to a single oversized
// frame, the lazy-DFA fast path on and off — every combination must
// reproduce the local streaming scan exactly, matches that straddle
// frame boundaries included.
func TestDifferentialSessionChunking(t *testing.T) {
	payload := diffSessPayload(1, 32<<10)
	want := diffLocalStream(t, payload, 0, 0)
	if len(want) == 0 {
		t.Fatal("corpus produced no matches; the differential would be vacuous")
	}
	for _, nodfa := range []bool{false, true} {
		t.Run(fmt.Sprintf("nodfa=%v", nodfa), func(t *testing.T) {
			c := diffStartService(t, server.Config{NoDFA: nodfa})
			for _, chunk := range []int{7, 64, 1024, 1 << 20} {
				t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
					got, consumed := diffSessionScan(t, c, payload, chunk, 0)
					if consumed != uint64(len(payload)) {
						t.Fatalf("consumed %d bytes, pushed %d", consumed, len(payload))
					}
					if !diffMatchesEqual(got, want) {
						t.Fatalf("session matches diverge from local streaming:\n got %d matches %v\nwant %d matches %v",
							len(got), head(got), len(want), head(want))
					}
				})
			}
		})
	}
}

// TestDifferentialSessionTinyFrames drives the degenerate splits — one
// to five bytes per frame — over a smaller corpus, where every match
// straddles many frames.
func TestDifferentialSessionTinyFrames(t *testing.T) {
	payload := diffSessPayload(2, 2<<10)
	want := diffLocalStream(t, payload, 0, 0)
	c := diffStartService(t, server.Config{})
	for _, chunk := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			got, consumed := diffSessionScan(t, c, payload, chunk, 0)
			if consumed != uint64(len(payload)) {
				t.Fatalf("consumed %d bytes, pushed %d", consumed, len(payload))
			}
			if !diffMatchesEqual(got, want) {
				t.Fatalf("session matches diverge from local streaming:\n got %d matches\nwant %d matches", len(got), len(want))
			}
		})
	}
}

// TestDifferentialSessionOverlapEdges pins the overlap contract at its
// edges. A tiny overlap drops long straddling matches — the documented
// blind spot — and the session must drop EXACTLY the ones the local
// streaming scan drops, no more, no fewer. An overlap larger than the
// whole stream must behave like a one-shot scan.
func TestDifferentialSessionOverlapEdges(t *testing.T) {
	payload := diffSessPayload(3, 8<<10)
	c := diffStartService(t, server.Config{})
	for _, overlap := range []int{1, 4, 64, len(payload) + 64} {
		t.Run(fmt.Sprintf("overlap=%d", overlap), func(t *testing.T) {
			want := diffLocalStream(t, payload, overlap, 13)
			got, consumed := diffSessionScan(t, c, payload, 13, overlap)
			if consumed != uint64(len(payload)) {
				t.Fatalf("consumed %d bytes, pushed %d", consumed, len(payload))
			}
			if !diffMatchesEqual(got, want) {
				t.Fatalf("overlap=%d: session matches diverge from local streaming with the same overlap:\n got %d\nwant %d",
					overlap, len(got), len(want))
			}
		})
	}
	// Sanity: overlap >= stream must equal the one-shot scan, so the
	// edge case above was not two implementations sharing one bug.
	rs := diffLocalRuleSet(t, 0)
	oneShot := diffLocalOneShot(t, rs, payload)
	huge := diffLocalStream(t, payload, len(payload)+64, 0)
	if !diffMatchesEqual(oneShot, huge) {
		t.Fatal("local oracle inconsistent: overlap >= stream differs from one-shot")
	}
}

// TestDifferentialBatchScan: SCAN-BATCH per-item results must equal
// per-item one-shot scans, across item-size mixes including empty
// items and one item much larger than the rest.
func TestDifferentialBatchScan(t *testing.T) {
	corpus := diffSessPayload(4, 16<<10)
	rs := diffLocalRuleSet(t, 0)
	c := diffStartService(t, server.Config{})
	for _, size := range []int{33, 257, 4096} {
		t.Run(fmt.Sprintf("item=%d", size), func(t *testing.T) {
			var items [][]byte
			for off := 0; off < len(corpus); off += size {
				end := off + size
				if end > len(corpus) {
					end = len(corpus)
				}
				items = append(items, corpus[off:end])
			}
			items = append(items, nil)            // empty item
			items = append(items, corpus[:8<<10]) // outsized straggler
			res, err := c.ScanBatch(items)
			if err != nil {
				t.Fatalf("ScanBatch: %v", err)
			}
			if len(res) != len(items) {
				t.Fatalf("batch answered %d items for %d payloads", len(res), len(items))
			}
			for i, r := range res {
				if r.Err != nil {
					t.Fatalf("item %d failed: %v", i, r.Err)
				}
				want := diffLocalOneShot(t, rs, items[i])
				got := append([]server.RuleMatch(nil), r.Matches...)
				sortRuleMatches(got)
				if !diffMatchesEqual(got, want) {
					t.Fatalf("item %d (%d bytes): batch matches diverge from one-shot: got %d want %d",
						i, len(items[i]), len(got), len(want))
				}
			}
		})
	}
}

// head trims a match list for failure messages.
func head(ms []server.RuleMatch) []server.RuleMatch {
	if len(ms) > 8 {
		return ms[:8]
	}
	return ms
}

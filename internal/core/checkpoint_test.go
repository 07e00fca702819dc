package core

import (
	"encoding/binary"
	"errors"
	"testing"

	"alveare/internal/backend"
)

// rawCkpt assembles a stream checkpoint header by hand: version 1,
// flags, overlap, base, the carry window, a rule count, then rules
// (the encoded per-rule records, passed through verbatim).
func rawCkpt(flags byte, overlap uint32, base uint64, window []byte, nrules uint32, rules []byte) []byte {
	out := []byte{streamCkptVersion, flags}
	out = binary.BigEndian.AppendUint32(out, overlap)
	out = binary.BigEndian.AppendUint64(out, base)
	out = binary.BigEndian.AppendUint32(out, uint32(len(window)))
	out = append(out, window...)
	out = binary.BigEndian.AppendUint32(out, nrules)
	return append(out, rules...)
}

// TestPeekCheckpointRejectsWhatRestoreRejects gives every header
// RestoreStream rejects to PeekCheckpoint too: a relay that takes its
// dedup prefix from PeekCheckpoint must never act on a checkpoint no
// replica can restore.
func TestPeekCheckpointRejectsWhatRestoreRejects(t *testing.T) {
	rs, err := NewRuleSet([]string{"ab"}, backend.Options{}, WithOverlap(8))
	if err != nil {
		t.Fatal(err)
	}
	// One rule resumed at offset 100, the end of an 8-byte window.
	rule := binary.BigEndian.AppendUint64([]byte{0}, 100)
	window := []byte("zzzzzzab")
	valid := rawCkpt(0, 8, 92, window, 1, rule)
	if _, err := rs.RestoreStream(valid); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	info, err := PeekCheckpoint(valid)
	if err != nil || info != (CheckpointInfo{Consumed: 100, Buffered: 8, Overlap: 8, Rules: 1}) {
		t.Fatalf("PeekCheckpoint(valid) = %+v, %v", info, err)
	}

	cases := map[string][]byte{
		"empty":                                 {},
		"short header":                          valid[:streamCkptHeaderLen-1],
		"bad version":                           append([]byte{2}, valid[1:]...),
		"unknown flags":                         rawCkpt(0x80, 8, 92, window, 1, rule),
		"zero overlap":                          rawCkpt(0, 0, 92, window, 1, rule),
		"overlap above 1<<30":                   rawCkpt(0, 1<<30+1, 92, window, 1, rule),
		"base past 1<<62":                       rawCkpt(0, 8, 1<<62+1, window, 1, rule),
		"carry longer than overlap, unfinished": rawCkpt(0, 4, 92, window, 1, rule),
		"truncated carry window":                valid[:streamCkptHeaderLen+len(window)+3],
		"rule count above 1<<20":                rawCkpt(0, 8, 92, window, 1<<20+1, rule),
	}
	for name, cp := range cases {
		if _, err := rs.RestoreStream(cp); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: RestoreStream err %v, want ErrBadCheckpoint", name, err)
		}
		if info, err := PeekCheckpoint(cp); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: PeekCheckpoint = %+v, %v; want ErrBadCheckpoint", name, info, err)
		}
	}
	// A finished stream may keep a window longer than its overlap (its
	// final window is never cut), so that header is accepted by both.
	done := rawCkpt(streamCkptFlagDone, 4, 92, window, 1, binary.BigEndian.AppendUint64([]byte{0}, 101))
	if _, err := rs.RestoreStream(done); err != nil {
		t.Errorf("finished checkpoint rejected by RestoreStream: %v", err)
	}
	if _, err := PeekCheckpoint(done); err != nil {
		t.Errorf("finished checkpoint rejected by PeekCheckpoint: %v", err)
	}
}

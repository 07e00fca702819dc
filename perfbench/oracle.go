package main

import (
	"fmt"
	"regexp"
	"sort"
)

// hit is one match in a transcript: the rule and its byte span.
type hit struct {
	Rule       int
	Start, End int
}

// oracle computes expected transcripts with Go's regexp package, one
// compiled expression per rule — the reference the differential tests
// use. Per rule, matches are leftmost-first and non-overlapping, which
// is the scan engine's semantics for non-empty matches.
type oracle struct {
	res []*regexp.Regexp
}

func newOracle(patterns []string) (*oracle, error) {
	o := &oracle{}
	for i, p := range patterns {
		re, err := regexp.Compile(p)
		if err != nil {
			return nil, fmt.Errorf("oracle: rule %d %q: %w", i, p, err)
		}
		o.res = append(o.res, re)
	}
	return o, nil
}

// scan returns every rule's matches in data, sorted.
func (o *oracle) scan(data []byte) []hit {
	var out []hit
	for i, re := range o.res {
		for _, m := range re.FindAllIndex(data, -1) {
			if m[1] > m[0] {
				out = append(out, hit{i, m[0], m[1]})
			}
		}
	}
	sortHits(out)
	return out
}

func sortHits(hs []hit) {
	sort.Slice(hs, func(i, j int) bool {
		a, b := hs[i], hs[j]
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End < b.End
	})
}

// sameHits reports whether two transcripts are identical; got is
// sorted in place first.
func sameHits(got, want []hit) bool {
	if len(got) != len(want) {
		return false
	}
	sortHits(got)
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// chunkedExpectation applies the chunked scan's documented blind spot
// to a one-shot transcript, the same-chunk rule of the differential
// tests: a match longer than the overlap is reported only when it lies
// inside one input chunk (ends are the chunk end offsets, ascending).
// It returns the expected transcript and how many matches the rule
// dropped. The workloads keep every match shorter than the overlap, so
// the count is reported to show the rule stayed inactive.
func chunkedExpectation(all []hit, overlap int, ends []int) (want []hit, dropped int) {
	for _, h := range all {
		if h.End-h.Start <= overlap || sameChunk(h, ends) {
			want = append(want, h)
			continue
		}
		dropped++
	}
	return want, dropped
}

func sameChunk(h hit, ends []int) bool {
	start := 0
	for _, e := range ends {
		if h.Start < e {
			return h.Start >= start && h.End <= e
		}
		start = e
	}
	return false
}

// sessionAcks splits a flow's expected transcript by the push that
// reports each match. A streaming session owns, at push k, the match
// starts in [consumed(k-1)-overlap, consumed(k)-overlap): a match is
// emitted once the bytes after it cover one overlap, and the rest
// arrive with the close. ends are the cumulative push ends; the result
// has len(ends)+1 entries, the last for the close.
func sessionAcks(want []hit, overlap int, ends []int) [][]hit {
	acks := make([][]hit, len(ends)+1)
	for _, h := range want {
		k := sort.Search(len(ends), func(k int) bool { return h.Start < ends[k]-overlap })
		acks[k] = append(acks[k], h)
	}
	for _, a := range acks {
		sortHits(a)
	}
	return acks
}

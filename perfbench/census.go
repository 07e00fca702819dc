package main

import (
	"alveare/internal/core"
	"alveare/internal/metrics"
)

// census is the deterministic count record of a run: the counters the
// system's public accessors report over a fixed op sequence (the first
// census_ops ops of the seeded input, or dpi_session's first flow, sent
// one at a time) on a freshly
// built system, before any timed phase. Because the sequence and the
// starting state are fixed, a seed's census repeats exactly — except the
// lazy-DFA cache counters, which depend on when the runtime empties the
// gate pools and are reported with their spread, never as exact.
type census struct {
	bytes                        int64
	cycles                       int64
	screened, admitted, exactHit int64
	probes, negatives            int64
	cacheHits, cacheMisses       int64
	bails                        int64
	passes, skips                int64
}

// ruleSetCensus reads a rule set's roll-ups (reset before the census).
func ruleSetCensus(rs *core.RuleSet, bytes int64) census {
	fs, as := rs.FastStats(), rs.ApproxStats()
	return census{
		bytes:     bytes,
		cycles:    rs.Stats().Cycles,
		screened:  as.ScreenedWindows,
		admitted:  as.AdmittedWindows,
		exactHit:  as.ExactHitWindows,
		probes:    fs.Probes,
		negatives: fs.Negatives,
		cacheHits: fs.CacheHits, cacheMisses: fs.CacheMisses,
		bails:  fs.Bails,
		passes: fs.PrefilterPasses, skips: fs.PrefilterSkips,
	}
}

// snapshotCensus reads the same counters from scan-server STATS
// snapshots taken before and after the census, summed over shards.
func snapshotCensus(before, after []*metrics.Snapshot, bytes int64) census {
	d := func(name string) int64 {
		var v int64
		for i := range after {
			v += after[i].Get(name) - before[i].Get(name)
		}
		return v
	}
	return census{
		bytes:     bytes,
		cycles:    d("ruleset.cycles"),
		screened:  d("ruleset.approx.windows.screened"),
		admitted:  d("ruleset.approx.windows.admitted"),
		exactHit:  d("ruleset.approx.windows.exacthit"),
		probes:    d("ruleset.fast.probes"),
		negatives: d("ruleset.fast.negatives"),
		cacheHits: d("ruleset.dfa.cache.hits"), cacheMisses: d("ruleset.dfa.cache.misses"),
		bails:  d("ruleset.dfa.bails"),
		passes: d("ruleset.prefilter.passes"), skips: d("ruleset.prefilter.skips"),
	}
}

// censusMetrics sets the per-layer yield ratios and the modelled cost.
func (r *run) censusMetrics(c census) {
	r.perLayer("exact.cycles_per_byte", ratio(float64(c.cycles), float64(c.bytes)))
	r.perLayer("approx.screened_frac", ratio(float64(c.screened-c.admitted), float64(c.screened)))
	r.perLayer("approx.precision", ratio(float64(c.exactHit), float64(c.admitted)))
	r.perLayer("gate.negative_frac", ratio(float64(c.negatives), float64(c.probes)))
	r.perLayer("gate.cache_miss_frac", ratio(float64(c.cacheMisses), float64(c.cacheHits+c.cacheMisses)))
	r.perLayer("gate.bails", float64(c.bails))
	r.perLayer("prefilter.skip_frac", ratio(float64(c.skips), float64(c.passes+c.skips)))
	r.notef("census bytes=%d cycles=%d windows screened=%d admitted=%d exacthit=%d probes=%d negatives=%d cache hits=%d misses=%d bails=%d prefilter passes=%d skips=%d",
		c.bytes, c.cycles, c.screened, c.admitted, c.exactHit, c.probes, c.negatives, c.cacheHits, c.cacheMisses, c.bails, c.passes, c.skips)
}

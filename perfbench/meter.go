package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// latencies collects op latencies in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/1e6) }

// quantile returns the nearest-rank p-th percentile (0 < p <= 100).
func (l latencies) quantile(p float64) float64 {
	if len(l) == 0 {
		return 0
	}
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// tailPercentile returns the highest percentile, at most want, that has
// at least ten samples beyond it among n, falling back to the median
// for tiny samples.
func tailPercentile(n int, want float64) float64 {
	for _, p := range []float64{want, 99.9, 99.5, 99, 98, 95, 90, 80, 75} {
		if p <= want && float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return latencies(v).quantile(50)
}

// meter measures one phase in fixed slices: a sampler records the
// process's resource counters at every slice boundary, and each
// completed op is filed under the slice it completed in. Rates are
// reported as the median over slices, which keeps a burst of
// contention from another tenant of the machine from moving the
// figure; latency percentiles are taken per slice and their median
// reported the same way.
type meter struct {
	every time.Duration

	mu      sync.Mutex
	marks   []mark
	ops     int64
	bytes   int64
	lat     latencies
	sliceOf []int

	stop, done chan struct{}
}

type mark struct {
	u          usage
	ops, bytes int64
}

func startMeter(every time.Duration) *meter {
	m := &meter{every: every, stop: make(chan struct{}), done: make(chan struct{})}
	m.marks = []mark{{u: sampleUsage()}}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				m.mark()
			}
		}
	}()
	return m
}

func (m *meter) mark() {
	u := sampleUsage()
	m.mu.Lock()
	m.marks = append(m.marks, mark{u, m.ops, m.bytes})
	m.mu.Unlock()
}

// op records one completed op of the given latency and payload size.
func (m *meter) op(d time.Duration, bytes int64) {
	m.mu.Lock()
	m.ops++
	m.bytes += bytes
	m.lat.add(d)
	m.sliceOf = append(m.sliceOf, len(m.marks)-1)
	m.mu.Unlock()
}

// finish stops the sampler and closes the last slice.
func (m *meter) finish() {
	close(m.stop)
	<-m.done
	m.mark()
}

// slice is one slice's totals.
type slice struct {
	sec, ops, mib, cpuMs float64
	lat                  latencies
}

// slices returns the completed slices; the closing partial slice counts
// only when it is at least half a slice long, or when it is the only one.
func (m *meter) slices() []slice {
	var out []slice
	for k := 1; k < len(m.marks); k++ {
		a, b := m.marks[k-1], m.marks[k]
		sec := b.u.wall.Sub(a.u.wall).Seconds()
		if k == len(m.marks)-1 && k > 1 && sec < m.every.Seconds()/2 {
			break
		}
		out = append(out, slice{
			sec:   sec,
			ops:   float64(b.ops - a.ops),
			mib:   float64(b.bytes-a.bytes) / (1 << 20),
			cpuMs: float64(b.u.cpu-a.u.cpu) / 1e6,
		})
	}
	for i, k := range m.sliceOf {
		if k < len(out) {
			out[k].lat = append(out[k].lat, m.lat[i])
		}
	}
	return out
}

// rateMetrics sets throughput_mb_s, ops_per_s and cpu_ms_per_mb: each
// the median over the phase's slices.
func (r *run) rateMetrics(m *meter) {
	var mbs, ops, cpu []float64
	for _, s := range m.slices() {
		mbs = append(mbs, ratio(s.mib, s.sec))
		ops = append(ops, ratio(s.ops, s.sec))
		cpu = append(cpu, ratio(s.cpuMs, s.mib))
	}
	r.endToEnd("throughput_mb_s", median(mbs))
	r.endToEnd("ops_per_s", median(ops))
	r.endToEnd("cpu_ms_per_mb", median(cpu))
	r.notef("ops_per_s by %v slice: %.1f", m.every, ops)
}

// quietQuarter is the quantile over slices at which the latency
// metrics are read. Other tenants of the shared host steal CPU in
// bursts, and a burst only ever adds latency to the slices it hits, so
// the quietest quarter of a phase's slices is the best estimate of the
// program's own latency, as the fastest of repeated timings is for a
// single call. A change that slows every op still moves every slice.
const quietQuarter = 25

// latencyMetrics sets op_p50_ms and op_tail_ms from each slice's median
// and tail percentile, read at quietQuarter over the slices. The tail
// percentile is the highest, up to the workload's cap, with at least
// ten samples beyond it in every slice; it and the sample counts are
// reported beside it.
func (r *run) latencyMetrics(m *meter) {
	_, p50s, _ := m.tail(50)
	p, tails, minN := m.tail(r.cfg.TailPercentile)
	r.endToEnd("op_p50_ms", latencies(p50s).quantile(quietQuarter))
	r.endToEnd("op_tail_ms", latencies(tails).quantile(quietQuarter))
	r.perLayer("op_tail_pct", p)
	r.perLayer("op_samples", float64(len(m.lat)))
	r.notef("op_tail_ms is the p%d over %d slices of %v of each slice's p%g; %d samples, at least %d per slice",
		quietQuarter, len(tails), m.every, p, len(m.lat), minN)
	r.notef("op_tail_ms by slice, p10 p25 p50 p75 p90: %s", quantiles(tails, 10, 25, 50, 75, 90))
	r.notef("op latency over the whole phase, p50 p90 p95 p99 p99.9: %s", quantiles(m.lat, 50, 90, 95, 99, 99.9))
}

// quantiles formats v's values at the percentiles ps.
func quantiles(v latencies, ps ...float64) string {
	var out []string
	for _, p := range ps {
		out = append(out, fmt.Sprintf("%.3f", v.quantile(p)))
	}
	return strings.Join(out, " ")
}

// tail returns the percentile used, each slice's value at it, and the
// smallest slice's sample count.
func (m *meter) tail(want float64) (p float64, perSlice []float64, minN int) {
	ss := m.slices()
	minN = len(m.lat)
	for _, s := range ss {
		minN = min(minN, len(s.lat))
	}
	p = tailPercentile(minN, want)
	for _, s := range ss {
		perSlice = append(perSlice, s.lat.quantile(p))
	}
	return p, perSlice, minN
}

// runtimeMetrics sets the Go runtime's per-layer metrics for a phase.
func (r *run) runtimeMetrics(m *meter) {
	a, b := m.marks[0].u, m.marks[len(m.marks)-1].u
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		r.perLayer("runtime.gc_cpu_frac", (b.gcCPU-a.gcCPU)/cpu)
	}
	r.perLayer("runtime.alloc_b_per_byte", ratio(float64(b.alloc-a.alloc), float64(m.bytes)))
}

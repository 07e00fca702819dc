package main

import (
	"fmt"
	"net"

	"alveare/internal/metrics"
	"alveare/internal/server"
	"alveare/internal/server/client"
)

// startServer builds a scan server on an ephemeral loopback port. stop
// closes it and waits for its accept loop to return.
func startServer(cfg server.Config) (srv *server.Server, addr string, stop func(), err error) {
	srv, err = server.New(cfg)
	if err != nil {
		return nil, "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns when Close stops the listener
	}()
	return srv, ln.Addr().String(), func() {
		srv.Close()
		<-done
	}, nil
}

// dialAll connects n clients to addr; opts[i] are client i's options.
func dialAll(addr string, n int, opts func(i int) []client.Option) ([]*client.Client, error) {
	var cs []*client.Client
	for i := 0; i < n; i++ {
		c, err := client.Dial(addr, opts(i)...)
		if err != nil {
			for _, x := range cs {
				x.Close()
			}
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func snapshots(srvs []*server.Server) []*metrics.Snapshot {
	out := make([]*metrics.Snapshot, len(srvs))
	for i, s := range srvs {
		out[i] = s.MetricsSnapshot()
	}
	return out
}

// histDelta returns histogram name's observations between two sets of
// snapshots, summed over servers.
func histDelta(before, after []*metrics.Snapshot, name string) metrics.Metric {
	out := metrics.Metric{Name: name, Kind: "histogram"}
	counts := map[uint64]int64{}
	for i := range after {
		a, _ := after[i].Find(name)
		b, _ := before[i].Find(name)
		out.Count += a.Count - b.Count
		out.Sum += a.Sum - b.Sum
		for _, bk := range a.Buckets {
			counts[bk.Le] += bk.Count
		}
		for _, bk := range b.Buckets {
			counts[bk.Le] -= bk.Count
		}
	}
	for i := 0; i < 64; i++ {
		le := metrics.BucketBound(i)
		if n := counts[le]; n > 0 {
			out.Buckets = append(out.Buckets, metrics.Bucket{Le: le, Count: n})
		}
	}
	return out
}

func counterDelta(before, after []*metrics.Snapshot, name string) int64 {
	var v int64
	for i := range after {
		v += after[i].Get(name) - before[i].Get(name)
	}
	return v
}

func gaugeMax(snaps []*metrics.Snapshot, name string) int64 {
	var v int64
	for _, s := range snaps {
		v = max(v, s.Get(name))
	}
	return v
}

// serverMetrics sets the server layer's per-layer metrics for one
// measured phase: endpoint is the STATS endpoint the ops hit, and
// clientMeanMs the client-observed mean op latency of the phase.
func (r *run) serverMetrics(before, after []*metrics.Snapshot, endpoint string, clientMeanMs float64) float64 {
	h := histDelta(before, after, "server."+endpoint+".latency_us")
	r.perLayer("server.p50_us", float64(h.Quantile(0.5)))
	r.perLayer("server.tail_us", float64(h.Quantile(r.cfg.TailPercentile/100)))
	r.perLayer("server.shed", float64(counterDelta(before, after, "server.shed")))
	r.perLayer("queue.highwater", float64(gaugeMax(after, "server.queue.highwater")))
	serverMeanUs := ratio(float64(h.Sum), float64(h.Count))
	r.perLayer("net.share", 1-ratio(serverMeanUs, clientMeanMs*1e3))
	r.notef("server %s: %d ops, mean %.1f us server-side vs %.1f us client-observed (STATS histograms are power-of-two buckets)",
		endpoint, h.Count, serverMeanUs, clientMeanMs*1e3)
	return serverMeanUs
}

func mean(l latencies) float64 {
	var s float64
	for _, v := range l {
		s += v
	}
	return ratio(s, float64(len(l)))
}

// protocolMetrics reports the mean time of the traced codec spans.
func (r *run) protocolMetrics(tot map[string]spanTotals) {
	us := func(n string) float64 { return ratio(float64(tot[n].TotalN), float64(tot[n].Count)) / 1e3 }
	r.perLayer("client.encode.us", us("client.encode"))
	r.perLayer("decode.us", us("decode"))
	r.perLayer("encode.us", us("encode"))
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"alveare/internal/gateway"
	"alveare/internal/metrics"
	"alveare/internal/server"
	"alveare/internal/server/client"
)

// runFleet is log_fleet: independent log shippers send SCAN-BATCH frames
// on a seeded open-loop schedule through the gateway to replica shards,
// for two tenants over pipelined connections, at each rate of a fixed
// ladder. One op is one frame; its latency runs from its due time.
func runFleet(r *run) error {
	c := r.cfg
	patterns, err := ruleSet(c.Rules)
	if err != nil {
		return err
	}
	frames, err := logFrames(r.seed, c.FramePool, c.RecordsPerFrame, c.RecordMin, c.RecordMax, c.WitnessPerMille, patterns)
	if err != nil {
		return err
	}
	// Oracle: every record is scanned whole (one-shot), so no chunking
	// rule applies.
	orc, err := newOracle(patterns)
	if err != nil {
		return err
	}
	want := make([][][]hit, len(frames))
	frameBytes := make([]int64, len(frames))
	var total int
	for f, items := range frames {
		want[f] = make([][]hit, len(items))
		for i, rec := range items {
			want[f][i] = r.expect(orc.scan(rec))
			total += len(want[f][i])
			frameBytes[f] += int64(len(rec))
		}
	}
	r.notef("oracle %d matches over %d frames of %d records", total, len(frames), c.RecordsPerFrame)

	creg := metrics.New()
	var shards []*server.Server
	var gw *gateway.Gateway
	var clients []*client.Client
	setup, keep, err := timeSetup(c.SetupRepeats, func() (func(), error) {
		var stops []func()
		teardown := func() {
			for i := len(stops) - 1; i >= 0; i-- {
				stops[i]()
			}
		}
		var addrs []string
		var srvs []*server.Server
		for i := 0; i < c.Shards; i++ {
			s, addr, stop, err := startServer(server.Config{Rules: patterns})
			if err != nil {
				teardown()
				return nil, err
			}
			stops = append(stops, stop)
			srvs = append(srvs, s)
			addrs = append(addrs, addr)
		}
		var tenants []gateway.Tenant
		for _, name := range c.Tenants {
			tenants = append(tenants, gateway.Tenant{Name: name, Weight: 1, QueueDepth: c.TenantQueueDepth})
		}
		g, gaddr, stop, err := startGateway(gateway.Config{
			Backends: addrs, Tenants: tenants, DefaultTenant: c.Tenants[0],
			Workers: c.GatewayWorkers, Seed: 1,
		})
		if err != nil {
			teardown()
			return nil, err
		}
		stops = append(stops, stop)
		cs, err := dialAll(gaddr, len(c.Tenants), func(i int) []client.Option {
			return []client.Option{client.WithTenant(c.Tenants[i], "default"), client.WithMetrics(creg)}
		})
		if err != nil {
			teardown()
			return nil, err
		}
		stops = append(stops, func() {
			for _, x := range cs {
				x.Close()
			}
		})
		shards, gw, clients = srvs, g, cs
		return teardown, nil
	})
	if err != nil {
		return err
	}
	defer keep()
	r.endToEnd("setup_s", setup)

	// send scans frame f on client k and checks every item.
	send := func(k, f int) (ok bool, err error) {
		res, err := clients[k%len(clients)].ScanBatchCtx(context.Background(), frames[f])
		if err != nil {
			return false, err
		}
		if len(res) != len(frames[f]) {
			return false, nil
		}
		for i, it := range res {
			if it.Err != nil || !sameHits(wireHits(it.Matches), want[f][i]) {
				return false, nil
			}
		}
		return true, nil
	}

	// Census on the fresh fleet: the first census_ops frames, one at a
	// time, alternating tenants. It is also the warm-up.
	before := snapshots(shards)
	var cbad, cbytes int64
	for k := 0; k < c.CensusOps; k++ {
		ok, err := send(k, k%len(frames))
		if err != nil {
			return err
		}
		if !ok {
			cbad++
		}
		cbytes += frameBytes[k%len(frames)]
	}
	after := snapshots(shards)
	r.recordOps(int64(c.CensusOps), 0, cbad)
	var served []int64
	for i := range shards {
		served = append(served, after[i].Get("server.batch.requests")-before[i].Get("server.batch.requests"))
	}
	r.notef("census frames served per shard %v", served)
	if r.traced {
		r.censusMetrics(snapshotCensus(before, after, cbytes))
	}

	// rung offers rate frames/s for d on a seeded Poisson schedule and
	// waits for every frame to complete. hook, when set, runs after each
	// completed frame on the frame's own goroutine, given its send and
	// completion times.
	type rungResult struct {
		rate             float64
		m                *meter // latency from each frame's due time
		svc, late        latencies
		ops, bad, failed int64
		aborted          bool // sending stopped on a growing backlog
	}
	var fail error
	limit := c.LatencyLimitMs
	rung := func(idx int, rate float64, d, slice time.Duration, hook func(k, f int, sent, done time.Time)) rungResult {
		rng := rand.New(rand.NewSource(r.seed*1000 + int64(idx)))
		res := rungResult{rate: rate, m: startMeter(slice)}
		var mu sync.Mutex
		var wg sync.WaitGroup
		var outstanding int64
		// A quarter second of frames outstanding is far past any limit
		// and means the backlog is growing: the rung has failed, and
		// sending more would only pile up work for the next. A short
		// stall of the shared machine stays well below it.
		maxOut := int64(max(rate/4, 8))
		start := time.Now().Add(2 * time.Millisecond)
		end := start.Add(d)
		due := start
		for k := 0; due.Before(end); k++ {
			if w := time.Until(due); w > 0 {
				time.Sleep(w)
			}
			late := time.Since(due)
			f := rng.Intn(len(frames))
			mu.Lock()
			res.aborted = outstanding >= maxOut
			if !res.aborted {
				res.late.add(late)
				outstanding++
			}
			mu.Unlock()
			if res.aborted {
				break
			}
			wg.Add(1)
			go func(k, f int, due time.Time) {
				defer wg.Done()
				sent := time.Now()
				ok, err := send(k, f)
				done := time.Now()
				if err == nil && hook != nil {
					hook(k, f, sent, done)
				}
				mu.Lock()
				defer mu.Unlock()
				outstanding--
				res.ops++
				switch {
				case errors.Is(err, client.ErrShed):
					res.failed++
				case err != nil:
					res.failed++
					fail = errors.Join(fail, err)
				default:
					if !ok {
						res.bad++
					}
					res.m.op(done.Sub(due), frameBytes[f])
					res.svc.add(done.Sub(sent))
				}
			}(k, f, due)
			due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		}
		wg.Wait()
		res.m.finish()
		r.recordOps(res.ops, res.failed, res.bad)
		return res
	}
	// A rung's tail is the median over its slices: the question is
	// whether a typical stretch at this rate meets the limit.
	rungTail := func(x rungResult) (float64, float64) {
		_, tails, _ := x.m.tail(c.TailPercentile)
		return x.rate, median(tails)
	}
	passes := func(x rungResult) bool {
		_, tail := rungTail(x)
		return x.failed == 0 && x.bad == 0 && !x.aborted && tail <= limit
	}
	refRate := c.ReferenceRate
	refTime := seconds(r.seconds * c.ReferenceShare)

	if !r.traced {
		// The reference rate gives the rate, latency, CPU and memory
		// figures at a fixed offered load; the ladder then climbs until
		// two rungs in a row miss the limit (one stall of the shared
		// machine must not end it), and the highest rate meeting the
		// limit is interpolated from the tail latencies.
		ref := rung(0, refRate, refTime, seconds(c.SliceSeconds), nil)
		if fail != nil {
			return fail
		}
		r.rateMetrics(ref.m)
		r.latencyMetrics(ref.m)
		r.endToEnd("peak_rss_mb", peakRSSMiB())
		var results []rungResult
		per := seconds(r.seconds * (1 - c.ReferenceShare) / float64(len(c.RateLadder)))
		misses := 0
		for i, rate := range c.RateLadder {
			x := rung(i+1, rate, per, seconds(c.SliceSeconds), nil)
			if fail != nil {
				return fail
			}
			results = append(results, x)
			_, tail := rungTail(x)
			r.notef("rung %.0f/s: %d ops p50 %.3f ms tail %.3f ms backlog-abort=%v pass=%v", rate, x.ops, x.m.lat.quantile(50), tail, x.aborted, passes(x))
			if misses = misses + 1; passes(x) {
				misses = 0
			}
			if misses == 2 {
				break
			}
		}
		r.endToEnd("max_rate_ops_s", maxRate(results, passes, rungTail, limit))
		return nil
	}

	// Traced run: the reference rate untraced (runtime, server, gateway
	// and load-generator metrics), then traced with each frame replayed.
	before = snapshots(shards)
	gwBefore := gw.MetricsSnapshot()
	retries := creg.Counter("client.retries").Load()
	stopSampling := make(chan struct{})
	var depthMax int64
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-tick.C:
				s := gw.MetricsSnapshot()
				for _, t := range c.Tenants {
					depthMax = max(depthMax, s.Get("gateway.tenant."+t+".queue.depth"))
				}
			}
		}
	}()
	x := rung(0, refRate, seconds(r.seconds/2), seconds(c.SliceSeconds), nil)
	close(stopSampling)
	sampler.Wait()
	if fail != nil {
		return fail
	}
	r.runtimeMetrics(x.m)
	r.latencyMetrics(x.m)
	after = snapshots(shards)
	gwAfter := gw.MetricsSnapshot()
	shardMeanUs := r.serverMetrics(before, after, "batch", mean(x.svc))
	r.perLayer("gateway.hop_us", mean(x.svc)*1e3-shardMeanUs)
	r.perLayer("gateway.rerouted", float64(gwAfter.Get("gateway.rerouted")-gwBefore.Get("gateway.rerouted")))
	r.perLayer("gateway.shed", float64(gwAfter.Get("gateway.shed")-gwBefore.Get("gateway.shed")))
	r.perLayer("fairqueue.depth_max", float64(depthMax))
	r.perLayer("client.retries", float64(creg.Counter("client.retries").Load()-retries))
	r.perLayer("loadgen.late_tail_ms", x.late.quantile(tailPercentile(len(x.late), c.TailPercentile)))

	// Replays run on a fixed set of pipelines, one recorder each.
	const pipes = 2
	epoch := time.Now()
	type pipe struct {
		st     *staged
		rec    *recorder
		counts stageCounts
		bad    int64
		frame  bytes.Buffer
	}
	pool := make(chan *pipe, pipes)
	var recs []*recorder
	var all []*pipe
	for i := 0; i < pipes; i++ {
		st, bt, err := buildStaged(patterns, 0)
		if err != nil {
			return err
		}
		if i == 0 {
			r.buildMetrics(bt)
		}
		pp := &pipe{st: st, rec: newRecorder(epoch, i+1, keepTraceOps/pipes)}
		recs = append(recs, pp.rec)
		all = append(all, pp)
		pool <- pp
	}
	tenantHdr := func(k int) server.TenantHeader {
		return server.TenantHeader{Tenant: c.Tenants[k%len(c.Tenants)], Namespace: "default"}
	}
	var replayErr error
	var errMu sync.Mutex
	x = rung(1, refRate, seconds(r.seconds/2), seconds(c.SliceSeconds), func(k, f int, sent, done time.Time) {
		pp := <-pool
		defer func() { pool <- pp }()
		pp.rec.add("op", int64(k), -1, int64(sent.Sub(epoch)), int64(done.Sub(epoch)))
		if err := replayBatch(pp.rec, &pp.counts, pp.st, &pp.frame, int64(k), tenantHdr(k), frames[f], want[f], &pp.bad); err != nil {
			errMu.Lock()
			replayErr = errors.Join(replayErr, err)
			errMu.Unlock()
		}
	})
	if fail != nil || replayErr != nil {
		return errors.Join(fail, replayErr)
	}
	var counts stageCounts
	var bad int64
	for _, pp := range all {
		counts.add(pp.counts)
		bad += pp.bad
	}
	tot, err := r.traceResults(recs, counts, bad)
	if err != nil {
		return err
	}
	r.protocolMetrics(tot)
	return nil
}

// replayBatch replays one SCAN-BATCH frame's path through the layers:
// the client's envelope and batch encoding, the shard's frame read and
// decode, the one-shot scan of every record, and the reply encoding.
func replayBatch(rec *recorder, counts *stageCounts, st *staged, frame *bytes.Buffer, op int64,
	hdr server.TenantHeader, items [][]byte, want [][]hit, bad *int64) error {
	root := rec.add("replay", op, -1, rec.now(), 0)
	tr := &tracer{rec: rec, op: op, parent: root, counts: counts}
	defer func() {
		rec.cur[root].End = rec.now()
		rec.endOp()
	}()

	t := rec.now()
	body, err := server.EncodeScanBatch(items)
	if err == nil {
		body, err = server.EncodeTenant(hdr, server.OpScanBatch, body)
	}
	if err != nil {
		return err
	}
	frame.Reset()
	_ = server.WriteFrame(frame, server.Frame{Op: server.OpTenant, ID: uint32(op), Body: body}) // a bytes.Buffer write cannot fail
	tr.span("client.encode", t)

	t = rec.now()
	fr, err := server.ReadFrame(bytes.NewReader(frame.Bytes()), server.DefaultMaxFrame)
	var inner []byte
	if err == nil {
		_, _, inner, err = server.DecodeTenant(fr.Body)
	}
	var decoded [][]byte
	if err == nil {
		decoded, err = server.DecodeScanBatch(inner)
	}
	tr.span("decode", t)
	if err != nil {
		return err
	}

	results := make([]server.BatchItemResult, len(decoded))
	var out []hit
	for i, it := range decoded {
		if out, err = st.scanItem(tr, it, out[:0]); err != nil {
			return err
		}
		if !sameHits(out, want[i]) {
			*bad++
		}
		ms := make([]server.RuleMatch, len(out))
		for j, h := range out {
			ms[j] = server.RuleMatch{Rule: uint32(h.Rule), Start: uint64(h.Start), End: uint64(h.End)}
		}
		results[i] = server.BatchItemResult{Matches: ms}
	}

	t = rec.now()
	frame.Reset()
	_ = server.WriteFrame(frame, server.Frame{Op: server.OpBatchResp, ID: uint32(op), Body: server.EncodeBatchResults(results)})
	tr.span("encode", t)
	return nil
}

// maxRate returns the highest offered rate that meets the latency
// limit: the highest passing rung, moved toward the rung above it by
// linear interpolation on the tail latency when that rung failed on
// latency alone.
func maxRate[T any](rungs []T, passes func(T) bool, rateTail func(T) (float64, float64), limit float64) float64 {
	h := -1
	for i, x := range rungs {
		if passes(x) {
			h = i
		}
	}
	if h < 0 {
		rb, tb := rateTail(rungs[0])
		return rb * min(1, limit/tb)
	}
	ra, ta := rateTail(rungs[h])
	if h == len(rungs)-1 {
		return ra
	}
	rb, tb := rateTail(rungs[h+1])
	if tb <= limit || tb <= ta {
		return ra // failed on errors or backlog, not on latency
	}
	return ra + (rb-ra)*(limit-ta)/(tb-ta)
}

// startGateway builds a gateway on an ephemeral loopback port.
func startGateway(cfg gateway.Config) (*gateway.Gateway, string, func(), error) {
	g, err := gateway.New(cfg)
	if err != nil {
		return nil, "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		g.Close()
		return nil, "", nil, fmt.Errorf("gateway listen: %w", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = g.Serve(ln) // returns when Close stops the listener
	}()
	return g, ln.Addr().String(), func() {
		g.Close()
		<-done
	}, nil
}

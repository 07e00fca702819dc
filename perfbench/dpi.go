package main

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"time"

	"alveare/internal/backend"
	"alveare/internal/core"
	"alveare/internal/metrics"
	"alveare/internal/server"
	"alveare/internal/server/client"
	"alveare/internal/stream"
)

// runDPI is dpi_session: PowerEN-style flows streamed as checkpointed
// sessions (SESSION-OPEN/DATA/CLOSE) straight to one scan server over
// closed-loop connections. One op is one SESSION-DATA round trip.
func runDPI(r *run) error {
	c := r.cfg
	patterns, err := ruleSet(c.Rules)
	if err != nil {
		return err
	}
	flows, err := powerENFlows(r.seed, c.Flows, c.FlowBytes, c.WitnessEvery, patterns)
	if err != nil {
		return err
	}
	overlap := stream.DefaultOverlap

	// Oracle, outside every timed phase: each flow's transcript split by
	// the ack that must carry each match.
	orc, err := newOracle(patterns)
	if err != nil {
		return err
	}
	var ends []int
	for e := c.ChunkBytes; e < c.FlowBytes; e += c.ChunkBytes {
		ends = append(ends, e)
	}
	ends = append(ends, c.FlowBytes)
	acks := make([][][]hit, len(flows))
	var total, dropped int
	for f, d := range flows {
		want, n := chunkedExpectation(r.expect(orc.scan(d)), overlap, ends)
		acks[f] = sessionAcks(want, overlap, ends)
		total += len(want)
		dropped += n
	}
	r.notef("oracle %d matches over %d flows, %d dropped by the same-chunk rule", total, len(flows), dropped)

	creg := metrics.New()
	var srv *server.Server
	var clients []*client.Client
	setup, keep, err := timeSetup(c.SetupRepeats, func() (func(), error) {
		s, addr, stop, err := startServer(server.Config{Rules: patterns})
		if err != nil {
			return nil, err
		}
		cs, err := dialAll(addr, c.Connections, func(int) []client.Option {
			return []client.Option{client.WithMetrics(creg)}
		})
		if err != nil {
			stop()
			return nil, err
		}
		srv, clients = s, cs
		return func() {
			for _, x := range cs {
				x.Close()
			}
			stop()
		}, nil
	})
	if err != nil {
		return err
	}
	defer keep()
	r.endToEnd("setup_s", setup)

	// flowRun streams flow f through one session on cl, verifying every
	// ack, until the flow ends or the deadline passes. each, when set,
	// sees every completed op.
	type opHook func(k int, chunk []byte, ms []server.RuleMatch, sess *client.Session, el time.Duration) error
	type tally struct {
		ops, failed, bad int64
		m                *meter // nil outside measured phases
	}
	flowRun := func(cl *client.Client, f int, deadline time.Time, t *tally, each opHook) error {
		ctx := context.Background()
		sess, err := cl.OpenSessionCheckpointCtx(ctx, overlap)
		if err != nil {
			return err
		}
		flow := flows[f]
		complete := true
		for k, start := 0, 0; k < len(ends); start, k = ends[k], k+1 {
			if !deadline.IsZero() && time.Now().After(deadline) {
				complete = false
				break
			}
			chunk := flow[start:ends[k]]
			t0 := time.Now()
			ms, _, err := sess.WriteCtx(ctx, chunk)
			el := time.Since(t0)
			t.ops++
			if err != nil {
				if errors.Is(err, client.ErrShed) {
					t.failed++
					complete = false
					break
				}
				return err
			}
			if t.m != nil {
				t.m.op(el, int64(len(chunk)))
			}
			if !sameHits(wireHits(ms), acks[f][k]) {
				t.bad++
			}
			if each != nil {
				if err := each(k, chunk, ms, sess, el); err != nil {
					return err
				}
			}
		}
		ms, _, err := sess.CloseCtx(ctx)
		if err != nil {
			return err
		}
		if complete && !sameHits(wireHits(ms), acks[f][len(ends)]) {
			t.bad++
		}
		return nil
	}

	// Census on the fresh server: flow 0 on one connection, one ack at
	// a time. It is also the warm-up.
	before := snapshots([]*server.Server{srv})
	var ct tally
	var ckptBytes, ckpts int64
	err = flowRun(clients[0], 0, time.Time{}, &ct, func(_ int, _ []byte, _ []server.RuleMatch, sess *client.Session, _ time.Duration) error {
		ckptBytes += int64(len(sess.Checkpoint()))
		ckpts++
		return nil
	})
	if err != nil {
		return err
	}
	r.recordOps(ct.ops, ct.failed, ct.bad)
	if r.traced {
		r.censusMetrics(snapshotCensus(before, snapshots([]*server.Server{srv}), int64(c.FlowBytes)))
		r.perLayer("ckpt.bytes", ratio(float64(ckptBytes), float64(ckpts)))
	}

	// measure runs every connection's closed loop for d: connection g
	// streams flows g, g+G, g+2G, ... (mod the flow count).
	measure := func(d time.Duration, hook func(g int) opHook) (*meter, error) {
		m := startMeter(seconds(c.SliceSeconds))
		deadline := time.Now().Add(d)
		tallies := make([]tally, len(clients))
		for g := range tallies {
			tallies[g].m = m
		}
		errs := make([]error, len(clients))
		var wg sync.WaitGroup
		for g := range clients {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var each opHook
				if hook != nil {
					each = hook(g)
				}
				for j := 0; time.Now().Before(deadline); j++ {
					f := (g + j*len(clients)) % len(flows)
					if err := flowRun(clients[g], f, deadline, &tallies[g], each); err != nil {
						errs[g] = err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		m.finish()
		for _, t := range tallies {
			r.recordOps(t.ops, t.failed, t.bad)
		}
		return m, errors.Join(errs...)
	}

	if !r.traced {
		m, err := measure(seconds(r.seconds), nil)
		if err != nil {
			return err
		}
		r.rateMetrics(m)
		r.endToEnd("max_rate_ops_s", r.e2e["ops_per_s"].Value)
		r.latencyMetrics(m)
		return nil
	}

	// Traced run: an untraced half for the runtime and server metrics,
	// then a traced half in which every op is followed by its replay.
	before = snapshots([]*server.Server{srv})
	retries := creg.Counter("client.retries").Load()
	m, err := measure(seconds(r.seconds/2), nil)
	if err != nil {
		return err
	}
	r.runtimeMetrics(m)
	r.latencyMetrics(m)
	r.serverMetrics(before, snapshots([]*server.Server{srv}), "session.data", mean(m.lat))
	r.perLayer("client.retries", float64(creg.Counter("client.retries").Load()-retries))

	local, err := core.NewRuleSet(patterns, backend.Options{}, core.WithDFA(), core.WithApprox())
	if err != nil {
		return err
	}
	epoch := time.Now()
	recs := make([]*recorder, len(clients))
	counts := make([]stageCounts, len(clients))
	replayBad := make([]int64, len(clients))
	pipes := make([]*staged, len(clients))
	for g := range clients {
		st, bt, err := buildStaged(patterns, overlap)
		if err != nil {
			return err
		}
		if g == 0 {
			r.buildMetrics(bt)
		}
		pipes[g] = st
		recs[g] = newRecorder(epoch, g+1, keepTraceOps/len(clients))
	}
	var opSeq sync.Mutex
	var nextOp int64
	_, err = measure(seconds(r.seconds/2), func(g int) opHook {
		rec, st := recs[g], pipes[g]
		var shadow *stagedStream
		var out []hit
		var frame bytes.Buffer
		return func(k int, chunk []byte, ms []server.RuleMatch, sess *client.Session, el time.Duration) error {
			if k == 0 {
				shadow = st.newStream()
			}
			opSeq.Lock()
			op := nextOp
			nextOp++
			opSeq.Unlock()
			end := rec.now()
			rec.add("op", op, -1, end-int64(el), end)
			// The server's post-ack state, rebuilt locally so that the
			// timed Export below runs on exactly the state it exported.
			restored, err := local.RestoreStream(sess.Checkpoint())
			if err != nil {
				return err
			}
			root := rec.add("replay", op, -1, rec.now(), 0)
			tr := &tracer{rec: rec, op: op, parent: root, counts: &counts[g]}

			t := rec.now()
			frame.Reset()
			_ = server.WriteFrame(&frame, server.Frame{Op: server.OpSessionData, ID: uint32(op),
				Body: server.EncodeSessionData(sess.ID(), chunk)}) // a bytes.Buffer write cannot fail
			tr.span("client.encode", t)

			t = rec.now()
			fr, err := server.ReadFrame(bytes.NewReader(frame.Bytes()), server.DefaultMaxFrame)
			if err == nil {
				_, _, err = server.DecodeSessionData(fr.Body)
			}
			tr.span("decode", t)
			if err != nil {
				return err
			}

			if out, err = shadow.feed(tr, chunk, false, out[:0]); err != nil {
				return err
			}

			t = rec.now()
			cp := restored.Export()
			tr.span("ckpt", t)

			t = rec.now()
			frame.Reset()
			_ = server.WriteFrame(&frame, server.Frame{Op: server.OpSessionMatches, ID: uint32(op),
				Body: server.EncodeSessionMatchesCkpt(false, uint64(shadow.base+len(shadow.buf)), ms, cp)})
			tr.span("encode", t)

			rec.cur[root].End = rec.now()
			rec.endOp()
			if !sameHits(out, wireHits(ms)) {
				replayBad[g]++
			}
			return nil
		}
	})
	if err != nil {
		return err
	}
	var all stageCounts
	var bad int64
	for g := range clients {
		all.add(counts[g])
		bad += replayBad[g]
	}
	tot, err := r.traceResults(recs, all, bad)
	if err != nil {
		return err
	}
	r.protocolMetrics(tot)
	r.perLayer("ckpt.export_us", ratio(float64(tot["ckpt"].TotalN), float64(tot["ckpt"].Count))/1e3)
	return nil
}

// wireHits converts a protocol match list to a transcript.
func wireHits(ms []server.RuleMatch) []hit {
	out := make([]hit, len(ms))
	for i, m := range ms {
		out[i] = hit{int(m.Rule), int(m.Start), int(m.End)}
	}
	return out
}

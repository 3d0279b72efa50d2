package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/perm"
	"supercayley/internal/serve"
	"supercayley/internal/shard"
	"supercayley/internal/tables"
)

// maxLayerRequests caps the requests the batcher and HTTP layer timings
// send: an 8-pair Submit waits out the batcher's MaxWait timer, so a
// pass over every block of small_zipf_k8 would take seconds.
const maxLayerRequests = 1000

// layerMetrics collects the per-layer metrics of one run and echoes
// each to the log as it is set.
type layerMetrics struct {
	m   map[string]metric
	log io.Writer
}

func (lm *layerMetrics) set(name string, value float64, unit string) {
	lm.m[name] = metric{value, unit}
	fmt.Fprintf(lm.log, "  %-34s %16.4f %s\n", name, value, unit)
}

// setQ sets a percentile metric and logs its sample count.
func (lm *layerMetrics) setQ(name string, value float64, unit string, n int) {
	lm.m[name] = metric{value, unit}
	fmt.Fprintf(lm.log, "  %-34s %16.4f %s (n=%d)\n", name, value, unit, n)
}

// timedPass runs pass twice, the first time as the warm pass, and
// returns the second run's wall time and allocations.  It counts
// allocations with testing.AllocsPerRun, which also pins GOMAXPROCS to
// 1 while the pass runs, so the timing is one goroutine's.
func timedPass(pass func()) (elapsed time.Duration, allocs float64) {
	allocs = testing.AllocsPerRun(1, func() {
		t0 := time.Now()
		pass()
		elapsed = time.Since(t0)
	})
	return elapsed, allocs
}

func perPair(d time.Duration, pairs int) float64 { return float64(d.Nanoseconds()) / float64(pairs) }

// runLayers times each layer's public functions in-process on the
// workload's pairs, then runs the traced copy of the serving stack.
// Every pair-level layer must produce the same total route length as
// the kernel on the same pairs (they are port-identical by design); a
// mismatch reports correct=false.
func runLayers(w workload, nw *core.Network, p *pool, v *verifier, seed int64, seconds int, out string, prov *provenance, log io.Writer) (*result, error) {
	prov.print(log)
	lm := &layerMetrics{m: map[string]metric{}, log: log}
	lm.setQ("env.timer_250us_p50_us", prov.Timer250usP50us, "us", timerSamples)
	srcs, dsts := p.srcs, p.dsts
	pairs := len(srcs)
	k := nw.K()
	var mismatch []string
	checkHops := func(layer string, got, want int64) {
		if got != want {
			mismatch = append(mismatch, fmt.Sprintf("%s routed %d hops, kernel %d", layer, got, want))
		}
	}

	// perm: the two unranks and the quotient rank a served pair costs.
	u, vv, inv := make(perm.Perm, k), make(perm.Perm, k), make(perm.Perm, k)
	d, _ := timedPass(func() {
		for i := range srcs {
			perm.UnrankInto(u, srcs[i])
			perm.UnrankInto(vv, dsts[i])
		}
	})
	lm.set("perm.unrank_ns", perPair(d, 2*pairs), "ns")
	quot := make([]byte, pairs*k)
	for i := range srcs {
		perm.UnrankInto(u, srcs[i])
		perm.UnrankInto(vv, dsts[i])
		vv.InverseInto(inv)
		inv.ComposeInto(perm.Perm(quot[i*k:(i+1)*k]), u)
	}
	d, _ = timedPass(func() {
		for i := 0; i < pairs; i++ {
			rankSink += perm.Perm(quot[i*k : (i+1)*k]).Rank()
		}
	})
	lm.set("perm.rank_ns", perPair(d, pairs), "ns")

	// core kernel: Network.RouteInto from ranks, both unranks included.
	scr := core.NewRouteScratch(k)
	buf := make([]gens.GenIndex, 0, 256)
	var kernelHops int64
	d, a := timedPass(func() {
		kernelHops = 0
		for i := range srcs {
			perm.UnrankInto(u, srcs[i])
			perm.UnrankInto(vv, dsts[i])
			buf = nw.RouteInto(buf[:0], u, vv, scr)
			kernelHops += int64(len(buf))
		}
	})
	lm.set("core.kernel_ns_per_pair", perPair(d, pairs), "ns")
	lm.set("core.kernel_allocs_per_pair", a/float64(pairs), "allocs")

	// core router, built as `scg serve` builds it.
	cr := core.NewCachedRouter(nw, core.CacheConfig{})
	var routerHops int64
	var st0 core.CacheStats
	d, a = timedPass(func() {
		st0 = cr.Stats()
		routerHops = 0
		for i := range srcs {
			buf, _ = cr.AppendRouteRanks(buf[:0], srcs[i], dsts[i])
			routerHops += int64(len(buf))
		}
	})
	st1 := cr.Stats()
	routerNs := perPair(d, pairs)
	lm.set("core.router_ns_per_pair", routerNs, "ns")
	lm.set("core.router_allocs_per_pair", a/float64(pairs), "allocs")
	lm.set("core.router_hit_ratio", ratio(st1.Hits-st0.Hits, st1.Hits-st0.Hits+st1.Misses-st0.Misses), "ratio")
	checkHops("core router", routerHops, kernelHops)

	// core bulk: RouteManyInto on the warm router at the served request
	// size and at the batcher's flush size, at full GOMAXPROCS (the
	// 1024-pair call fans out, as it does in the server).
	for _, size := range []int{1024, 512} {
		bulk := &core.BulkRoutes{}
		var hops int64
		pass := func() {
			hops = 0
			for lo := 0; lo+size <= pairs; lo += size {
				if err := cr.RouteManyInto(bulk, srcs[lo:lo+size], dsts[lo:lo+size]); err != nil {
					panic(err) // ranks come from the pool, always in range
				}
				hops += bulk.TotalHops()
			}
		}
		pass()
		t0 := time.Now()
		pass()
		name := "core.route_many_ns_per_pair"
		if size != 1024 {
			name = fmt.Sprintf("core.route_many_%d_ns_per_pair", size)
		}
		lm.set(name, perPair(time.Since(t0), pairs/size*size), "ns")
		if pairs%size == 0 {
			checkHops(name, hops, kernelHops)
		}
	}

	// tables: the dense rank lane where it exists; at k > FastLaneMaxK
	// the rank lane declines every pair, so the quotient lane is timed
	// instead and the declines are counted, never timed as routes.
	t0 := time.Now()
	tb, err := tables.Build(nw, tables.Config{})
	if err != nil {
		return nil, err
	}
	lm.set("tables.build_ms", float64(time.Since(t0).Nanoseconds())/1e6, "ms")
	lm.set("tables.bytes", float64(tb.Bytes()), "bytes")
	declines := 0
	for i := range srcs {
		var ok bool
		if buf, ok = tb.AppendRouteRanks(buf[:0], srcs[i], dsts[i]); !ok {
			declines++
		}
	}
	lm.set("tables.lane_decline_ratio", ratio(uint64(declines), uint64(pairs)), "ratio")
	var laneHops int64
	lane := "AppendRouteRanks"
	if declines > 0 {
		lane = "AppendQuotientRoute"
	}
	d, _ = timedPass(func() {
		laneHops = 0
		for i := range srcs {
			if declines == 0 {
				buf, _ = tb.AppendRouteRanks(buf[:0], srcs[i], dsts[i])
			} else {
				perm.UnrankInto(u, srcs[i])
				perm.UnrankInto(vv, dsts[i])
				vv.InverseInto(inv)
				w := perm.Perm(quot[i*k : (i+1)*k])
				inv.ComposeInto(w, u)
				buf, _ = tb.AppendQuotientRoute(buf[:0], w)
			}
			laneHops += int64(len(buf))
		}
	})
	fmt.Fprintf(log, "  tables lane timed through %s\n", lane)
	lm.set("tables.lane_ns_per_pair", perPair(d, pairs), "ns")
	checkHops("tables lane", laneHops, kernelHops)

	// shard: the engine at its defaults.
	eng, err := shard.New(nw, shard.Config{})
	if err != nil {
		return nil, err
	}
	var shardHops int64
	d, a = timedPass(func() {
		st0 = eng.Stats()
		shardHops = 0
		for i := range srcs {
			buf, _ = eng.AppendRouteRanks(buf[:0], srcs[i], dsts[i])
			shardHops += int64(len(buf))
		}
	})
	st1 = eng.Stats()
	lm.set("shard.engine_ns_per_pair", perPair(d, pairs), "ns")
	lm.set("shard.engine_allocs_per_pair", a/float64(pairs), "allocs")
	lm.set("shard.hit_ratio", ratio(st1.Hits-st0.Hits, st1.Hits-st0.Hits+st1.Misses-st0.Misses), "ratio")
	checkHops("shard engine", shardHops, kernelHops)

	// serve batcher: one submitter, default config.
	nReq := min(p.blocks(), maxLayerRequests)
	submit, wait := batcherLayer(nw, p, nReq)
	lm.setQ("serve.batcher_submit_us_p50", quantile(submit, 0.5)*1e6, "us", len(submit))
	lm.setQ("serve.batcher_wait_us_p50", quantile(wait, 0.5)*1e6, "us", len(wait))

	// serve HTTP: NewService on loopback, one connection.
	httpReq, err := httpLayer(nw, p, v, nReq)
	if errors.Is(err, errWrongRoute) {
		return wrongResult(phaseStats{attempted: 1, failed: 1, wrong: err}, log), nil
	}
	if err != nil {
		return nil, err
	}
	self := make([]float64, nReq)
	for i := range self {
		self[i] = httpReq[i] - submit[i]
	}
	lm.setQ("serve.http_request_us_p50", quantile(httpReq, 0.5)*1e6, "us", len(httpReq))
	lm.setQ("serve.http_self_us_p50", quantile(self, 0.5)*1e6, "us", len(self))

	tr, err := tracedRun(w, nw, p, v, seed, seconds, out, routerNs, lm)
	if err != nil {
		return nil, err
	}
	if tr.wrong != nil {
		return wrongResult(tr, log), nil
	}
	res := &result{Correct: len(mismatch) == 0, Attempted: tr.attempted + 2*nReq, Failed: tr.failed, Metrics: lm.m}
	for _, m := range mismatch {
		fmt.Fprintf(log, "LAYER MISMATCH: %s\n", m)
	}
	return res, nil
}

// rankSink keeps the timed Rank calls from being optimised away.
var rankSink int64

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// batcherLayer submits the first n pool blocks one at a time through
// a default batcher (after a warm pass), and returns per request the
// Submit time and the Submit time minus RouteManyInto on the same
// pairs and router, in seconds.
func batcherLayer(nw *core.Network, p *pool, n int) (submit, wait []float64) {
	cr := core.NewCachedRouter(nw, core.CacheConfig{})
	b := serve.NewBatcher(cr, serve.Config{})
	defer b.Close()
	pass := func(timed []float64) {
		for i := 0; i < n; i++ {
			lo, hi := p.span(i)
			j := b.NewJob()
			for x := lo; x < hi; x++ {
				j.AddPair(p.srcs[x], p.dsts[x])
			}
			t0 := time.Now()
			if err := b.Submit(j); err != nil {
				panic(err) // one submitter never fills the queue
			}
			if timed != nil {
				timed[i] = time.Since(t0).Seconds()
			}
			b.Release(j)
		}
	}
	pass(nil)
	submit = make([]float64, n)
	pass(submit)
	bulk := &core.BulkRoutes{}
	wait = make([]float64, n)
	for i := 0; i < n; i++ {
		lo, hi := p.span(i)
		t0 := time.Now()
		if err := cr.RouteManyInto(bulk, p.srcs[lo:hi], p.dsts[lo:hi]); err != nil {
			panic(err)
		}
		wait[i] = submit[i] - time.Since(t0).Seconds()
	}
	return submit, wait
}

// inProcessServer serves router through serve.NewService at its
// defaults on an ephemeral loopback port.
type inProcessServer struct {
	svc  *serve.Service
	http *http.Server
	addr string
}

func startInProcess(router core.Router) (*inProcessServer, error) {
	svc := serve.NewService(router, serve.ServiceConfig{})
	mux := http.NewServeMux()
	svc.RegisterOn(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Drain()
		return nil, err
	}
	s := &inProcessServer{svc: svc, http: &http.Server{Handler: mux}, addr: ln.Addr().String()}
	go s.http.Serve(ln)
	return s, nil
}

func (s *inProcessServer) stop() {
	s.http.Close()
	s.svc.Drain()
}

// httpLayer posts the first n pool blocks over one connection to an
// in-process service (after a warm pass) and returns each request's
// time in seconds.  Every response is verified off the clock.
func httpLayer(nw *core.Network, p *pool, v *verifier, n int) ([]float64, error) {
	s, err := startInProcess(core.NewCachedRouter(nw, core.CacheConfig{}))
	if err != nil {
		return nil, err
	}
	defer s.stop()
	c := newClient(s.addr, 1)
	defer c.close()
	sc := v.scratch()
	times := make([]float64, n)
	var buf []byte
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if buf, err = c.post(p.bodies[i], buf); err != nil {
				return nil, err
			}
			times[i] = time.Since(t0).Seconds()
			lo, _ := p.span(i)
			if _, err := v.checkResponse(p, lo, p.reqPairs, buf, pass == 0, sc); err != nil {
				return nil, err
			}
		}
	}
	return times, nil
}

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"supercayley/internal/core"
)

// The traced run stands up the served stack in-process —
// core.NewCachedRouter feeding serve.NewService on loopback — and
// records two kinds of span from the benchmark's own code:
//
//   - request: one per client request, send to response read;
//   - route_many: one per batch the batcher flushes, recorded by a
//     core.Router wrapper around RouteManyInto (the interface the
//     batcher flushes through), listing the requests it routed.
//
// Spans stay in memory and are written as Chrome trace-event JSON when
// the run ends.  A request's self time is its span minus the
// route_many spans that cover it.

// span is one recorded interval, relative to the recorder's epoch.
type span struct {
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// batchSpan is a route_many span: the pairs it routed, and the first
// pair of each request-sized run of them (the batcher concatenates
// whole jobs, so each run is one request).
type batchSpan struct {
	span
	pairs int
	heads [][2]int64
	reqs  []int // resolved request blocks
}

type reqSpan struct {
	span
	block int
}

type recorder struct {
	epoch    time.Time
	reqPairs int
	mu       sync.Mutex
	batches  []batchSpan
	reqs     []reqSpan
}

func (r *recorder) request(block int, sent, done time.Time) {
	r.mu.Lock()
	r.reqs = append(r.reqs, reqSpan{span{sent.Sub(r.epoch), done.Sub(r.epoch)}, block})
	r.mu.Unlock()
}

// spanRouter is the served core.Router with a route_many span around
// each flush.
type spanRouter struct {
	core.Router
	rec *recorder
}

func (s *spanRouter) RouteManyInto(out *core.BulkRoutes, srcs, dsts []int64) error {
	t0 := time.Now()
	err := s.Router.RouteManyInto(out, srcs, dsts)
	t1 := time.Now()
	b := batchSpan{span: span{t0.Sub(s.rec.epoch), t1.Sub(s.rec.epoch)}, pairs: len(srcs)}
	for off := 0; off < len(srcs); off += s.rec.reqPairs {
		b.heads = append(b.heads, [2]int64{srcs[off], dsts[off]})
	}
	s.rec.mu.Lock()
	s.rec.batches = append(s.rec.batches, b)
	s.rec.mu.Unlock()
	return err
}

// resolve assigns each batch's request-sized runs to the requests that
// sent them: the request whose first pair matches and whose span
// contains the batch.  It returns how many runs matched no request.
func (r *recorder) resolve(p *pool) (unmatched int) {
	byHead := map[[2]int64][]int{}
	for i, q := range r.reqs {
		lo, _ := p.span(q.block)
		h := [2]int64{p.srcs[lo], p.dsts[lo]}
		byHead[h] = append(byHead[h], i)
	}
	for bi := range r.batches {
		b := &r.batches[bi]
		for _, h := range b.heads {
			found := -1
			for _, i := range byHead[h] {
				if q := r.reqs[i]; q.start <= b.start && b.end <= q.end {
					found = i
					break
				}
			}
			if found < 0 {
				unmatched++
				continue
			}
			b.reqs = append(b.reqs, found)
		}
	}
	return unmatched
}

// tracedRun drives the workload's open loop through two in-process
// stacks, one plain and one with the span recorder, alternating
// plain/recorded phases twice, and sets the trace.*, reconcile.* and
// loadgen.* metrics.
func tracedRun(w workload, nw *core.Network, p *pool, v *verifier, seed int64, seconds int, out string, routerNs float64, lm *layerMetrics) (phaseStats, error) {
	conns := numConns()
	rec := &recorder{epoch: time.Now(), reqPairs: w.reqPairs}
	plain, err := startInProcess(core.NewCachedRouter(nw, core.CacheConfig{}))
	if err != nil {
		return phaseStats{}, err
	}
	defer plain.stop()
	traced, err := startInProcess(&spanRouter{Router: core.NewCachedRouter(nw, core.CacheConfig{}), rec: rec})
	if err != nil {
		return phaseStats{}, err
	}
	defer traced.stop()
	cPlain, cTraced := newClient(plain.addr, conns), newClient(traced.addr, conns)
	defer cPlain.close()
	defer cTraced.close()
	var res phaseStats
	for _, c := range []*client{cPlain, cTraced} {
		if err := warm(c, p, v); errors.Is(err, errWrongRoute) {
			return phaseStats{attempted: 1, failed: 1, wrong: err}, nil
		} else if err != nil {
			return phaseStats{}, err
		}
	}
	rec.mu.Lock()
	rec.batches = rec.batches[:0] // warm-up flushes are not part of the run
	rec.mu.Unlock()

	n := openRequests(w, seconds)
	var offP50, onP50, late []float64
	for r := 0; r < 2; r++ {
		off := openLoop(cPlain, p, v, conns, w.rate, n, 2*r*n, seed^int64(r+1)<<24, nil)
		on := openLoop(cTraced, p, v, conns, w.rate, n, (2*r+1)*n, seed^int64(r+1)<<28, rec.request)
		res.add(off.phaseStats)
		res.add(on.phaseStats)
		offP50 = append(offP50, quantile(off.latencies, 0.5))
		onP50 = append(onP50, quantile(on.latencies, 0.5))
		late = append(late, off.late...)
	}
	lm.setQ("loadgen.late_p99_us", quantile(late, 0.99)*1e6, "us", len(late))
	lm.set("trace.overhead_pct", 100*(median(onP50)/median(offP50)-1), "%")

	unmatched := rec.resolve(p)
	covered := make([]time.Duration, len(rec.reqs))
	var batchPairs, batchUs []float64
	var routeManyNs, routeManyPairs float64
	for _, b := range rec.batches {
		batchPairs = append(batchPairs, float64(b.pairs))
		batchUs = append(batchUs, b.dur().Seconds()*1e6)
		routeManyNs += float64(b.dur().Nanoseconds())
		routeManyPairs += float64(b.pairs)
		for _, i := range b.reqs {
			covered[i] += b.dur()
		}
	}
	var reqUs, selfUs []float64
	var sumReq, sumCovered time.Duration
	for i, q := range rec.reqs {
		reqUs = append(reqUs, q.dur().Seconds()*1e6)
		selfUs = append(selfUs, (q.dur()-covered[i]).Seconds()*1e6)
		sumReq += q.dur()
		sumCovered += covered[i]
	}
	lm.set("serve.batch_pairs_mean", mean(batchPairs), "pairs")
	lm.setQ("trace.request_us_p50", quantile(reqUs, 0.5), "us", len(reqUs))
	lm.setQ("trace.request_self_us_p50", quantile(selfUs, 0.5), "us", len(selfUs))
	lm.setQ("trace.route_many_us_p50", quantile(batchUs, 0.5), "us", len(batchUs))
	lm.set("trace.route_many_share", float64(sumCovered)/float64(sumReq), "ratio")
	lm.set("reconcile.route_many_vs_router", routeManyNs/routeManyPairs/routerNs, "ratio")
	fmt.Fprintf(lm.log, "  traced: %d request spans, %d route_many spans, %d request runs unmatched\n",
		len(rec.reqs), len(rec.batches), unmatched)
	path, err := rec.write(out, w.name, seed, covered)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(lm.log, "  spans written to %s\n", path)
	return res, nil
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, loadable in Perfetto or chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as <out>/spans/<workload>-seed<seed>.json.
func (r *recorder) write(out, workload string, seed int64, covered []time.Duration) (string, error) {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	events := make([]chromeEvent, 0, len(r.reqs)+len(r.batches))
	for i, q := range r.reqs {
		events = append(events, chromeEvent{Name: "request", Ph: "X", Ts: us(q.start), Dur: us(q.dur()), Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "block": q.block, "self_us": us(q.dur() - covered[i])}})
	}
	for _, b := range r.batches {
		events = append(events, chromeEvent{Name: "route_many", Ph: "X", Ts: us(b.start), Dur: us(b.dur()), Pid: 1, Tid: 2,
			Args: map[string]any{"pairs": b.pairs, "requests": b.reqs}})
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return "", err
	}
	dir := filepath.Join(out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return path, os.WriteFile(path, blob, 0o644)
}

package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"supercayley/internal/sim"
)

// client posts SCGB frames to /route/bulk over at most conns
// keep-alive loopback connections.
type client struct {
	url string
	hc  *http.Client
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{url: "http://" + addr + "/route/bulk", hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// numConns is the load generator's connection count: one per CPU.
func numConns() int { return runtime.NumCPU() }

// errStatus marks a non-200 answer (429 and 503 included).
var errStatus = errors.New("non-200 status")

// post sends one frame and reads the whole response into buf.
func (c *client) post(body, buf []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return buf, err
	}
	req.Header.Set("Content-Type", bulkContentType)
	res, err := c.hc.Do(req)
	if err != nil {
		return buf, err
	}
	defer res.Body.Close()
	buf = buf[:0]
	if n := res.ContentLength; n >= 0 {
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		_, err = io.ReadFull(res.Body, buf)
	} else {
		b := bytes.NewBuffer(buf)
		_, err = b.ReadFrom(res.Body)
		buf = b.Bytes()
	}
	if err != nil {
		return buf, fmt.Errorf("reading response: %w", err)
	}
	if res.StatusCode != http.StatusOK {
		return buf, fmt.Errorf("%w %d: %s", errStatus, res.StatusCode, bytes.TrimSpace(buf))
	}
	return buf, nil
}

// request sends pool block b and verifies its routes, returning the
// summed route length.
func (c *client) request(p *pool, v *verifier, b int, buf []byte, s *replayScratch) ([]byte, int64, error) {
	buf, err := c.post(p.bodies[b%p.blocks()], buf)
	if err != nil {
		return buf, 0, err
	}
	lo, _ := p.span(b)
	hops, err := v.checkResponse(p, lo, p.reqPairs, buf, false, s)
	return buf, hops, err
}

// phaseStats counts one phase's requests and the first wrong route.
type phaseStats struct {
	attempted, failed int
	pairs, hops       int64 // over verified requests
	wrong             error // first route that failed verification
	firstErr          error // first failure of any kind
}

func (ps *phaseStats) add(o phaseStats) {
	ps.attempted += o.attempted
	ps.failed += o.failed
	ps.pairs += o.pairs
	ps.hops += o.hops
	if ps.wrong == nil {
		ps.wrong = o.wrong
	}
	if ps.firstErr == nil {
		ps.firstErr = o.firstErr
	}
}

func (ps *phaseStats) record(pairs int, hops int64, err error) {
	ps.attempted++
	if err != nil {
		ps.failed++
		if ps.firstErr == nil {
			ps.firstErr = err
		}
		if ps.wrong == nil && errors.Is(err, errWrongRoute) {
			ps.wrong = err
		}
		return
	}
	ps.pairs += int64(pairs)
	ps.hops += hops
}

// warm sends every pool pair once, in chunks of at least 1024 pairs
// (so small-request workloads warm as fast as bulk ones), on one
// connection, verifying each route by replay and memoising it.
// Nothing here is timed.
func warm(c *client, p *pool, v *verifier) error {
	chunk := p.reqPairs
	for chunk < 1024 && 2*chunk <= len(p.srcs) {
		chunk *= 2
	}
	s := v.scratch()
	var buf []byte
	for lo := 0; lo < len(p.srcs); lo += chunk {
		hi := min(lo+chunk, len(p.srcs))
		var err error
		if buf, err = c.post(encodeRequest(p.srcs[lo:hi], p.dsts[lo:hi]), buf); err != nil {
			return fmt.Errorf("warm-up request at pair %d: %w", lo, err)
		}
		if _, err := v.checkResponse(p, lo, hi-lo, buf, true, s); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// closedResult is a closed-loop phase: every connection sends its next
// request as soon as the previous one returns.
type closedResult struct {
	phaseStats
	pairsPerSec float64 // verified pairs completed within the phase
}

// closedLoop runs conns connections for dur, cycling through the pool's
// blocks from block 0.
func closedLoop(c *client, p *pool, v *verifier, conns int, dur time.Duration) closedResult {
	var next atomic.Int64
	end := time.Now().Add(dur)
	per := make([]phaseStats, conns)
	inTime := make([]int64, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := v.scratch()
			var buf []byte
			for time.Now().Before(end) {
				var hops int64
				var err error
				buf, hops, err = c.request(p, v, int(next.Add(1)-1), buf, s)
				per[w].record(p.reqPairs, hops, err)
				if err == nil && !time.Now().After(end) {
					inTime[w] += int64(p.reqPairs)
				}
			}
		}(w)
	}
	wg.Wait()
	var r closedResult
	var pairs int64
	for w := range per {
		r.add(per[w])
		pairs += inTime[w]
	}
	r.pairsPerSec = float64(pairs) / dur.Seconds()
	return r
}

// openResult is an open-loop phase: Poisson arrivals at a fixed rate.
type openResult struct {
	phaseStats
	latencies []float64 // seconds, due time → response read, verified requests only
	late      []float64 // seconds a sleeping generator woke past a due time
	elapsed   time.Duration
}

// openLoop offers n requests (pool blocks first..first+n-1) at Poisson arrival
// times drawn from seed before the phase starts.  conns workers take
// arrivals in order; a worker that is early sleeps until the due
// time, one that is late sends at once, so a slow response delays
// every later arrival and the delay lands in their latency.  Each
// latency runs from the due time to the response read; verification
// happens after the clock stops.  onRequest, when non-nil, sees each
// request's block and client-side send/receive times.
func openLoop(c *client, p *pool, v *verifier, conns int, rate float64, n, first int, seed int64,
	onRequest func(b int, sent, done time.Time)) openResult {
	due := sim.PoissonArrivals(n, rate, seed)
	lat := make([]float64, n)
	ok := make([]bool, n)
	var next atomic.Int64
	per := make([]phaseStats, conns)
	lates := make([][]float64, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := v.scratch()
			var buf []byte
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				at := start.Add(due[i])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
					lates[w] = append(lates[w], time.Since(at).Seconds())
				}
				sent := time.Now()
				var err error
				buf, err = c.post(p.bodies[(first+i)%p.blocks()], buf)
				done := time.Now()
				var hops int64
				if err == nil {
					lo, _ := p.span(first + i)
					hops, err = v.checkResponse(p, lo, p.reqPairs, buf, false, s)
				}
				per[w].record(p.reqPairs, hops, err)
				if err == nil {
					lat[i] = done.Sub(at).Seconds()
					ok[i] = true
				}
				if onRequest != nil {
					onRequest(first+i, sent, done)
				}
			}
		}(w)
	}
	wg.Wait()
	var r openResult
	r.elapsed = time.Since(start)
	for w := range per {
		r.add(per[w])
		r.late = append(r.late, lates[w]...)
	}
	for i := range lat {
		if ok[i] {
			r.latencies = append(r.latencies, lat[i])
		}
	}
	return r
}

package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// rounds is how many closed-loop/open-loop phase pairs a run
// alternates through; each figure is taken across them (see
// summarize).
const rounds = 12

// round is one closed-loop/open-loop pair.
type round struct {
	rate float64   // closed-loop verified pairs per second
	lat  []float64 // open-loop latencies of verified requests, seconds
}

// summarize returns the run's timings: the median of the rounds'
// closed-loop rates, and the lowest of their open-loop p50s and p99s.
//
// On a shared 2-vCPU host the latency tail is set by stalls of 10-35
// ms that come in bursts.  Each delays every arrival queued behind it,
// so one stall more or less moved a round's p99 from 7 to 35 ms, and
// a noisy stretch of a minute moved the pooled p99 of whole runs by a
// third.  Host noise only ever adds latency, so the best round is the
// figure of the program itself; a change that slows the program slows
// every round, the best one too.  The closed-loop rate drifts with the
// host's CPU speed over the whole run rather than in bursts, and its
// median was the steadiest.
func summarize(rs []round) (rate, p50, p99 float64) {
	p50, p99 = math.Inf(1), math.Inf(1)
	var rates []float64
	for _, r := range rs {
		rates = append(rates, r.rate)
		if len(r.lat) == 0 { // every open-loop request of the round failed
			continue
		}
		p50 = min(p50, quantile(r.lat, 0.5))
		p99 = min(p99, quantile(r.lat, 0.99))
	}
	return median(rates), p50, p99
}

// beyond is how many of n samples lie past the nearest-rank q-quantile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

// openRequests is the open-loop request count of one round: the
// workload's rate for the round's share of three quarters of the
// measured seconds, and never fewer than 1000, so at least ten samples
// lie beyond each round's p99.
func openRequests(w workload, seconds int) int {
	return max(1000, int(math.Round(w.rate*float64(seconds)*3/(4*rounds))))
}

// closedDuration is the closed-loop phase of one round: the round's
// share of the other quarter of the measured seconds.
func closedDuration(seconds int) time.Duration {
	return time.Duration(seconds) * time.Second / (4 * rounds)
}

// runEndToEnd measures the workload against `scg serve` with tracing
// off: set-up (median of setupRuns execs), an untimed warm-up that
// verifies and memoises every pool route, then the rounds, each a
// closedDuration closed-loop phase followed by an open-loop phase of
// openRequests requests.
func runEndToEnd(w workload, p *pool, v *verifier, seed int64, seconds int, scg string, prov *provenance, log io.Writer) (*result, error) {
	conns := numConns()
	// The generator only posts pre-encoded frames and compares bytes;
	// one P leaves the other CPUs to the server (paired runs on a 2-vCPU
	// host gave higher throughput and lower tails than GOMAXPROCS=2).
	runtime.GOMAXPROCS(1)
	prov.LoadgenGOMAXPROCS = 1
	steal0 := readCPUTicks()
	setups := make([]float64, 0, setupRuns)
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < setupRuns; i++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(scg, w); err != nil {
			return nil, err
		}
		c := newClient(srv.addr, 1)
		resp, err := c.post(p.bodies[0], nil)
		setups = append(setups, time.Since(t0).Seconds())
		c.close()
		if err != nil {
			srv.stop()
			msg := strings.TrimSpace(srv.stderr.String())
			srv = nil
			return nil, fmt.Errorf("first request to scg serve: %w (%s)", err, msg)
		}
		if _, err := v.checkResponse(p, 0, p.reqPairs, resp, false, v.scratch()); err != nil {
			return wrongResult(phaseStats{attempted: 1, failed: 1, wrong: err}, log), nil
		}
	}
	prov.ServerGOMAXPROCS = serverGOMAXPROCS()
	prov.print(log)
	fmt.Fprintf(log, "setup: %d execs, median %.4f s (each %.4f)\n", len(setups), median(setups), setups)

	c := newClient(srv.addr, conns)
	defer c.close()
	if err := warm(c, p, v); err != nil {
		if errors.Is(err, errWrongRoute) {
			return wrongResult(phaseStats{attempted: 1, failed: 1, wrong: err}, log), nil
		}
		return nil, err
	}
	var all, open phaseStats
	var late []float64
	rs := make([]round, rounds)
	nOpen := openRequests(w, seconds)
	for r := range rs {
		t0 := readCPUTicks()
		closed := closedLoop(c, p, v, conns, closedDuration(seconds))
		o := openLoop(c, p, v, conns, w.rate, nOpen, r*nOpen, seed^int64(r+1)<<20, nil)
		rs[r] = round{rate: closed.pairsPerSec, lat: o.latencies}
		all.add(closed.phaseStats)
		all.add(o.phaseStats)
		open.add(o.phaseStats)
		late = append(late, o.late...)
		fmt.Fprintf(log, "round %d: %.1f%% stolen; closed loop %d conns, %d requests, %.0f verified pairs/s; open loop %.0f req/s offered, %d requests in %.2f s, latency p50 %.4f ms p99 %.4f ms over n=%d (%d beyond p99)\n",
			r, readCPUTicks().stealPct(t0), conns, closed.attempted, closed.pairsPerSec, w.rate, o.attempted, o.elapsed.Seconds(),
			quantile(o.latencies, 0.5)*1e3, quantile(o.latencies, 0.99)*1e3, len(o.latencies), beyond(len(o.latencies), 0.99))
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	if all.wrong != nil {
		return wrongResult(all, log), nil
	}
	if all.firstErr != nil {
		fmt.Fprintf(log, "first failed request: %v\n", all.firstErr)
	}
	if open.pairs == 0 {
		return nil, fmt.Errorf("no open-loop request succeeded: %v", open.firstErr)
	}
	tput, p50, p99 := summarize(rs)
	fmt.Fprintf(log, "%d rounds: median %.0f pairs/s; lowest round latency p50 %.4f ms, lowest round p99 %.4f ms (each round n=%d, %d beyond p99); generator late p99 %.1f µs over n=%d\n",
		rounds, tput, p50*1e3, p99*1e3, nOpen, beyond(nOpen, 0.99), quantile(late, 0.99)*1e6, len(late))
	fmt.Fprintf(log, "host: %.1f%% of CPU time stolen by the hypervisor during the run\n", readCPUTicks().stealPct(steal0))
	fmt.Fprintf(log, "requests: %d attempted, %d failed; server peak RSS %.1f MiB\n", all.attempted, all.failed, rss)
	return &result{
		Correct:   true,
		Attempted: all.attempted,
		Failed:    all.failed,
		Metrics: map[string]metric{
			"setup_s":                {median(setups), "s"},
			"throughput_pairs_per_s": {tput, "pairs/s"},
			"latency_p50_ms":         {p50 * 1e3, "ms"},
			"latency_p99_ms":         {p99 * 1e3, "ms"},
			"success_ratio":          {1 - float64(all.failed)/float64(all.attempted), "ratio"},
			"hops_per_pair":          {float64(open.hops) / float64(open.pairs), "hops"},
			"peak_rss_mb":            {rss, "MiB"},
		},
	}, nil
}

// serverGOMAXPROCS is the GOMAXPROCS `scg serve` runs with: it inherits
// this process's environment and CPU affinity and sets neither, so the
// Go runtime picks GOMAXPROCS from the variable if set, else the CPU
// count.
func serverGOMAXPROCS() int {
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		return v
	}
	return runtime.NumCPU()
}

// wrongResult is the result of a run that received a wrong route: it
// reports correct=false and no metrics, and the run exits non-zero.
func wrongResult(ps phaseStats, log io.Writer) *result {
	fmt.Fprintf(log, "WRONG ROUTE: %v\n", ps.wrong)
	return &result{Correct: false, Attempted: ps.attempted, Failed: ps.failed, Metrics: map[string]metric{}}
}

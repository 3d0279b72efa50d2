// Observability subcommands: serve, stats, and bench-obs.  They live
// outside main.go on purpose — main.go carries a file-wide
// scg:deterministic directive, and these commands legitimately touch
// the wall clock and the network, which that directive bans.

package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"supercayley/internal/comm"
	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/obs"
	"supercayley/internal/perm"
	"supercayley/internal/serve"
	"supercayley/internal/sim"
)

// newServeMux wires the debug endpoints `scg serve` exposes.  Split
// from cmdServe so tests can drive it through httptest without
// binding a real listener.
func newServeMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(obs.Default.PrometheusText())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		blob, err := obs.Default.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(blob)
	})
	mux.HandleFunc("/trace/routes", func(w http.ResponseWriter, _ *http.Request) {
		events := obs.RouteTrace.Snapshot()
		if events == nil {
			events = []obs.TraceEvent{} // render an empty ring as [], not null
		}
		blob, err := json.MarshalIndent(events, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(blob, '\n'))
	})
	mux.HandleFunc("/trace/requests", func(w http.ResponseWriter, _ *http.Request) {
		events := obs.Flight.Snapshot()
		if events == nil {
			events = []obs.JourneyEvent{} // render an empty recorder as [], not null
		}
		blob, err := json.MarshalIndent(events, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(blob, '\n'))
	})
	mux.HandleFunc("/trace/chrome", func(w http.ResponseWriter, _ *http.Request) {
		// Chrome trace-event format: load in chrome://tracing or Perfetto.
		w.Header().Set("Content-Type", "application/json")
		w.Write(obs.Flight.ChromeTrace())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// routeWorkload routes a seeded zipfian workload through a fresh
// cached engine on nw, populating the registry, the route cache
// collectors, and the route tracer as a side effect.
func routeWorkload(nw *core.Network, pairs int, seed int64, skew float64) (sim.ThroughputResult, error) {
	nt, err := comm.SCGNet(nw)
	if err != nil {
		return sim.ThroughputResult{}, err
	}
	engine := comm.NewSCGEngine(nw)
	wl := sim.ZipfWorkload(nt.N(), pairs, seed, skew)
	return sim.Throughput(nt, engine.AppendRoute, wl)
}

// routeRankWorkload routes a seeded zipfian workload through a fresh
// cached router by Lehmer rank — the rank-addressed entry point is the
// one that samples the deep stage timers (cache hit, table walk,
// kernel), so `scg stats -stages` has a breakdown to print.
func routeRankWorkload(nw *core.Network, pairs int, seed int64, skew float64) (float64, error) {
	cr := core.NewCachedRouter(nw, core.CacheConfig{})
	nodes := perm.Factorial(nw.K())
	wl := sim.ZipfWorkload(int(nodes), pairs, seed, skew)
	var buf []gens.GenIndex
	t0 := time.Now()
	for i := 0; i < wl.Pairs(); i++ {
		var err error
		buf, err = cr.AppendRouteRanks(buf[:0], int64(wl.Srcs[i]), int64(wl.Dsts[i]))
		if err != nil {
			return 0, err
		}
	}
	return float64(wl.Pairs()) / time.Since(t0).Seconds(), nil
}

// serveFlags bundles the routing-service knobs of `scg serve` so the
// flag roster stays testable (the cmd drift test walks this
// function's AST).
type serveFlags struct {
	batch        *int
	maxWait      *time.Duration
	queue        *int
	workers      *int
	maxBulk      *int
	rate         *float64
	burst        *float64
	drainWait    *time.Duration
	slo          *time.Duration
	sloObjective *float64
}

func addServeFlags(fs *flag.FlagSet) *serveFlags {
	return &serveFlags{
		batch:        fs.Int("batch", 512, "flush a batch when its pair count reaches this"),
		maxWait:      fs.Duration("max-wait", 250*time.Microsecond, "flush a non-empty batch when its oldest job has waited this long"),
		queue:        fs.Int("queue", 1024, "bounded intake queue capacity in jobs (full queue answers 429)"),
		workers:      fs.Int("route-workers", 0, "flush workers draining the batch queue (0 = GOMAXPROCS)"),
		maxBulk:      fs.Int("max-bulk", 65536, "largest pair count one bulk request may carry"),
		rate:         fs.Float64("rate", 0, "per-client admission rate in pairs/sec (0 = no admission control)"),
		burst:        fs.Float64("burst", 0, "per-client token-bucket burst in pairs (0 = one second of -rate)"),
		drainWait:    fs.Duration("drain-wait", 5*time.Second, "graceful-shutdown budget for in-flight requests on SIGINT/SIGTERM"),
		slo:          fs.Duration("slo", 5*time.Millisecond, "request-latency SLO target backing the scg_slo_* burn-rate gauges (0 disables)"),
		sloObjective: fs.Float64("slo-objective", 0.99, "fraction of requests that must meet -slo (error budget = 1 - objective)"),
	}
}

func (sf *serveFlags) serviceConfig() serve.ServiceConfig {
	return serve.ServiceConfig{
		Batch: serve.Config{
			MaxBatch:  *sf.batch,
			MaxWait:   *sf.maxWait,
			QueueJobs: *sf.queue,
			Workers:   *sf.workers,
			MaxBulk:   *sf.maxBulk,
		},
		Limit: serve.LimitConfig{Rate: *sf.rate, Burst: *sf.burst},
	}
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8650", "listen address (use :0 for an ephemeral port)")
	sample := fs.Uint64("trace-sample", 64, "route-trace sampling interval (power of two; 1 = every route)")
	warm := fs.Int("warm", 0, "route this many seeded pairs on -family before serving (0 = none)")
	nf := addNetFlags(fs)
	sf := addServeFlags(fs)
	seed := fs.Int64("seed", 1, "workload seed for -warm")
	skew := fs.Float64("skew", 1.2, "zipf exponent for -warm (> 1)")
	fs.Parse(args)
	if *sample == 0 || *sample&(*sample-1) != 0 {
		return fmt.Errorf("-trace-sample must be a power of two, got %d", *sample)
	}
	obs.RouteTrace.SetSampling(*sample)
	nw, err := nf.network()
	if err != nil {
		return err
	}
	if *warm > 0 {
		res, err := routeWorkload(nw, *warm, *seed, *skew)
		if err != nil {
			return err
		}
		fmt.Printf("scg serve: warmed with %d pairs on %s (mean route len %.2f)\n",
			res.Pairs, nw.Name(), res.MeanRouteLen)
	}
	router := core.NewCachedRouter(nw, core.CacheConfig{})
	// Rolling-window telemetry: the window ring's ticker feeds the
	// stage and SLO gauges; the SLO itself is optional (-slo 0).
	if *sf.slo > 0 {
		obs.NewSLO(obs.Default, obs.Windows, obs.SLOConfig{
			Hist:      "scg_serve_request_ns",
			LatencyNs: uint64(*sf.slo),
			Objective: *sf.sloObjective,
		})
	}
	obs.Windows.Start()
	svc := serve.NewService(router, sf.serviceConfig())
	mux := newServeMux()
	svc.RegisterOn(mux)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("scg serve: routing %s, listening on http://%s\n", nw.Name(), ln.Addr())
	fmt.Println("scg serve: endpoints: /route /route/bulk /metrics /metrics.json /trace/routes /trace/requests /trace/chrome /debug/vars /debug/pprof/")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// After the first signal a second one kills the process outright.
	context.AfterFunc(ctx, stop)
	return serveAndDrain(ctx, newHTTPServer(mux), ln, svc, *sf.drainWait)
}

// Connection timeouts of the `scg serve` http.Server.  They bound how
// long a slow or stalled client holds a connection and its goroutine:
// a client that never finishes its header is cut after
// readHeaderTimeout, so it can neither pin the server nor stall drain.
const (
	readHeaderTimeout = 2 * time.Second
	// readTimeout covers header and body; the largest bulk body the
	// default -max-bulk admits is 1 MiB.
	readTimeout = 30 * time.Second
	// writeTimeout must stay above the 30 s default duration of
	// /debug/pprof/profile: the handler refuses any profile at least
	// as long as the server's WriteTimeout, so a shorter one would
	// break the default CPU profile.
	writeTimeout = 60 * time.Second
	idleTimeout  = 2 * time.Minute
)

// newHTTPServer is the http.Server `scg serve` runs handler on.
func newHTTPServer(handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// serveAndDrain serves ln until srv fails or ctx is done, then drains
// gracefully: stop accepting connections, let in-flight requests
// finish within drainWait, then drain the batching pipeline
// (remaining batches flush, new admissions get 503).
func serveAndDrain(ctx context.Context, srv *http.Server, ln net.Listener, svc *serve.Service, drainWait time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		svc.Drain()
		return err
	case <-ctx.Done():
		fmt.Println("scg serve: shutting down (draining in-flight batches)")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drainWait)
		defer cancel()
		err := srv.Shutdown(shutdownCtx)
		svc.Drain()
		fmt.Println("scg serve: drained")
		return err
	}
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	nf := addNetFlags(fs)
	pairs := fs.Int("pairs", 20000, "routed (src, dst) pairs before the dump (0 = dump as-is)")
	seed := fs.Int64("seed", 1, "workload seed")
	skew := fs.Float64("skew", 1.2, "zipf exponent (> 1)")
	format := fs.String("format", "prom", "dump format: prom or json")
	stages := fs.Bool("stages", false, "print the per-stage latency breakdown instead of the metric dump (routes by rank so the sampled deep-stage timers fire)")
	fs.Parse(args)
	if *stages {
		if *pairs > 0 {
			nw, err := nf.network()
			if err != nil {
				return err
			}
			pps, err := routeRankWorkload(nw, *pairs, *seed, *skew)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "scg stats: routed %d rank pairs on %s (%.0f pairs/s)\n",
				*pairs, nw.Name(), pps)
		}
		snap := obs.Default.Snapshot()
		fmt.Print("stage breakdown (cumulative):\n" + obs.FormatStageTable(obs.StageBreakdown(nil, &snap)))
		return nil
	}
	if *pairs > 0 {
		nw, err := nf.network()
		if err != nil {
			return err
		}
		res, err := routeWorkload(nw, *pairs, *seed, *skew)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "scg stats: routed %d pairs on %s (%.0f pairs/s, mean route len %.2f)\n",
			res.Pairs, nw.Name(), res.PairsPerSec, res.MeanRouteLen)
	}
	switch *format {
	case "prom":
		os.Stdout.Write(obs.Default.PrometheusText())
	case "json":
		blob, err := obs.Default.JSON()
		if err != nil {
			return err
		}
		os.Stdout.Write(blob)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	return nil
}

func cmdBenchObs(args []string) error {
	fs := flag.NewFlagSet("bench-obs", flag.ExitOnError)
	family := fs.String("family", "MS", "network family measured at k symbols")
	k := fs.Int("k", 8, "symbols (k = 8 → 40320 nodes, the snapshot protocol)")
	pairs := fs.Int("pairs", 200000, "workload pairs per timed pass")
	rounds := fs.Int("rounds", 5, "alternating disabled/enabled passes; best per side is kept")
	seed := fs.Int64("seed", 1, "workload seed")
	skew := fs.Float64("skew", 1.2, "zipf exponent (> 1)")
	out := fs.String("out", "", "write the JSON report here (default: stdout only)")
	pf := addProfileFlags(fs)
	fs.Parse(args)
	f, err := core.ParseFamily(*family)
	if err != nil {
		return err
	}
	nw, err := benchNetworkAtK(f, *k)
	if err != nil {
		return err
	}
	stopProf, err := pf.start()
	if err != nil {
		return err
	}
	defer stopProf()
	rep, err := comm.BenchObs(comm.ObsBenchConfig{
		Network: nw, Pairs: *pairs, Rounds: *rounds, Seed: *seed, Skew: *skew,
	})
	if err != nil {
		return err
	}
	fmt.Printf("telemetry overhead on %s, warm %s workload (%d pairs, best of %d rounds):\n",
		rep.Net, rep.Workload, rep.Pairs, rep.Rounds)
	fmt.Printf("  obs disabled: %12.0f pairs/s\n", rep.DisabledPairsPerSec)
	fmt.Printf("  obs enabled:  %12.0f pairs/s\n", rep.EnabledPairsPerSec)
	fmt.Printf("  overhead:     %.2f%% (budget < 2%%)\n", rep.OverheadPct)
	fmt.Printf("flight recorder bracket (batched rank routing, %d-pair journeys):\n", 512)
	fmt.Printf("  recorder off: %12.0f pairs/s\n", rep.RecorderOffPairsPerSec)
	fmt.Printf("  recorder on:  %12.0f pairs/s\n", rep.RecorderOnPairsPerSec)
	fmt.Printf("  overhead:     %.2f%% (budget < 2%%)\n", rep.RecorderOverheadPct)
	if *out != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

// Observability subcommands: serve and stats.  They live
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
	"supercayley/internal/serve"
	"supercayley/internal/sim"
	"supercayley/internal/tables"
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
// cached engine on nw, populating the registry and the route cache
// collectors as a side effect.
func routeWorkload(nw *core.Network, pairs int, seed int64, skew float64) (sim.ThroughputResult, error) {
	nt, err := comm.SCGNet(nw)
	if err != nil {
		return sim.ThroughputResult{}, err
	}
	engine := comm.NewSCGEngine(nw)
	wl := sim.ZipfWorkload(nt.N(), pairs, seed, skew)
	return sim.Throughput(nt, engine.AppendRoute, wl)
}

// newServeRouter returns the router `scg serve` routes nw with.  At
// k ≤ tables.FastLaneMaxK it is a buildingRouter: no LRU, every pair
// served from a dense fast-lane table, whose build starts here.  Above
// the fast-lane cap it is the LRU in front of the greedy kernel.
func newServeRouter(nw *core.Network) core.Router {
	if nw.K() > tables.FastLaneMaxK {
		return core.NewCachedRouter(nw, core.CacheConfig{})
	}
	r := &buildingRouter{CachedRouter: core.NewTableRouter(nw), built: make(chan struct{})}
	go func() {
		defer close(r.built)
		t, err := tables.Build(nw, tables.Config{})
		if err == nil {
			err = r.UseTable(t)
		}
		if err != nil {
			// The router still routes, through the kernel.
			fmt.Fprintf(os.Stderr, "scg serve: no fast-lane table: %v\n", err)
		}
	}()
	return r
}

// buildingRouter is a core.NewTableRouter router whose table builds on
// its own goroutine while the server starts.  Every routing call waits
// for the build, so no route is served before the table is in place:
// the build stays inside the time to the first answer, but overlaps
// the rest of start-up, the first request's arrival and its batch
// wait.  (Joining the build before Serve instead made the median
// start, exec to first answer, 0.6 ms slower on a 2-vCPU host.)
type buildingRouter struct {
	*core.CachedRouter
	built chan struct{} // closed once the build has finished
}

func (r *buildingRouter) AppendRouteRanks(dst []gens.GenIndex, src, dstRank int64) ([]gens.GenIndex, error) {
	<-r.built
	return r.CachedRouter.AppendRouteRanks(dst, src, dstRank)
}

func (r *buildingRouter) RouteManyInto(out *core.BulkRoutes, srcs, dsts []int64) error {
	<-r.built
	return r.CachedRouter.RouteManyInto(out, srcs, dsts)
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
	nf := addNetFlags(fs)
	sf := addServeFlags(fs)
	fs.Parse(args)
	nw, err := nf.network()
	if err != nil {
		return err
	}
	router := newServeRouter(nw)
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
	fmt.Println("scg serve: endpoints: /route /route/bulk /metrics /metrics.json /trace/requests /trace/chrome /debug/vars /debug/pprof/")

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
	fs.Parse(args)
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

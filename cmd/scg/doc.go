// Command scg is the command-line interface to the super Cayley graph
// library: inspect networks, route packets, print all-port emulation
// schedules, measure embeddings, play the ball-arrangement game,
// simulate communication tasks, serve routing traffic over HTTP, and
// observe the routing engine's always-on telemetry.
//
// Usage:
//
//	scg info      -family MS -l 4 -n 3
//	scg route     -family MS -l 2 -n 2 -from "(3 1 4 5 2)" -to "(1 2 3 4 5)"
//	scg schedule  -family Complete-RS -l 4 -n 3
//	scg embed     -family IS -k 5 -guest star
//	scg bag       -family MS -l 2 -n 2 -seed 7
//	scg tasks     -family MS -l 2 -n 2 -task mnb -model all-port
//	scg faults    -family MS -l 3 -n 2 -mode random -nodefrac 0.05 -linkfrac 0.05
//	scg stats     -family MS -l 7 -n 1 -pairs 20000
//	scg serve     -addr localhost:8650 -family MS -l 7 -n 1 -batch 512 -rate 500000
//
// Every subcommand in main.go is reproducible from its flags: all
// randomness flows from the -seed flag through seededRand, never from
// the global math/rand source or the clock, and the file-wide
// scg:deterministic directive there makes scglint enforce it.  The
// service and observability commands in serve.go (serve, stats) are
// the deliberate exception — serving HTTP and timing requests need the
// wall clock — and carry no directive.
//
// `scg serve` is the routing service (DESIGN.md §13): POST /route
// answers one JSON pair, POST /route/bulk answers many (JSON, or the
// binary application/x-scg-bulk frame), both fed through the
// internal/serve batching pipeline with per-client token-bucket
// admission (-rate, -burst) and graceful SIGINT drain (-drain-wait).
// At k ≤ 9 it serves every pair from a dense fast-lane table
// (internal/tables) built during start-up, with no route cache; above
// k = 9 it routes through the route cache in front of the greedy
// kernel.  It also exposes the internal/obs registry over HTTP:
// /metrics (Prometheus text format, per-stage scg_stage_* histograms
// and the -slo burn-rate gauges included), /metrics.json (the same
// snapshot as JSON), /trace/requests and /trace/chrome (the flight
// recorder's retained request journeys, as JSON and as a Chrome
// trace-event document — DESIGN.md §16), /debug/vars (expvar, including the scg_metrics,
// scg_route_cache and scg_flight maps), and /debug/pprof/* (the
// standard profiling handlers).  Its connections carry fixed read,
// write and idle timeouts, so a stalled client cannot pin the server
// or stall drain.  perfbench/ benchmarks the service end to end.
// `scg stats` routes a seeded workload and dumps the registry once to
// stdout.  The telemetry has no off switch; DESIGN.md §11/§16 budget
// it at under 2% of the routing it observes, and
// BenchmarkFlush512Recorded in internal/serve times the recorder's
// share of a 512-pair batch flush.
package main

package serve

// The flight recorder's share of a batch flush.  Telemetry has no off
// switch; a flush simply runs without a journey when nobody calls
// Begin, so the pair below brackets the recorder by calling it or
// not.  Both flush one default-size batch (Config.MaxBatch, 512 warm
// MS(7,1) zipf pairs) through the table router `scg serve` runs at
// k = 8:
//
//	go test -run='^$' -bench=Flush512 -count=5 ./internal/serve
//
// BenchmarkFlush512 times the bare flush.  BenchmarkFlush512Recorded
// wraps it as the batcher does, Begin → Mark(route_many) → Finish on
// a private recorder, and alternates it with a bare flush in the same
// loop, so both sides see the same cache and scheduler state: its
// ns/op is the recorded flush and recorder_% the recorder's share of
// the bare one.  DESIGN.md §16 budgets that share under 2%.

import (
	"testing"

	"supercayley/internal/core"
	"supercayley/internal/obs"
	"supercayley/internal/sim"
	"supercayley/internal/tables"
)

// newFlushBench returns a warm table router on MS(7,1) and one batch
// of zipf pairs at the batcher's default MaxBatch.
func newFlushBench(b *testing.B) (*core.CachedRouter, []int64, []int64, *core.BulkRoutes) {
	nw := core.MustNew(core.MS, 7, 1)
	tab, err := tables.Build(nw, tables.Config{})
	if err != nil {
		b.Fatal(err)
	}
	cr := core.NewTableRouter(nw)
	if err := cr.UseTable(tab); err != nil {
		b.Fatal(err)
	}
	wl := sim.ZipfWorkload(int(nw.N()), Config{}.withDefaults().MaxBatch, 1, 1.2)
	srcs := make([]int64, wl.Pairs())
	dsts := make([]int64, wl.Pairs())
	for i := range srcs {
		srcs[i], dsts[i] = int64(wl.Srcs[i]), int64(wl.Dsts[i])
	}
	out := &core.BulkRoutes{}
	if err := cr.RouteManyInto(out, srcs, dsts); err != nil { // warm
		b.Fatal(err)
	}
	return cr, srcs, dsts, out
}

func BenchmarkFlush512(b *testing.B) {
	cr, srcs, dsts, out := newFlushBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cr.RouteManyInto(out, srcs, dsts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlush512Recorded(b *testing.B) {
	cr, srcs, dsts, out := newFlushBench(b)
	rec := obs.NewFlightRecorder(obs.FlightConfig{})
	var j obs.Journey
	var bareNs, recNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := obs.NowNs()
		err := cr.RouteManyInto(out, srcs, dsts)
		t1 := obs.NowNs()
		rec.Begin(&j, obs.JourneyBulk)
		err2 := cr.RouteManyInto(out, srcs, dsts)
		j.Mark(stRouteMany)
		rec.Finish(&j)
		t2 := obs.NowNs()
		if err != nil || err2 != nil {
			b.Fatal(err, err2)
		}
		bareNs += t1 - t0
		recNs += t2 - t1
	}
	b.ReportMetric(float64(recNs)/float64(b.N), "ns/op")
	b.ReportMetric(100*float64(recNs-bareNs)/float64(bareNs), "recorder_%")
}

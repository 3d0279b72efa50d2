package core

// Microbenchmark companion to `scg bench-obs`: the warm
// AppendRouteRanks path with telemetry on vs off, single-threaded.
// The per-route delta between the two is the true cost of the
// always-on instrumentation (the scratch-page hop observation);
// compare with
//
//	go test -run=NONE -bench=WarmRanksObs -benchtime=3000000x -count=3 ./internal/core
//
// BENCH_obs.json measures the same budget at the workload level.

import (
	"testing"

	"supercayley/internal/gens"
	"supercayley/internal/obs"
)

func benchWarmRanks(b *testing.B, on bool) {
	nw, err := New(MS, 7, 1)
	if err != nil {
		b.Fatal(err)
	}
	cr := NewCachedRouter(nw, CacheConfig{})
	n := nw.N()
	const pairs = 4096
	srcs := make([]int64, pairs)
	dsts := make([]int64, pairs)
	for i := range srcs {
		srcs[i] = int64(i*977) % n
		dsts[i] = int64(i*131+7) % n
	}
	buf := make([]gens.GenIndex, 0, 1<<16)
	for i := range srcs {
		buf, _ = cr.AppendRouteRanks(buf[:0], srcs[i], dsts[i])
	}
	obs.SetEnabled(on)
	defer obs.SetEnabled(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = cr.AppendRouteRanks(buf[:0], srcs[i%pairs], dsts[i%pairs])
	}
}

func BenchmarkWarmRanksObsOn(b *testing.B)  { benchWarmRanks(b, true) }
func BenchmarkWarmRanksObsOff(b *testing.B) { benchWarmRanks(b, false) }

//go:build !race

// The allocation-regression guards live behind the !race tag: under
// the race detector sync.Pool deliberately drops items (so the pooled
// scratch reallocates) and every allocation count is inflated by
// instrumentation.

package core

import (
	"math/rand"
	"runtime"
	"testing"

	"supercayley/internal/gens"
	"supercayley/internal/perm"
)

// TestRouteIntoAllocFree is the allocation-regression guard for the
// kernel: with a preallocated destination and reused scratch, RouteInto
// must not allocate at all.
func TestRouteIntoAllocFree(t *testing.T) {
	nw := MustNew(MS, 7, 1) // k = 8
	s := NewRouteScratch(nw.K())
	r := rand.New(rand.NewSource(16))
	u, v := perm.Random(r, nw.K()), perm.Random(r, nw.K())
	dst := make([]gens.GenIndex, 0, 256)
	if avg := testing.AllocsPerRun(200, func() {
		dst = nw.RouteInto(dst[:0], u, v, s)
	}); avg != 0 {
		t.Fatalf("RouteInto allocates %.1f objects per call, want 0", avg)
	}
}

// TestAppendRouteWarmAllocFree guards the cached hot path: once the
// quotient is cached and the pooled scratch is warm, AppendRoute into a
// preallocated buffer must not allocate — with the obs instrumentation
// live (histogram observation per route).
func TestAppendRouteWarmAllocFree(t *testing.T) {
	nw := MustNew(MS, 7, 1)
	cr := NewCachedRouter(nw, CacheConfig{})
	r := rand.New(rand.NewSource(17))
	u, v := perm.Random(r, nw.K()), perm.Random(r, nw.K())
	dst := make([]gens.GenIndex, 0, 256)
	dst = cr.AppendRoute(dst[:0], u, v) // warm cache and pool
	if avg := testing.AllocsPerRun(200, func() {
		dst = cr.AppendRoute(dst[:0], u, v)
	}); avg != 0 {
		t.Fatalf("warm AppendRoute allocates %.1f objects per call, want 0", avg)
	}
}

// TestAppendRouteRanksWarmAllocFree guards the fully instrumented
// rank-addressed path — the scratch-page hop observation and its
// periodic flush — end to end.
func TestAppendRouteRanksWarmAllocFree(t *testing.T) {
	nw := MustNew(MS, 7, 1)
	cr := NewCachedRouter(nw, CacheConfig{})
	dst := make([]gens.GenIndex, 0, 256)
	n := perm.Factorial(nw.K())
	// Route a spread of pairs, enough to flush the hop page.
	ranks := make([]int64, 64)
	for i := range ranks {
		ranks[i] = int64(i*977) % n
	}
	for _, rk := range ranks { // warm cache and pool
		var err error
		if dst, err = cr.AppendRouteRanks(dst[:0], rk, (rk+1)%n); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if avg := testing.AllocsPerRun(400, func() {
		rk := ranks[i&63]
		i++
		dst, _ = cr.AppendRouteRanks(dst[:0], rk, (rk+1)%n)
	}); avg != 0 {
		t.Fatalf("warm AppendRouteRanks allocates %.2f objects per call, want 0", avg)
	}
}

// TestRouteManyIntoWarmAllocFree guards the batch-flush primitive the
// serve pipeline leans on: re-flushing into a caller-owned BulkRoutes
// must not allocate once warm, from a small batch up to the served
// 1024-pair request and past it.  It measures with at least two Ps,
// where a flush that fanned out over goroutines would allocate.
func TestRouteManyIntoWarmAllocFree(t *testing.T) {
	nw := MustNew(MS, 7, 1)
	cr := NewCachedRouter(nw, CacheConfig{})
	n := perm.Factorial(nw.K())
	for _, pairs := range []int{128, 1024, 4096} {
		srcs := make([]int64, pairs)
		dsts := make([]int64, pairs)
		for i := range srcs {
			srcs[i] = int64(i*977) % n
			dsts[i] = (srcs[i] + 1) % n
		}
		out := &BulkRoutes{}
		if avg := allocsPerRunParallel(100, func() {
			if err := cr.RouteManyInto(out, srcs, dsts); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("warm RouteManyInto(%d pairs) allocates %d objects per batch, want 0", pairs, avg)
		}
	}
}

// allocsPerRunParallel is testing.AllocsPerRun without its
// GOMAXPROCS=1 pin: it runs f once to warm up, then returns the mean
// allocations of runs more calls, rounded down, at GOMAXPROCS ≥ 2.
func allocsPerRunParallel(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&m1)
	return (m1.Mallocs - m0.Mallocs) / uint64(runs)
}

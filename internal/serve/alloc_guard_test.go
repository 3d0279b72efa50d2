//go:build !race

// The allocation-regression guard lives behind the !race tag for the
// same reason core's does: under the race detector sync.Pool
// deliberately drops items and allocation counts are inflated by
// instrumentation.

package serve

import (
	"runtime"
	"testing"
	"time"

	"supercayley/internal/core"
	"supercayley/internal/tables"
)

// TestSubmitWarmAllocFree pins the zero-alloc steady state of the
// enqueue→flush cycle: with a warm router, a pooled job reused across
// submissions, and a flush-by-size batcher (MaxBatch 1, so every
// Submit round-trips through a worker flush), Submit must not
// allocate at all — job intake, queue send, batch collection, the
// RouteManyInto flush, result fan-out, and the latency observations
// included.
func TestSubmitWarmAllocFree(t *testing.T) {
	nw := core.MustNew(core.MS, 7, 1) // k = 8, the snapshot protocol
	cr := core.NewCachedRouter(nw, core.CacheConfig{})
	b := NewBatcher(cr, Config{MaxBatch: 1, MaxWait: time.Millisecond, Workers: 1})
	defer b.Close()

	j := b.NewJob()
	// Warm every buffer on the path: job slices, the worker's batch and
	// concatenation buffers, the bulk result, and the router's cache
	// and scratch pool for these pairs.
	pairs := [][2]int64{{0, 1}, {977, 40319}, {1234, 20160}, {40319, 0}}
	for r := 0; r < 8; r++ {
		for _, p := range pairs {
			j.Reset()
			j.AddPair(p[0], p[1])
			if err := b.Submit(j); err != nil {
				t.Fatalf("warm submit %d→%d: %v", p[0], p[1], err)
			}
		}
	}

	i := 0
	if avg := testing.AllocsPerRun(400, func() {
		p := pairs[i&3]
		i++
		j.Reset()
		j.AddPair(p[0], p[1])
		if err := b.Submit(j); err != nil {
			t.Fatalf("submit %d→%d: %v", p[0], p[1], err)
		}
	}); avg != 0 {
		t.Fatalf("warm Submit→flush allocates %.2f objects per cycle, want 0", avg)
	}
	b.Release(j)
}

// TestSubmitBulkWarmAllocFree is TestSubmitWarmAllocFree at the served
// request size: one 1024-pair job, twice the default MaxBatch, flushed
// through both routers `scg serve` runs — the LRU router and the
// LRU-free table router.  It measures with at least two Ps, where a
// flush that fanned out over goroutines would allocate.
func TestSubmitBulkWarmAllocFree(t *testing.T) {
	nw := core.MustNew(core.MS, 7, 1)
	tab, err := tables.Build(nw, tables.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr := core.NewTableRouter(nw)
	if err := tr.UseTable(tab); err != nil {
		t.Fatal(err)
	}
	for name, cr := range map[string]*core.CachedRouter{
		"lru":   core.NewCachedRouter(nw, core.CacheConfig{}),
		"table": tr,
	} {
		b := NewBatcher(cr, Config{MaxWait: time.Millisecond, Workers: 1})
		j := b.NewJob()
		submit := func() {
			j.Reset()
			for i := int64(0); i < 1024; i++ {
				j.AddPair(i*977%nw.N(), i*31%nw.N())
			}
			if err := b.Submit(j); err != nil {
				t.Fatalf("%s: submit: %v", name, err)
			}
		}
		for range 4 { // warm the job, batch, and router buffers
			submit()
		}
		if avg := allocsPerRunParallel(50, submit); avg != 0 {
			t.Errorf("%s: warm 1024-pair Submit→flush allocates %d objects per cycle, want 0", name, avg)
		}
		b.Release(j)
		b.Close()
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

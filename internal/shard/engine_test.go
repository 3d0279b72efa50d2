package shard

// The sharded-vs-unsharded differential: an Engine must emit routes
// port-identical to core.CachedRouter for every family and every
// configuration — shard count and cache geometry change where a route
// is served from, never its bytes.

import (
	"math/rand"
	"testing"

	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/perm"
)

// tenNetworks instantiates one small network per family (k = 5,
// N = 120), the same roster the serve and tables differentials use.
func tenNetworks(t *testing.T) []*core.Network {
	t.Helper()
	nws := make([]*core.Network, 0, len(core.Families))
	for _, f := range core.Families {
		if f == core.IS {
			nw, err := core.NewIS(5)
			if err != nil {
				t.Fatalf("NewIS(5): %v", err)
			}
			nws = append(nws, nw)
			continue
		}
		nw, err := core.New(f, 2, 2)
		if err != nil {
			t.Fatalf("New(%s, 2, 2): %v", f, err)
		}
		nws = append(nws, nw)
	}
	return nws
}

func portsEqual(a, b []gens.GenIndex) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// engineConfigs is the matrix the differential sweeps: the degenerate
// single shard, a fanned-out engine, and tiny per-shard caches
// (eviction pressure).  At k = 5 every engine has the shared fast-lane
// table; the table-less cache+kernel path is covered at k = 10 by
// TestEngineK10BoundedMemory.
func engineConfigs() []Config {
	return []Config{
		{Shards: 1},
		{Shards: 4},
		{Shards: 4, CacheShards: 1, CacheEntries: 8},
	}
}

// TestEngineDifferentialTenFamilies pins route-byte identity between
// every engine configuration and the unsharded reference across all
// ten families, pair by pair and through the bulk paths.
func TestEngineDifferentialTenFamilies(t *testing.T) {
	for _, nw := range tenNetworks(t) {
		ref := core.NewCachedRouter(nw, core.CacheConfig{})
		n := perm.Factorial(nw.K())
		for ci, cfg := range engineConfigs() {
			e, err := New(nw, cfg)
			if err != nil {
				t.Fatalf("%s cfg %d: New: %v", nw.Name(), ci, err)
			}
			r := rand.New(rand.NewSource(int64(100 + ci)))
			srcs, dsts := make([]int64, 64), make([]int64, 64)
			for i := range srcs {
				srcs[i], dsts[i] = r.Int63n(n), r.Int63n(n)
			}
			// Pair-by-pair, twice, so the second lap serves from warm
			// state — bytes must not change with the serving tier.
			for lap := 0; lap < 2; lap++ {
				for i := range srcs {
					got, err := e.AppendRouteRanks(nil, srcs[i], dsts[i])
					if err != nil {
						t.Fatalf("%s cfg %d: engine route %d→%d: %v", nw.Name(), ci, srcs[i], dsts[i], err)
					}
					want, err := ref.AppendRouteRanks(nil, srcs[i], dsts[i])
					if err != nil {
						t.Fatalf("%s: reference route: %v", nw.Name(), err)
					}
					if !portsEqual(got, want) {
						t.Fatalf("%s cfg %d lap %d: %d→%d routed %v, reference %v",
							nw.Name(), ci, lap, srcs[i], dsts[i], got, want)
					}
				}
			}
			// Bulk paths agree with the pairwise path.
			bulk, err := e.RouteMany(srcs, dsts)
			if err != nil {
				t.Fatalf("%s cfg %d: RouteMany: %v", nw.Name(), ci, err)
			}
			var into core.BulkRoutes
			if err := e.RouteManyInto(&into, srcs, dsts); err != nil {
				t.Fatalf("%s cfg %d: RouteManyInto: %v", nw.Name(), ci, err)
			}
			for i := range srcs {
				want, _ := ref.AppendRouteRanks(nil, srcs[i], dsts[i])
				if !portsEqual(bulk.Route(i), want) {
					t.Fatalf("%s cfg %d: RouteMany pair %d differs from reference", nw.Name(), ci, i)
				}
				if !portsEqual(into.Route(i), want) {
					t.Fatalf("%s cfg %d: RouteManyInto pair %d differs from reference", nw.Name(), ci, i)
				}
			}
		}
	}
}

// TestEngineDispatchSpreads asserts that traffic actually lands on
// every shard worker — the splitmix64 band scatter is the load-balance
// mechanism, so a dead worker means a dispatch bug.
func TestEngineDispatchSpreads(t *testing.T) {
	nw := core.MustNew(core.MS, 7, 1) // k = 8
	e, err := New(nw, Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	n := perm.Factorial(nw.K())
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 4096; i++ {
		if _, err := e.AppendRouteRanks(nil, r.Int63n(n), r.Int63n(n)); err != nil {
			t.Fatal(err)
		}
	}
	var total uint64
	for _, ws := range e.WorkerStats() {
		if ws.Routes == 0 {
			t.Fatalf("shard %d served no routes across 4096 dispatches", ws.ID)
		}
		total += ws.Routes
	}
	if total != 4096 {
		t.Fatalf("workers counted %d routes, dispatched 4096", total)
	}
}

// TestEngineK10BoundedMemory covers the engine past FastLaneMaxK,
// where no table exists and every miss goes to the greedy kernel: on
// 500 seeded k = 10 pairs, routed twice so the second lap is served
// from the workers' caches, the routes must be byte-identical to
// core.CachedRouter and replay to their destinations.  The warm state
// must then stay within the workers' cache capacity however many
// distinct pairs arrive.
func TestEngineK10BoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("k=10 engine in -short mode")
	}
	nw := core.MustNew(core.MS, 9, 1) // k = 10
	e, err := New(nw, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if e.TableBytes() != 0 {
		t.Fatalf("k=10 engine holds %d table bytes, want none", e.TableBytes())
	}
	ref := core.NewCachedRouter(nw, core.CacheConfig{})
	n := perm.Factorial(nw.K())
	r := rand.New(rand.NewSource(10))
	srcs, dsts := make([]int64, 500), make([]int64, 500)
	for i := range srcs {
		srcs[i], dsts[i] = r.Int63n(n), r.Int63n(n)
	}
	k := nw.K()
	u := make(perm.Perm, k)
	v := make(perm.Perm, k)
	got := make(perm.Perm, k)
	tmp := make(perm.Perm, k)
	var buf, want []gens.GenIndex
	for lap := 0; lap < 2; lap++ {
		for i := range srcs {
			buf, err = e.AppendRouteRanks(buf[:0], srcs[i], dsts[i])
			if err != nil {
				t.Fatalf("route %d→%d: %v", srcs[i], dsts[i], err)
			}
			if want, err = ref.AppendRouteRanks(want[:0], srcs[i], dsts[i]); err != nil {
				t.Fatalf("reference route %d→%d: %v", srcs[i], dsts[i], err)
			}
			if !portsEqual(buf, want) {
				t.Fatalf("lap %d: %d→%d routed %v, reference %v", lap, srcs[i], dsts[i], buf, want)
			}
			perm.UnrankInto(u, srcs[i])
			perm.UnrankInto(v, dsts[i])
			nw.ReplayInto(got, tmp, u, buf)
			if !got.Equal(v) {
				t.Fatalf("route %d→%d delivered to %v, want %v", srcs[i], dsts[i], got, v)
			}
		}
	}
	if s := e.Stats(); s.Hits < uint64(len(srcs)) {
		t.Fatalf("second lap hit the caches %d times, want ≥ %d", s.Hits, len(srcs))
	}
	// Bounded memory: more distinct pairs than the caches hold.
	capacity := e.Shards() * defaultCacheShards * defaultCacheEntries
	for i := 0; i < capacity+capacity/4; i++ {
		if buf, err = e.AppendRouteRanks(buf[:0], r.Int63n(n), r.Int63n(n)); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Entries > capacity {
		t.Fatalf("engine caches hold %d entries, capacity %d", s.Entries, capacity)
	}
	if s.Evictions == 0 {
		t.Fatalf("%d distinct pairs into %d cache slots evicted nothing", capacity+capacity/4, capacity)
	}
}

// TestEngineRejects pins the construction and range edges.
func TestEngineRejects(t *testing.T) {
	nw := core.MustNew(core.MS, 2, 2)    // k = 5
	e, err := New(nw, Config{Shards: 3}) // rounds up to 4
	if err != nil {
		t.Fatal(err)
	}
	if e.Shards() != 4 {
		t.Fatalf("Shards() = %d after rounding, want 4", e.Shards())
	}
	if _, err := e.AppendRouteRanks(nil, -1, 0); err == nil {
		t.Fatal("negative rank accepted")
	}
	if _, err := e.AppendRouteRanks(nil, 0, perm.Factorial(5)); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if err := e.RouteManyInto(&core.BulkRoutes{}, []int64{1}, []int64{1, 2}); err == nil {
		t.Fatal("mismatched bulk slices accepted")
	}
	if _, err := New(core.MustNew(core.MS, 12, 1), Config{}); err == nil {
		t.Fatal("k=13 engine accepted past the exact-rank cap")
	}
}

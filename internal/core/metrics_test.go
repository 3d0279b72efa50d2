package core

import (
	"strings"
	"testing"

	"supercayley/internal/gens"
	"supercayley/internal/obs"
)

// TestEvictionStormCountersExact wraps a 1-shard, 8-entry cache far
// past capacity and checks every counter stays exact across the LRU
// wraparound: misses equal distinct quotients routed, evictions equal
// inserts beyond capacity, and the retained tail still hits.
func TestEvictionStormCountersExact(t *testing.T) {
	nw := MustNew(MS, 2, 2) // k = 4, 24 nodes
	cr := NewCachedRouter(nw, CacheConfig{Shards: 1, ShardEntries: 8})
	dst := make([]gens.GenIndex, 0, 256)
	const pairs = 23 // dst ranks 1..23: 23 distinct quotients ≫ 8 entries
	for rank := int64(1); rank <= pairs; rank++ {
		var err error
		dst, err = cr.AppendRouteRanks(dst[:0], 0, rank)
		if err != nil {
			t.Fatal(err)
		}
	}
	st := cr.Stats()
	if st.Misses != pairs {
		t.Fatalf("misses = %d, want %d (every quotient distinct)", st.Misses, pairs)
	}
	if st.Hits != 0 {
		t.Fatalf("hits = %d, want 0 on first pass", st.Hits)
	}
	if st.Evictions != pairs-8 {
		t.Fatalf("evictions = %d, want %d", st.Evictions, pairs-8)
	}
	if st.Entries != 8 {
		t.Fatalf("entries = %d, want the 8-entry capacity", st.Entries)
	}
	if st.MaxShardEntries != 8 || st.MinShardEntries != 8 {
		t.Fatalf("single-shard extrema = [%d, %d], want [8, 8]", st.MinShardEntries, st.MaxShardEntries)
	}
	// The LRU keeps exactly the last 8 quotients: re-routing them must
	// be all hits, re-routing anything older all misses (and another
	// round of evictions the counters must track exactly).
	for rank := int64(pairs - 7); rank <= pairs; rank++ {
		dst, _ = cr.AppendRouteRanks(dst[:0], 0, rank)
	}
	st2 := cr.Stats()
	if st2.Hits != 8 || st2.Misses != pairs {
		t.Fatalf("warm tail: hits=%d misses=%d, want 8/%d", st2.Hits, st2.Misses, pairs)
	}
	for rank := int64(1); rank <= 8; rank++ {
		dst, _ = cr.AppendRouteRanks(dst[:0], 0, rank)
	}
	st3 := cr.Stats()
	if st3.Misses != pairs+8 || st3.Evictions != st2.Evictions+8 {
		t.Fatalf("second storm: %v (want %d misses, %d evictions)", st3, pairs+8, st2.Evictions+8)
	}
	if lookups := st3.Hits + st3.Misses; lookups != pairs+8+8 {
		t.Fatalf("hits+misses = %d, want every lookup accounted for (%d)", lookups, pairs+8+8)
	}
}

// TestShardImbalanceObservable routes across a multi-shard cache and
// checks the imbalance extrema are coherent and published through the
// registry collectors.
func TestShardImbalanceObservable(t *testing.T) {
	nw := MustNew(MS, 2, 2)
	cr := NewCachedRouter(nw, CacheConfig{Shards: 4, ShardEntries: 64})
	dst := make([]gens.GenIndex, 0, 256)
	for rank := int64(0); rank < 24; rank++ {
		dst, _ = cr.AppendRouteRanks(dst[:0], rank, (rank+1)%24)
	}
	st := cr.Stats()
	if st.MaxShardEntries < st.MinShardEntries {
		t.Fatalf("extrema inverted: %v", st)
	}
	if st.MaxShardEntries > st.Entries || st.MaxShardEntries == 0 {
		t.Fatalf("max shard entries out of range: %v", st)
	}
	agg := AggregateCacheStats()
	if agg.Hits < st.Hits || agg.Misses < st.Misses || agg.MaxShardEntries < st.MaxShardEntries {
		t.Fatalf("aggregate %v does not dominate this cache's %v", agg, st)
	}
	text := string(obs.Default.PrometheusText())
	for _, metric := range []string{
		"scg_route_cache_hits_total",
		"scg_route_cache_misses_total",
		"scg_route_cache_evictions_total",
		"scg_route_cache_shard_max_entries",
		"scg_route_cache_shard_min_entries",
		"scg_route_hops_count",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("registry exposition missing %s", metric)
		}
	}
}

// TestKernelCountersCountRouterMisses pins scg_route_kernel_calls_total
// and _steps_total to the router's own miss count: every cache miss,
// and every pair a table router without a table routes, runs the
// kernel once and must be counted once, with the steps it emitted;
// a warm hit runs no kernel and counts nothing.
func TestKernelCountersCountRouterMisses(t *testing.T) {
	nw := MustNew(MS, 3, 1) // k = 4, 24 nodes
	n := nw.N()
	srcs := make([]int64, n-1)
	dsts := make([]int64, n-1)
	for i := range srcs {
		dsts[i] = int64(i + 1) // from rank 0: n-1 distinct quotients
	}
	out := &BulkRoutes{}
	for name, cr := range map[string]*CachedRouter{
		"lru":   NewCachedRouter(nw, CacheConfig{}),
		"table": NewTableRouter(nw),
	} {
		for lap := 0; lap < 2; lap++ {
			calls0, steps0, misses0 := mKernelRoutes.Value(), mKernelSteps.Value(), cr.Stats().Misses
			if err := cr.RouteManyInto(out, srcs, dsts); err != nil {
				t.Fatal(err)
			}
			calls, steps := mKernelRoutes.Value()-calls0, mKernelSteps.Value()-steps0
			misses := cr.Stats().Misses - misses0
			if name == "table" {
				misses = uint64(len(srcs)) // no cache: every pair is a kernel run
			}
			if calls != misses {
				t.Errorf("%s lap %d: %d kernel calls counted for %d misses", name, lap, calls, misses)
			}
			wantSteps := uint64(0)
			if misses != 0 {
				wantSteps = uint64(out.TotalHops())
			}
			if steps != wantSteps {
				t.Errorf("%s lap %d: %d kernel steps counted, want %d", name, lap, steps, wantSteps)
			}
		}
	}
}

package main

// The served-path oracle: the router newServeRouter builds — the one
// `scg serve` routes with — checked exhaustively against the greedy
// kernel.

import (
	"math/rand"
	"slices"
	"testing"

	"supercayley/internal/core"
	"supercayley/internal/obs"
	"supercayley/internal/perm"
)

// counterValue reads one counter out of the default registry.
func counterValue(t *testing.T, name string) uint64 {
	t.Helper()
	snap := obs.Default.Snapshot()
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("counter %q not in the registry", name)
	return 0
}

// kernelRoutes routes every (srcs[i], dsts[i]) rank pair through
// Network.RouteInto into one flat BulkRoutes.
func kernelRoutes(nw *core.Network, srcs, dsts []int64) *core.BulkRoutes {
	k := nw.K()
	u, v := make(perm.Perm, k), make(perm.Perm, k)
	s := core.NewRouteScratch(k)
	want := &core.BulkRoutes{Offsets: []int64{0}}
	for i := range srcs {
		perm.UnrankInto(u, srcs[i])
		perm.UnrankInto(v, dsts[i])
		want.Steps = nw.RouteInto(want.Steps, u, v, s)
		want.Offsets = append(want.Offsets, int64(len(want.Steps)))
	}
	return want
}

// servedNetworks returns all ten families at k = 5 and k = 7.
func servedNetworks(t *testing.T) []*core.Network {
	t.Helper()
	var nws []*core.Network
	for _, f := range core.Families {
		for _, ln := range [][2]int{{2, 2}, {3, 2}} {
			var nw *core.Network
			var err error
			if f == core.IS {
				nw, err = core.NewIS(ln[0]*ln[1] + 1)
			} else {
				nw, err = core.New(f, ln[0], ln[1])
			}
			if err != nil {
				t.Fatalf("%s(%d, %d): %v", f, ln[0], ln[1], err)
			}
			nws = append(nws, nw)
		}
	}
	return nws
}

// TestServeRouterOracle routes every quotient w of every family at
// k ≤ 7 — the pair (w, identity) — through the served router's bulk
// entry and requires the bytes of Network.RouteInto.  Every pair must
// come from the table, and no route LRU may exist to be consulted.
func TestServeRouterOracle(t *testing.T) {
	for _, nw := range servedNetworks(t) {
		cr, ok := newServeRouter(nw).(*buildingRouter)
		if !ok {
			t.Fatalf("%s: k=%d is served without a table router", nw.Name(), nw.K())
		}
		n := nw.N()
		srcs := make([]int64, n)
		dsts := make([]int64, n) // rank 0 is the identity
		for w := range srcs {
			srcs[w] = int64(w)
		}
		served0 := counterValue(t, "scg_route_table_served_total")
		got := &core.BulkRoutes{}
		if err := cr.RouteManyInto(got, srcs, dsts); err != nil {
			t.Fatalf("%s: RouteManyInto: %v", nw.Name(), err)
		}
		if cr.Table() == nil {
			t.Fatalf("%s: the table router routed without its table", nw.Name())
		}
		if d := counterValue(t, "scg_route_table_served_total") - served0; d != uint64(n) {
			t.Errorf("%s: table served %d of %d pairs", nw.Name(), d, n)
		}
		if s := cr.Stats(); s != (core.CacheStats{}) {
			t.Errorf("%s: served router has LRU activity: %v", nw.Name(), s)
		}
		want := kernelRoutes(nw, srcs, dsts)
		if !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Steps, want.Steps) {
			for w := range srcs {
				if !slices.Equal(got.Route(w), want.Route(w)) {
					t.Fatalf("%s: quotient rank %d: served %v, kernel %v", nw.Name(), w, got.Route(w), want.Route(w))
				}
			}
		}
	}
}

// TestServeRouterAboveFastLane pins the k = 10 served path: no table
// is built, and the LRU → kernel router emits the kernel's bytes.
func TestServeRouterAboveFastLane(t *testing.T) {
	nw := core.MustNew(core.MS, 9, 1)
	built0 := counterValue(t, "scg_table_ranks_built_total")
	served0 := counterValue(t, "scg_route_table_served_total")
	cr, ok := newServeRouter(nw).(*core.CachedRouter)
	if !ok || cr.Table() != nil {
		t.Fatal("k=10 is not served by the table-less cached router")
	}
	if d := counterValue(t, "scg_table_ranks_built_total") - built0; d != 0 {
		t.Fatalf("building the k=10 served router built %d table ranks", d)
	}
	r := rand.New(rand.NewSource(10))
	const pairs = 2000
	srcs, dsts := make([]int64, pairs), make([]int64, pairs)
	for i := range srcs {
		srcs[i], dsts[i] = r.Int63n(nw.N()), r.Int63n(nw.N())
	}
	got := &core.BulkRoutes{}
	if err := cr.RouteManyInto(got, srcs, dsts); err != nil {
		t.Fatal(err)
	}
	want := kernelRoutes(nw, srcs, dsts)
	if !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Steps, want.Steps) {
		t.Fatal("k=10 served routes differ from the kernel's")
	}
	if s := cr.Stats(); s.Hits+s.Misses != pairs {
		t.Errorf("k=10 served router made %d LRU lookups for %d pairs", s.Hits+s.Misses, pairs)
	}
	if d := counterValue(t, "scg_route_table_served_total") - served0; d != 0 {
		t.Errorf("k=10 served router reports %d table-served routes", d)
	}
}

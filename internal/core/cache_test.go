package core

import (
	"math/rand"
	"testing"

	"supercayley/internal/gens"
	"supercayley/internal/perm"
)

// TestRouteIntoMatchesRouteAllFamilies is the differential contract of
// the zero-alloc kernel: on every family, the index route decodes to
// exactly the generator sequence Route returns, step for step.
func TestRouteIntoMatchesRouteAllFamilies(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, nw := range small(t) {
		s := NewRouteScratch(nw.K())
		buf := make([]gens.GenIndex, 0, 256)
		for trial := 0; trial < 200; trial++ {
			u, v := perm.Random(r, nw.K()), perm.Random(r, nw.K())
			want := nw.Route(u, v)
			buf = nw.RouteInto(buf[:0], u, v, s)
			got := nw.Set().Decode(buf)
			if len(got) != len(want) {
				t.Fatalf("%s: RouteInto %d steps, Route %d", nw.Name(), len(got), len(want))
			}
			for i := range got {
				if got[i].Name() != want[i].Name() {
					t.Fatalf("%s: step %d = %s, Route says %s", nw.Name(), i, got[i].Name(), want[i].Name())
				}
			}
		}
	}
}

// TestCachedRouterMatchesRouteAllFamilies drives both the miss path and
// the hit path (every pair routed twice) against the legacy oracle.
func TestCachedRouterMatchesRouteAllFamilies(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, nw := range small(t) {
		cr := NewCachedRouter(nw, CacheConfig{})
		for trial := 0; trial < 100; trial++ {
			u, v := perm.Random(r, nw.K()), perm.Random(r, nw.K())
			want := nw.Route(u, v)
			for pass := 0; pass < 2; pass++ {
				got := cr.Route(u, v)
				if len(got) != len(want) {
					t.Fatalf("%s pass %d: %d steps, want %d", nw.Name(), pass, len(got), len(want))
				}
				for i := range got {
					if got[i].Name() != want[i].Name() {
						t.Fatalf("%s pass %d step %d: %s, want %s", nw.Name(), pass, i, got[i].Name(), want[i].Name())
					}
				}
			}
		}
		st := cr.Stats()
		if st.Hits == 0 {
			t.Fatalf("%s: second passes produced no cache hits (%v)", nw.Name(), st)
		}
	}
}

// TestCachedRouterHashedKeys verifies the hashed-key path on a real
// k = 13 network, where ranks no longer key the cache and every hit
// must survive the stored-quotient comparison.
func TestCachedRouterHashedKeys(t *testing.T) {
	nw := MustNew(MS, 12, 1) // k = 13 > RankKeyMaxK
	cr := NewCachedRouter(nw, CacheConfig{Shards: 4, ShardEntries: 64})
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		u, v := perm.Random(r, nw.K()), perm.Random(r, nw.K())
		want := nw.Route(u, v)
		for pass := 0; pass < 2; pass++ {
			got := cr.Route(u, v)
			if len(got) != len(want) {
				t.Fatalf("pass %d: %d steps, want %d", pass, len(got), len(want))
			}
			for i := range got {
				if got[i].Name() != want[i].Name() {
					t.Fatalf("pass %d step %d: %s, want %s", pass, i, got[i].Name(), want[i].Name())
				}
			}
		}
	}
	if st := cr.Stats(); st.Hits == 0 {
		t.Fatalf("hashed-key cache never hit: %v", st)
	}
}

// TestRouteCacheLRUEviction exercises the bounded shard: a 1-shard,
// 2-entry cache must evict in LRU order and count it.
func TestRouteCacheLRUEviction(t *testing.T) {
	c := newRouteCache(CacheConfig{Shards: 1, ShardEntries: 2}, true)
	put := func(key uint64, step gens.GenIndex) { c.put(key, nil, []gens.GenIndex{step}) }
	has := func(key uint64) bool {
		_, ok := c.get(nil, key, nil)
		return ok
	}
	put(1, 10)
	put(2, 20)
	if !has(1) || !has(2) {
		t.Fatal("fresh entries missing")
	}
	// 1 was just touched, so inserting 3 must evict 2.
	_, _ = c.get(nil, 1, nil)
	put(3, 30)
	if has(2) {
		t.Fatal("LRU entry 2 survived eviction")
	}
	if !has(1) || !has(3) {
		t.Fatal("recently used entries evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
	// Overwriting an existing key must not grow the shard.
	put(3, 31)
	if got, ok := c.get(nil, 3, nil); !ok || len(got) != 1 || got[0] != 31 {
		t.Fatalf("overwrite lost: %v %v", got, ok)
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("entries after overwrite = %d, want 2", st.Entries)
	}
}

// TestRouteManyMatchesPerCall checks the batched entry point against
// sequential AppendRouteRanks on the same router.
func TestRouteManyMatchesPerCall(t *testing.T) {
	nw := MustNew(MS, 2, 2)
	cr := NewCachedRouter(nw, CacheConfig{})
	n := perm.Factorial(nw.K())
	r := rand.New(rand.NewSource(14))
	pairs := 500
	srcs := make([]int64, pairs)
	dsts := make([]int64, pairs)
	for i := range srcs {
		srcs[i] = r.Int63n(n)
		dsts[i] = r.Int63n(n)
	}
	bulk := &BulkRoutes{}
	if err := cr.RouteManyInto(bulk, srcs, dsts); err != nil {
		t.Fatal(err)
	}
	if bulk.Pairs() != pairs {
		t.Fatalf("Pairs() = %d, want %d", bulk.Pairs(), pairs)
	}
	var buf []gens.GenIndex
	var err error
	for i := 0; i < pairs; i++ {
		buf, err = cr.AppendRouteRanks(buf[:0], srcs[i], dsts[i])
		if err != nil {
			t.Fatal(err)
		}
		got := bulk.Route(i)
		if len(got) != len(buf) {
			t.Fatalf("pair %d: bulk %d steps, per-call %d", i, len(got), len(buf))
		}
		for j := range got {
			if got[j] != buf[j] {
				t.Fatalf("pair %d step %d: %d != %d", i, j, got[j], buf[j])
			}
		}
	}
	if err := cr.RouteManyInto(bulk, []int64{0}, []int64{n}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if err := cr.RouteManyInto(bulk, []int64{0}, []int64{0, 1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := cr.RouteManyInto(bulk, nil, nil); err != nil || bulk.Pairs() != 0 || bulk.TotalHops() != 0 {
		t.Fatalf("empty RouteManyInto: %v %v", bulk, err)
	}
}

// TestRouteLengthDiameterBound: every route is at most
// MaxDilation · StarDiameter(k) hops — the family-level diameter upper
// bound of Theorems 1–3 — checked across all ten families.
func TestRouteLengthDiameterBound(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for _, nw := range small(t) {
		bound := nw.MaxDilation() * perm.StarDiameter(nw.K())
		cr := NewCachedRouter(nw, CacheConfig{})
		for trial := 0; trial < 200; trial++ {
			u, v := perm.Random(r, nw.K()), perm.Random(r, nw.K())
			if got := len(nw.Route(u, v)); got > bound {
				t.Fatalf("%s: Route %d hops > dilation %d × star diameter %d",
					nw.Name(), got, nw.MaxDilation(), perm.StarDiameter(nw.K()))
			}
			if got := cr.RouteLen(u, v); got > bound {
				t.Fatalf("%s: cached RouteLen %d hops > bound %d", nw.Name(), got, bound)
			}
		}
	}
}

// TestReplayIntoMatchesRoute closes the loop: replaying the compact
// route from u must land on v, without allocations.
func TestReplayIntoMatchesRoute(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for _, nw := range small(t) {
		s := NewRouteScratch(nw.K())
		dst := make(perm.Perm, nw.K())
		tmp := make(perm.Perm, nw.K())
		buf := make([]gens.GenIndex, 0, 256)
		for trial := 0; trial < 50; trial++ {
			u, v := perm.Random(r, nw.K()), perm.Random(r, nw.K())
			buf = nw.RouteInto(buf[:0], u, v, s)
			nw.ReplayInto(dst, tmp, u, buf)
			if !dst.Equal(v) {
				t.Fatalf("%s: replay from %v ended at %v, want %v", nw.Name(), u, dst, v)
			}
		}
	}
}

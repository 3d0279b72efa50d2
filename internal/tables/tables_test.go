package tables

import (
	"math/rand"
	"slices"
	"testing"

	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/perm"
)

// tenNetworks instantiates one small network per family (k = 5,
// N = 120, exhaustively checkable).
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

// TestDenseDifferentialTenFamilies asserts table-mode routes are
// port-identical to the RouteInto kernel for EVERY quotient of every
// family — the correctness contract of the whole package.
func TestDenseDifferentialTenFamilies(t *testing.T) {
	for _, nw := range tenNetworks(t) {
		tab, err := Build(nw, Config{})
		if err != nil {
			t.Fatalf("%s: Build: %v", nw.Name(), err)
		}
		diffAllQuotients(t, nw, tab)
	}
}

func diffAllQuotients(t *testing.T, nw *core.Network, tab *Table) {
	t.Helper()
	k := nw.K()
	s := core.NewRouteScratch(k)
	id := perm.Identity(k)
	w := make(perm.Perm, k)
	want := make([]gens.GenIndex, 0, 256)
	got := make([]gens.GenIndex, 0, 256)
	perm.All(k, func(q perm.Perm) bool {
		// Kernel route of quotient q: RouteInto(q, identity) since
		// id⁻¹∘q = q.
		want = nw.RouteInto(want[:0], q, id, s)
		copy(w, q)
		var ok bool
		got, ok = tab.AppendQuotientRoute(got[:0], w)
		if !ok {
			t.Fatalf("%s: table declined quotient %v", nw.Name(), q)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: quotient %v: table route %d steps, kernel %d", nw.Name(), q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: quotient %v: port %d is %d, kernel %d", nw.Name(), q, i, got[i], want[i])
			}
		}
		// w is scratch on success: the digits walk consumes it to the
		// identity, the fast-lane chase leaves it untouched.  Anything
		// else means the walk corrupted its input.
		if !w.IsIdentity() && !w.Equal(q) {
			t.Fatalf("%s: quotient %v left as %v (neither identity nor untouched)", nw.Name(), q, w)
		}
		return true
	})
}

// oddDecliner is a QuotientTable (deliberately not a RankTable) that
// declines every quotient of odd rank, so a router using it takes the
// decline → LRU → kernel path on half its pairs and the table path on
// the rest.
type oddDecliner struct{ t *Table }

func (d oddDecliner) K() int       { return d.t.K() }
func (d oddDecliner) Name() string { return d.t.Name() }

func (d oddDecliner) AppendQuotientRoute(dst []gens.GenIndex, w perm.Perm) ([]gens.GenIndex, bool) {
	if w.Rank()%2 == 1 {
		return dst, false
	}
	return d.t.AppendQuotientRoute(dst, w)
}

// TestRouterFallThrough wires a table into CachedRouter and checks
// end-to-end pair routes against a table-less router, plus the
// decline → LRU → kernel path and, without an LRU, decline → kernel.
func TestRouterFallThrough(t *testing.T) {
	nw := core.MustNew(core.MS, 2, 2)
	tab, err := Build(nw, Config{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	withTable := core.NewCachedRouter(nw, core.CacheConfig{})
	noLRU := core.NewTableRouter(nw)
	for _, cr := range []*core.CachedRouter{withTable, noLRU} {
		if err := cr.UseTable(oddDecliner{tab}); err != nil {
			t.Fatalf("UseTable: %v", err)
		}
	}
	plain := core.NewCachedRouter(nw, core.CacheConfig{})
	r := rand.New(rand.NewSource(7))
	n := nw.N()
	for trial := 0; trial < 2000; trial++ {
		src, dst := r.Int63n(n), r.Int63n(n)
		b, err := plain.AppendRouteRanks(nil, src, dst)
		if err != nil {
			t.Fatalf("plain route %d→%d: %v", src, dst, err)
		}
		for _, cr := range []*core.CachedRouter{withTable, noLRU} {
			a, err := cr.AppendRouteRanks(nil, src, dst)
			if err != nil {
				t.Fatalf("table route %d→%d: %v", src, dst, err)
			}
			if !slices.Equal(a, b) {
				t.Fatalf("route %d→%d: %v with table, %v without", src, dst, a, b)
			}
		}
	}
	if s := withTable.Stats(); s.Hits+s.Misses == 0 {
		t.Fatal("no declined quotient reached the LRU")
	}
	if s := noLRU.Stats(); s != (core.CacheStats{}) {
		t.Fatalf("LRU-free router reports cache activity: %v", s)
	}
}

// TestRankLaneDifferentialTenFamilies drives the rank-addressed fast
// lane (perm slab + successor chase, no UnrankInto) through
// CachedRouter for EVERY (src, dst) pair of every family and checks
// the routes against a table-less router.
func TestRankLaneDifferentialTenFamilies(t *testing.T) {
	for _, nw := range tenNetworks(t) {
		tab, err := Build(nw, Config{})
		if err != nil {
			t.Fatalf("%s: Build: %v", nw.Name(), err)
		}
		if _, ok := tab.AppendRouteRanks(nil, 0, 0); !ok {
			t.Fatalf("%s: dense table at k=%d has no rank lane", nw.Name(), nw.K())
		}
		withTable := core.NewTableRouter(nw)
		if err := withTable.UseTable(tab); err != nil {
			t.Fatalf("%s: UseTable: %v", nw.Name(), err)
		}
		plain := core.NewCachedRouter(nw, core.CacheConfig{})
		n := nw.N()
		var a, b []gens.GenIndex
		for src := int64(0); src < n; src++ {
			for dst := int64(0); dst < n; dst++ {
				var err error
				if a, err = withTable.AppendRouteRanks(a[:0], src, dst); err != nil {
					t.Fatalf("%s: table route %d→%d: %v", nw.Name(), src, dst, err)
				}
				if b, err = plain.AppendRouteRanks(b[:0], src, dst); err != nil {
					t.Fatalf("%s: plain route %d→%d: %v", nw.Name(), src, dst, err)
				}
				if len(a) != len(b) {
					t.Fatalf("%s: route %d→%d: %d steps with table, %d without", nw.Name(), src, dst, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%s: route %d→%d: port %d differs (%d vs %d)", nw.Name(), src, dst, i, a[i], b[i])
					}
				}
			}
		}
	}
}

// TestUseTableValidation rejects mismatched tables.
func TestUseTableValidation(t *testing.T) {
	ms := core.MustNew(core.MS, 2, 2)
	rs := core.MustNew(core.RS, 2, 2)
	tab, err := Build(ms, Config{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	cr := core.NewCachedRouter(rs, core.CacheConfig{})
	if err := cr.UseTable(tab); err == nil {
		t.Fatalf("UseTable accepted an MS table on an RS router")
	}
	cr = core.NewCachedRouter(ms, core.CacheConfig{})
	if err := cr.UseTable(tab); err != nil {
		t.Fatalf("UseTable rejected its own table: %v", err)
	}
	if cr.Table() != tab {
		t.Fatalf("Table() did not return the installed table")
	}
	if err := cr.UseTable(nil); err != nil || cr.Table() != nil {
		t.Fatalf("UseTable(nil) did not clear the table")
	}
}

// TestBuildModes exercises the two table layouts — with the fast lane
// at k ≤ FastLaneMaxK, dims only past it — and the k cap.
func TestBuildModes(t *testing.T) {
	nw := core.MustNew(core.MS, 2, 2)
	tab, err := Build(nw, Config{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	// At k ≤ FastLaneMaxK: dims (1 byte/rank) plus the fast lane —
	// rank→perm slab (k bytes/rank) and successor ranks (4 bytes/rank).
	if want := nw.N() * int64(5+nw.K()); tab.Bytes() != want {
		t.Fatalf("fast-lane table %d bytes, want %d", tab.Bytes(), want)
	}
	if tab.N() != nw.N() || tab.K() != nw.K() || tab.Name() != nw.Name() {
		t.Fatalf("table metadata mismatch: %+v", tab.Stats())
	}
	if tab.BuildTime() <= 0 {
		t.Fatalf("build reported no build time")
	}
	if _, err := Build(core.MustNew(core.MS, 10, 1), Config{}); err == nil {
		t.Fatalf("accepted k=11 past DenseMaxK")
	}
	if testing.Short() {
		return
	}
	// Past FastLaneMaxK the table is dims only: 1 byte per rank, and the
	// rank lane declines so the router takes its unrank path.
	big := core.MustNew(core.MS, 9, 1) // k = 10
	tab, err = Build(big, Config{})
	if err != nil {
		t.Fatalf("k=10 build: %v", err)
	}
	if tab.Bytes() != big.N() {
		t.Fatalf("k=10 table %d bytes, want %d", tab.Bytes(), big.N())
	}
	if _, ok := tab.AppendRouteRanks(nil, 1, 2); ok {
		t.Fatal("k=10 table served a rank-lane route without a slab")
	}
	diffSampledQuotients(t, big, tab, 200)
}

// TestFastLaneArrays checks every entry the builder writes at k = 8
// against its definition: the slab row is Unrank(r), dims is
// GreedyDim, and next is the full rank of the permutation after the
// greedy star move.  Three workers put band starts mid-block, where
// the builder's per-prefix reuse restarts.
func TestFastLaneArrays(t *testing.T) {
	nw := core.MustNew(core.MS, 7, 1)
	tab, err := Build(nw, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	k := nw.K()
	p := make(perm.Perm, k)
	for r := int64(0); r < nw.N(); r++ {
		perm.UnrankInto(p, r)
		if !perm.Perm(tab.perms[r*int64(k) : (r+1)*int64(k)]).Equal(p) {
			t.Fatalf("rank %d: slab row %v, want %v", r, tab.perms[r*int64(k):(r+1)*int64(k)], p)
		}
		d := core.GreedyDim(p)
		if int(tab.dims[r]) != d {
			t.Fatalf("rank %d: dims %d, want %d", r, tab.dims[r], d)
		}
		want := r
		if d != 0 {
			p[0], p[d-1] = p[d-1], p[0]
			want = p.Rank()
		}
		if int64(tab.next[r]) != want {
			t.Fatalf("rank %d: next %d, want %d", r, tab.next[r], want)
		}
	}
}

// diffSampledQuotients checks n seeded quotients of a network too big
// to sweep against the kernel.
func diffSampledQuotients(t *testing.T, nw *core.Network, tab *Table, n int) {
	t.Helper()
	k := nw.K()
	s := core.NewRouteScratch(k)
	id := perm.Identity(k)
	r := rand.New(rand.NewSource(11))
	var want, got []gens.GenIndex
	for i := 0; i < n; i++ {
		q := perm.Unrank(k, r.Int63n(nw.N()))
		want = nw.RouteInto(want[:0], q, id, s)
		got, _ = tab.AppendQuotientRoute(got[:0], q)
		if len(got) != len(want) {
			t.Fatalf("%s: quotient %d: table route %d steps, kernel %d", nw.Name(), i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("%s: quotient %d: port %d is %d, kernel %d", nw.Name(), i, j, got[j], want[j])
			}
		}
	}
}

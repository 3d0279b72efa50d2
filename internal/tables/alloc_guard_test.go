//go:build !race

// Allocation-regression guards for the table lookup loop, tagged off
// under the race detector (instrumentation inflates every count and
// sync.Pool deliberately drops the router's pooled scratch).

package tables

import (
	"testing"

	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/perm"
)

// TestDenseLookupAllocFree is the AllocsPerRun==0 guard on the
// table-mode lookup loop: with a preallocated destination, a dense
// walk — digits pass, per-hop byte loads, incremental reranks, and
// the obs counters — must not allocate.
func TestDenseLookupAllocFree(t *testing.T) {
	nw := core.MustNew(core.MS, 7, 1) // k = 8, the benchmark network
	tab, err := Build(nw, Config{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	w := make(perm.Perm, nw.K())
	src := perm.Unrank(nw.K(), 31337)
	dst := make([]gens.GenIndex, 0, 256)
	if avg := testing.AllocsPerRun(200, func() {
		copy(w, src)
		var ok bool
		dst, ok = tab.AppendQuotientRoute(dst[:0], w)
		if !ok {
			t.Fatal("dense table declined")
		}
	}); avg != 0 {
		t.Fatalf("dense table lookup allocates %.2f objects per call, want 0", avg)
	}
}

// TestRouterTableWarmAllocFree guards the full routing entry point
// with the table installed: rank unranking, quotient formation, table
// walk, and telemetry, end to end through CachedRouter.
func TestRouterTableWarmAllocFree(t *testing.T) {
	nw := core.MustNew(core.MS, 7, 1)
	tab, err := Build(nw, Config{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	cr, err := core.NewCachedRouterWithTable(nw, core.CacheConfig{}, core.TableConfig{Table: tab})
	if err != nil {
		t.Fatalf("NewCachedRouterWithTable: %v", err)
	}
	dst := make([]gens.GenIndex, 0, 256)
	n := nw.N()
	ranks := make([]int64, 64)
	for i := range ranks {
		ranks[i] = int64(i*977) % n
	}
	for _, rk := range ranks { // warm the scratch pool
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
		t.Fatalf("warm table-mode AppendRouteRanks allocates %.2f objects per call, want 0", avg)
	}
}

package core

import (
	"fmt"

	"supercayley/internal/gens"
	"supercayley/internal/perm"
)

// Zero-allocation routing kernel.
//
// Route is left-translation-invariant: the generator sequence from u
// to v depends only on the quotient w = v⁻¹∘u (the same sequence sorts
// w to the identity), so the N² pair space collapses onto N normalized
// problems.  RouteInto exploits the second half of that structure — it
// runs the star-graph greedy cycle algorithm directly on w, in place,
// and emits the emulation route as compact generator indices from the
// precompiled dimExp table instead of materializing []gens.Generator
// per call.  The first half (caching normalized routes) is built on
// top of it in cache.go / router.go.

// RouteScratch holds the reusable permutation buffers one routing
// goroutine needs.  A scratch value must not be shared between
// concurrent callers; CachedRouter pools them internally.
type RouteScratch struct {
	u, v perm.Perm       // unranked endpoints (rank-based entry points)
	inv  perm.Perm       // v⁻¹
	w    perm.Perm       // quotient v⁻¹∘u, consumed in place by the sort
	idx  []gens.GenIndex // spare index buffer for length-only probes

	// Private hop-histogram page (see observeHops in metrics.go):
	// plain-increment batching for the shared striped histogram.
	hopPage [routeHopMax + 2]uint32
	hopOver uint64 // overflowed hop values awaiting flush
	hopPend uint32 // observations batched since the last flush
}

// NewRouteScratch returns scratch buffers for k-symbol networks.
func NewRouteScratch(k int) *RouteScratch {
	return &RouteScratch{
		u:   make(perm.Perm, k),
		v:   make(perm.Perm, k),
		inv: make(perm.Perm, k),
		w:   make(perm.Perm, k),
		idx: make([]gens.GenIndex, 0, 64),
	}
}

// buildDimExp precompiles every star-dimension expansion of Theorems
// 1–3 into generator indices; called once at construction.
func (nw *Network) buildDimExp() {
	nw.dimExp = make([][]gens.GenIndex, nw.k+1)
	for j := 2; j <= nw.k; j++ {
		seq := nw.EmulateStarDim(j)
		idx := make([]gens.GenIndex, len(seq))
		for i, g := range seq {
			p := nw.set.Index(g)
			if p < 0 {
				panic(fmt.Sprintf("core: %s: expansion generator %s not in set", nw.Name(), g.Name()))
			}
			idx[i] = gens.GenIndex(p)
		}
		nw.dimExp[j] = idx
	}
}

// RouteInto appends the route from u to v onto dst as generator
// indices into Set() and returns the extended slice.  The emitted
// index sequence decodes (Set().Decode) to exactly the generator
// sequence Route(u, v) returns — step for step — but the only
// allocation is dst growth: pass a slice with spare capacity and a
// reusable scratch to route with zero allocations per call.
//
//scg:noalloc
func (nw *Network) RouteInto(dst []gens.GenIndex, u, v perm.Perm, s *RouteScratch) []gens.GenIndex {
	if len(u) != nw.k || len(v) != nw.k {
		panic(fmt.Sprintf("core: RouteInto on %s wants %d symbols", nw.Name(), nw.k))
	}
	if len(s.inv) != nw.k || len(s.w) != nw.k {
		panic(fmt.Sprintf("core: RouteInto scratch sized for %d symbols, want %d", len(s.w), nw.k))
	}
	v.InverseInto(s.inv)
	s.inv.ComposeInto(s.w, u)
	return nw.AppendQuotientRoute(dst, s.w)
}

// GreedyDim returns the star dimension the greedy cycle algorithm
// moves along next for quotient w: w[0] when symbol 1 is away from
// home (send the outside symbol to its position), otherwise the first
// misplaced position (open the next non-trivial cycle), or 0 when w is
// already the identity.  Every routing mode in the repository — the
// inline kernel below, the precomputed tables of internal/tables —
// derives its next step from this one function, which is what makes
// table-mode routes port-identical to RouteInto by construction.
//
//scg:noalloc
func GreedyDim(w perm.Perm) int {
	if x := int(w[0]); x != 1 {
		return x
	}
	for i := 1; i < len(w); i++ {
		if int(w[i]) != i+1 {
			return i + 1
		}
	}
	return 0
}

// appendQuotientRoute appends the route that sorts quotient w to the
// identity — the greedy cycle algorithm of the star graph with every
// star move T_j replaced by its precompiled expansion dimExp[j].  w is
// consumed: it is the identity on return.
//
//scg:noalloc
func (nw *Network) appendQuotientRoute(dst []gens.GenIndex, w perm.Perm) []gens.GenIndex {
	for {
		j := GreedyDim(w)
		if j == 0 {
			return dst
		}
		dst = append(dst, nw.dimExp[j]...)
		w[0], w[j-1] = w[j-1], w[0]
	}
}

// ReplayInto replays a compact route from node u into dst without
// allocating (see gens.Set.ReplayInto); tmp is ping-pong scratch.
//
//scg:noalloc
func (nw *Network) ReplayInto(dst, tmp, u perm.Perm, route []gens.GenIndex) {
	nw.set.ReplayInto(dst, tmp, u, route)
}

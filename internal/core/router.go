package core

import (
	"fmt"
	"sync"

	"supercayley/internal/gens"
	"supercayley/internal/perm"
)

// CachedRouter is the high-throughput routing engine: the zero-alloc
// kernel of RouteInto behind the symmetry-normalized cache of
// cache.go, a precomputed quotient table (table.go), or both, with
// pooled scratch so it is safe and cheap to call from
// GOMAXPROCS workers concurrently.  Routes come back as compact
// generator indices; Set().Decode recovers the labelled sequence, and
// the indices are exactly the sim package's port numbers.
type CachedRouter struct {
	nw *Network
	// cache is the route LRU; nil for a table router (NewTableRouter),
	// whose table serves every quotient.
	cache *RouteCache
	// table, when non-nil, is consulted before the cache (see table.go:
	// fall-through is table → LRU → greedy kernel).  rankTable is the
	// same table seen through the optional RankTable extension (set by
	// UseTable when the assertion holds), letting AppendRouteRanks skip
	// the two UnrankInto calls per pair.
	table     QuotientTable
	rankTable RankTable
	scratch   sync.Pool // *RouteScratch
}

// NewCachedRouter builds a router for nw; the zero CacheConfig picks
// the defaults (see CacheConfig).
func NewCachedRouter(nw *Network, cfg CacheConfig) *CachedRouter {
	cr := NewTableRouter(nw)
	cr.cache = newRouteCache(cfg, nw.k <= RankKeyMaxK)
	return cr
}

// NewTableRouter builds a router with no route LRU, for a network
// whose quotient table — installed with UseTable, before routing
// starts — serves every quotient: the fall-through is table → greedy
// kernel.  Until a table is installed every pair routes through the
// kernel.
func NewTableRouter(nw *Network) *CachedRouter {
	cr := &CachedRouter{nw: nw}
	cr.scratch.New = func() any {
		mScratchNew.Inc()
		return NewRouteScratch(nw.k)
	}
	return cr
}

// Network returns the network the router routes on.
func (cr *CachedRouter) Network() *Network { return cr.nw }

// Stats returns the cache counters (all zero without an LRU).
func (cr *CachedRouter) Stats() CacheStats {
	if cr.cache == nil {
		return CacheStats{}
	}
	return cr.cache.Stats()
}

// quotientKey computes the cache key of quotient w: the exact Lehmer
// rank for k ≤ RankKeyMaxK, else a 64-bit FNV-1a hash (verified
// against the stored quotient on hit).
func (cr *CachedRouter) quotientKey(w perm.Perm) uint64 {
	if cr.nw.k <= RankKeyMaxK {
		return uint64(w.Rank())
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, s := range w {
		h ^= uint64(s)
		h *= prime64
	}
	return h
}

// AppendRoute appends the route from u to v onto dst as generator
// indices and returns the extended slice, consulting the cache first.
// The emitted sequence is identical to Route(u, v): cache hits copy
// the stored normalized route, misses compute it with the zero-alloc
// kernel and insert it.
func (cr *CachedRouter) AppendRoute(dst []gens.GenIndex, u, v perm.Perm) []gens.GenIndex {
	s := cr.scratch.Get().(*RouteScratch)
	mark := len(dst)
	dst = cr.appendRoute(dst, u, v, s)
	s.observeHops(0, len(dst)-mark)
	cr.scratch.Put(s)
	return dst
}

func (cr *CachedRouter) appendRoute(dst []gens.GenIndex, u, v perm.Perm, s *RouteScratch) []gens.GenIndex {
	if len(u) != cr.nw.k || len(v) != cr.nw.k {
		panic(fmt.Sprintf("core: AppendRoute on %s wants %d symbols", cr.nw.Name(), cr.nw.k))
	}
	v.InverseInto(s.inv)
	s.inv.ComposeInto(s.w, u)
	if t := cr.table; t != nil {
		if out, ok := t.AppendQuotientRoute(dst, s.w); ok {
			mTableServed.Inc()
			return out
		}
		// Declined: s.w is intact, fall through.
	}
	if cr.cache == nil {
		return cr.nw.AppendQuotientRoute(dst, s.w)
	}
	key := cr.quotientKey(s.w)
	if out, ok := cr.cache.get(dst, key, s.w); ok {
		return out
	}
	mark := len(dst)
	dst = cr.nw.AppendQuotientRoute(dst, s.w) // consumes s.w
	// Re-derive the quotient for hashed-key storage (s.w is now the
	// identity); rank-keyed caches never read it.
	if cr.nw.k > RankKeyMaxK {
		v.InverseInto(s.inv)
		s.inv.ComposeInto(s.w, u)
	}
	cr.cache.put(key, s.w, dst[mark:])
	return dst
}

// AppendRouteRanks is AppendRoute addressed by Lehmer ranks — the form
// the simulators use (node IDs are ranks).
func (cr *CachedRouter) AppendRouteRanks(dst []gens.GenIndex, src, dstRank int64) ([]gens.GenIndex, error) {
	n := perm.Factorial(cr.nw.k)
	if src < 0 || src >= n || dstRank < 0 || dstRank >= n {
		return dst, fmt.Errorf("core: rank pair (%d, %d) out of range [0, %d)", src, dstRank, n)
	}
	s := cr.scratch.Get().(*RouteScratch)
	mark := len(dst)
	served := false
	if rt := cr.rankTable; rt != nil {
		// Rank-addressed fast lane: the table resolves both endpoints
		// from its own slab, so neither UnrankInto runs.
		var out []gens.GenIndex
		if out, served = rt.AppendRouteRanks(dst, src, dstRank); served {
			dst = out
			mTableServed.Inc()
		}
	}
	if !served {
		perm.UnrankInto(s.u, src)
		perm.UnrankInto(s.v, dstRank)
		dst = cr.appendRoute(dst, s.u, s.v, s)
	}
	// One scratch-page observation per pair (flushed to the histogram
	// striped on the source rank, so parallel callers spread across
	// cache lines); routes- and hops-totals are derived from the
	// histogram at snapshot time.
	s.observeHops(int(src), len(dst)-mark)
	cr.scratch.Put(s)
	return dst, nil
}

// Route returns the labelled generator sequence from u to v through
// the cache; it allocates the result (use AppendRoute on hot paths).
func (cr *CachedRouter) Route(u, v perm.Perm) []gens.Generator {
	idx := cr.AppendRoute(make([]gens.GenIndex, 0, 64), u, v)
	return cr.nw.set.Decode(idx)
}

// RouteLen returns len(Route(u, v)) through the cache, warming it for
// subsequent full lookups (the fault-rerouting alternate ranking calls
// this once per port per blocked hop).
func (cr *CachedRouter) RouteLen(u, v perm.Perm) int {
	s := cr.scratch.Get().(*RouteScratch)
	// Reuse the index buffer hanging off the scratch value so repeated
	// length probes stay allocation-free once warm.
	s.idx = cr.appendRoute(s.idx[:0], u, v, s)
	n := len(s.idx)
	cr.scratch.Put(s)
	return n
}

// BulkRoutes is the flattened result of RouteManyInto: the route of pair i
// is Steps[Offsets[i]:Offsets[i+1]], in generator indices.
type BulkRoutes struct {
	Offsets []int64
	Steps   []gens.GenIndex
}

// Pairs returns the number of routed pairs.
func (b *BulkRoutes) Pairs() int { return len(b.Offsets) - 1 }

// Route returns the index route of pair i (a sub-slice; do not
// modify).
func (b *BulkRoutes) Route(i int) []gens.GenIndex {
	return b.Steps[b.Offsets[i]:b.Offsets[i+1]]
}

// TotalHops returns the summed route length.
func (b *BulkRoutes) TotalHops() int64 { return b.Offsets[len(b.Offsets)-1] }

// RouteManyInto routes every (srcs[i], dsts[i]) rank pair into
// caller-owned storage, in pair order, inline on the calling
// goroutine: out's slices are truncated and reused, growing only when
// capacity runs out, so a steady-state caller re-flushing into the
// same BulkRoutes (the serve batcher, whose GOMAXPROCS flush workers
// are the parallelism) allocates nothing once warm.
func (cr *CachedRouter) RouteManyInto(out *BulkRoutes, srcs, dsts []int64) error {
	if len(srcs) != len(dsts) {
		return fmt.Errorf("core: RouteManyInto wants equal-length rank slices (%d vs %d)", len(srcs), len(dsts))
	}
	pairs := len(srcs)
	mBulkCalls.Inc()
	mBulkPairs.Add(uint64(pairs))
	out.Offsets = append(out.Offsets[:0], 0)
	out.Steps = out.Steps[:0]
	for i := 0; i < pairs; i++ {
		var err error
		out.Steps, err = cr.AppendRouteRanks(out.Steps, srcs[i], dsts[i])
		if err != nil {
			return fmt.Errorf("pair %d: %w", i, err)
		}
		out.Offsets = append(out.Offsets, int64(len(out.Steps)))
	}
	return nil
}

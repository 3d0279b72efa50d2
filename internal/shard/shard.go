// Package shard implements the sharded rank-space routing engine of
// ROADMAP item 5.  Routing in a super Cayley network depends only on
// the quotient w = v⁻¹∘u, so the pair rank space partitions cleanly:
// the dispatch key is the raw endpoint pair, src·N + dstRank, and
// splitmix64 over that key assigns each pair to exactly one of N
// shard workers, so the zipf head of real traffic scatters instead of
// piling onto shard 0.  Keying dispatch on the pair rather than the
// quotient rank is the hot-path win: a warm hit is served straight
// from the owning worker's cache without unranking either endpoint —
// the two UnrankInto divisions plus the compose/rank that otherwise
// dominate a warm route.  The quotient is only computed on a miss,
// where the shared table or the greedy kernel resolves it.
//
// Each worker owns its own warm state — a pair-keyed route cache —
// plus plain per-shard counters, so workers share no mutable memory
// and the aggregate warm footprint scales linearly with N while each
// shard's stays bounded.  The single-dispatch Engine implements
// core.Router, the same surface as core.CachedRouter, so
// internal/serve, sim.Throughput, and comm drop in unchanged; both
// engines emit byte-identical routes, which the sharded-vs-unsharded
// differential in engine_test.go pins across all ten families.
//
// At k ≤ tables.FastLaneMaxK every worker consults one shared
// immutable fast-lane table (tiny, read-only, no reason to duplicate)
// on a miss; past it a miss goes straight to the greedy kernel.
package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/perm"
	"supercayley/internal/tables"
)

// Config sizes an Engine.  The zero value is one shard with default
// cache geometry — behaviorally a CachedRouter.
type Config struct {
	// Shards is the number of shard workers, rounded up to a power of
	// two; 0 → 1.
	Shards int
	// CacheShards and CacheEntries size each worker's route cache
	// (core.CacheConfig per worker — the per-worker cache is itself
	// lock-striped).  Zero picks 4 stripes of 1024 entries, so the
	// aggregate cache capacity grows linearly with Shards.
	CacheShards  int
	CacheEntries int
	// BuildWorkers parallelizes the table build; 0 → GOMAXPROCS.
	BuildWorkers int
}

const (
	defaultCacheShards  = 4
	defaultCacheEntries = 1024
)

// scratch is the per-route working set, pooled so concurrent dispatch
// allocates nothing once warm.  It mirrors core.RouteScratch but stays
// local: the shard engine normalizes pairs itself.
type scratch struct {
	u, v, inv, w perm.Perm
}

func newScratch(k int) *scratch {
	return &scratch{
		u:   make(perm.Perm, k),
		v:   make(perm.Perm, k),
		inv: make(perm.Perm, k),
		w:   make(perm.Perm, k),
	}
}

// worker is one shard: the warm state for its splitmix64 slice of the
// pair rank space.  Workers share no mutable memory; the counters
// are plain atomics read only by Stats.
type worker struct {
	id    int
	cache *core.RouteCache

	routes       atomic.Uint64
	tableServed  atomic.Uint64
	cacheServed  atomic.Uint64
	kernelServed atomic.Uint64
}

// Engine is the sharded routing engine.  It implements core.Router and
// is safe for concurrent use once New returns.
type Engine struct {
	nw   *core.Network
	n    int64
	mask uint64
	// dense is the shared immutable fast-lane table (k ≤ FastLaneMaxK),
	// consulted by every worker on a miss; nil past the cap.
	dense   *tables.Table
	workers []*worker
	scratch sync.Pool // *scratch
}

// New builds the engine.  The network must have k ≤ core.RankKeyMaxK:
// dispatch keys are exact Lehmer ranks (the cache's rank-keyed
// regime), which is the whole regime sharding targets — beyond it
// there is no rank space to partition.
func New(nw *core.Network, cfg Config) (*Engine, error) {
	k := nw.K()
	if k > core.RankKeyMaxK {
		return nil, fmt.Errorf("shard: %s has k=%d, engine caps at k=%d (exact-rank dispatch)", nw.Name(), k, core.RankKeyMaxK)
	}
	ns := cfg.Shards
	if ns <= 0 {
		ns = 1
	}
	np := 1
	for np < ns {
		np <<= 1
	}
	e := &Engine{
		nw:   nw,
		n:    nw.N(),
		mask: uint64(np - 1),
	}
	ccfg := core.CacheConfig{Shards: cfg.CacheShards, ShardEntries: cfg.CacheEntries}
	if ccfg.Shards <= 0 {
		ccfg.Shards = defaultCacheShards
	}
	if ccfg.ShardEntries <= 0 {
		ccfg.ShardEntries = defaultCacheEntries
	}
	if k <= tables.FastLaneMaxK {
		t, err := tables.Build(nw, tables.Config{Workers: cfg.BuildWorkers})
		if err != nil {
			return nil, err
		}
		e.dense = t
	}
	for i := 0; i < np; i++ {
		e.workers = append(e.workers, &worker{id: i, cache: core.NewRouteCache(ccfg, true)})
	}
	e.scratch.New = func() any { return newScratch(k) }
	registerEngine(e)
	return e, nil
}

// Network returns the routed network.
func (e *Engine) Network() *core.Network { return e.nw }

// Shards returns the shard-worker count.
func (e *Engine) Shards() int { return len(e.workers) }

// workerOf returns the worker owning pair key key (src·N + dstRank —
// at most N²−1 < 2⁶³ for every supported k ≤ 12): splitmix64 scatters
// the zipf head of real traffic evenly across workers.
//
//scg:noalloc
func (e *Engine) workerOf(key uint64) *worker {
	return e.workers[splitmix64(key)&e.mask]
}

// splitmix64 is the same finalizer core's cache uses for stripe
// picking (cache.go); duplicated here because it is three lines of
// arithmetic, not an API.
//
//scg:noalloc
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// AppendRouteRanks implements core.Router: dispatch on the raw pair
// key and serve a warm hit straight from the owning worker's cache —
// no unranking, no quotient, no rank.  Only a miss pays the fixed
// normalization cost, in appendCold.  Identical route bytes to
// CachedRouter.AppendRouteRanks by construction — every tier replays
// the same greedy factorization, and the route for a pair depends
// only on its quotient.
//
// The warm path (dispatch → cache hit) is the alloc-free steady state
// TestDispatchWarmAllocFree pins; //scg:noalloc makes the same claim
// statically, with the two cold branches suppressed by design.
//
//scg:noalloc
func (e *Engine) AppendRouteRanks(dst []gens.GenIndex, src, dstRank int64) ([]gens.GenIndex, error) {
	if src < 0 || src >= e.n || dstRank < 0 || dstRank >= e.n {
		return dst, fmt.Errorf("shard: rank pair (%d, %d) out of range [0, %d)", src, dstRank, e.n) //scg:ignore noalloc -- cold rejection path: a malformed pair may format its error
	}
	key := uint64(src)*uint64(e.n) + uint64(dstRank)
	wk := e.workerOf(key)
	wk.routes.Add(1)
	mDispatch.IncAt(wk.id)
	if out, ok := wk.cache.Get(dst, key, nil); ok {
		wk.cacheServed.Add(1)
		mCacheServed.IncAt(wk.id)
		return out, nil
	}
	return wk.appendCold(e, dst, key, src, dstRank), nil //scg:ignore noalloc -- cold miss path: appendCold promotes into the cache and allocates by design
}

// appendCold resolves a cache miss: the shared fast-lane table serves
// the pair straight from its rank slab (no UnrankInto divisions);
// otherwise the endpoints are unranked and the greedy kernel routes
// the quotient.  Every
// resolved route is promoted into the worker's pair-keyed cache so
// the next dispatch of this pair is a pure cache hit — that Put is
// the one deliberate allocation here; the warm path above it is
// allocation-free, pinned by the guard in alloc_guard_test.go.
func (wk *worker) appendCold(e *Engine, dst []gens.GenIndex, key uint64, src, dstRank int64) []gens.GenIndex {
	mark := len(dst)
	if d := e.dense; d != nil {
		if out, ok := d.AppendRouteRanks(dst, src, dstRank); ok {
			wk.tableServed.Add(1)
			mTableServed.IncAt(wk.id)
			wk.cache.Put(key, nil, out[mark:])
			return out
		}
	}
	s := e.scratch.Get().(*scratch)
	perm.UnrankInto(s.u, src)
	perm.UnrankInto(s.v, dstRank)
	s.v.InverseInto(s.inv)
	s.inv.ComposeInto(s.w, s.u)
	out := e.nw.AppendQuotientRoute(dst, s.w) // consumes w
	wk.kernelServed.Add(1)
	mKernelServed.IncAt(wk.id)
	wk.cache.Put(key, nil, out[mark:])
	e.scratch.Put(s)
	return out
}

// Stats implements core.Router by aggregating the per-worker cache
// counters; WorkerStats exposes the per-shard census.
func (e *Engine) Stats() core.CacheStats {
	var agg core.CacheStats
	for i, w := range e.workers {
		s := w.cache.Stats()
		agg.Hits += s.Hits
		agg.Misses += s.Misses
		agg.Evictions += s.Evictions
		agg.Entries += s.Entries
		if i == 0 || s.MaxShardEntries > agg.MaxShardEntries {
			agg.MaxShardEntries = s.MaxShardEntries
		}
		if i == 0 || s.MinShardEntries < agg.MinShardEntries {
			agg.MinShardEntries = s.MinShardEntries
		}
	}
	return agg
}

// WorkerStat is one shard worker's census.
type WorkerStat struct {
	ID           int
	Routes       uint64
	TableServed  uint64
	CacheServed  uint64
	KernelServed uint64
	Cache        core.CacheStats
}

// WorkerStats returns the per-shard census in shard order.
func (e *Engine) WorkerStats() []WorkerStat {
	out := make([]WorkerStat, len(e.workers))
	for i, w := range e.workers {
		out[i] = WorkerStat{
			ID:           w.id,
			Routes:       w.routes.Load(),
			TableServed:  w.tableServed.Load(),
			CacheServed:  w.cacheServed.Load(),
			KernelServed: w.kernelServed.Load(),
			Cache:        w.cache.Stats(),
		}
	}
	return out
}

// TableBytes returns the resident payload of the shared fast-lane
// table, or 0 past FastLaneMaxK where the engine runs without one.
func (e *Engine) TableBytes() int64 {
	if e.dense != nil {
		return e.dense.Bytes()
	}
	return 0
}

// RouteManyInto implements core.Router the way CachedRouter does:
// every batch routes inline into caller-owned storage, with zero
// allocations once warm.
func (e *Engine) RouteManyInto(out *core.BulkRoutes, srcs, dsts []int64) error {
	if len(srcs) != len(dsts) {
		return fmt.Errorf("shard: RouteManyInto wants equal-length rank slices (%d vs %d)", len(srcs), len(dsts))
	}
	out.Offsets = append(out.Offsets[:0], 0)
	out.Steps = out.Steps[:0]
	for i := range srcs {
		var err error
		out.Steps, err = e.AppendRouteRanks(out.Steps, srcs[i], dsts[i])
		if err != nil {
			return fmt.Errorf("pair %d: %w", i, err)
		}
		out.Offsets = append(out.Offsets, int64(len(out.Steps)))
	}
	return nil
}

// The compile-time pin: Engine is a drop-in core.Router.
var _ core.Router = (*Engine)(nil)

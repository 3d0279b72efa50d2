// Package tables implements precomputed next-dimension routing tables
// over the quotient space of a super Cayley network — the
// spanning-factorization end state of ROADMAP item 2 (Dougherty–Faber:
// a spanning factorization of a Cayley graph yields global one-hop
// routing tables).
//
// Routing is left-translation-invariant, so every pair (u, v) reduces
// to sorting the quotient w = v⁻¹∘u to the identity.  The table stores
// ONE BYTE per quotient rank: the star dimension the greedy cycle
// algorithm moves along next (core.GreedyDim), not the first generator
// index of the expanded route.  Two different dimensions can expand to
// sequences that share a first generator (in MS(2,2), T₄ and T₅ both
// open with S₂), so a first-port table could not be replayed
// unambiguously — the dimension can, and replaying
// dimExp[dims[rank(w)]] per hop reproduces the kernel's route port for
// port by construction.  Each hop is then: one byte load, one
// expansion append, one transposition of w, and an incremental Lehmer
// rerank (perm.RankSwapUpdate — no division, no O(k²) recompute).
//
// Tables are dense: one flat []uint8 of length k! (k ≤ DenseMaxK),
// built in parallel by a worker pool walking rank bands
// (perm.UnrankInto at the band start, perm.Next per step).  k = 10 is
// 3 628 800 bytes.  A table carries its own copy of the dimension
// expansions; core.CachedRouter.UseTable re-validates name and k.
//
// Tables at k ≤ FastLaneMaxK additionally carry two derived fast-lane
// arrays: the successor-rank array (each entry's incremental rerank,
// precomputed via perm.RankAfterSwap, so the hot walk is a pure
// dims/next chase that ranks w once and never mutates it) and the
// rank→permutation slab (so rank-addressed routes — core.RankTable —
// resolve both endpoints with slab reads instead of two
// division-heavy UnrankInto calls).
package tables

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/perm"
)

const (
	// DenseMaxK caps tables: 10! bytes ≈ 3.6 MB resident.
	DenseMaxK = 10
	// FastLaneMaxK caps the fast-lane arrays: the rank→permutation
	// slab (k bytes per rank, so rank-addressed routes skip UnrankInto)
	// and the successor-rank array (4 bytes per rank — the incremental
	// rerank of RankAfterSwap, precomputed, so the walk is a pure table
	// chase).  Together they cost (k+4)× the dims array; at k = 9 that
	// is ~4.7 MB on top of 363 KB of dims, at k = 10 it would be 50 MB —
	// past the cap a table stays 1 byte per rank and routes through the
	// digits walk.
	FastLaneMaxK = 9
)

// Config parameterizes Build.  The zero value builds with GOMAXPROCS
// workers.
type Config struct {
	Workers int // parallel build workers; 0 → GOMAXPROCS
}

// Table is a precomputed next-dimension routing table for one network.
// It implements core.QuotientTable and core.RankTable.  All methods are
// safe for concurrent use once Build returns.
type Table struct {
	name string
	k    int
	n    int64

	// exp[d] is the network's dimension-d expansion (d = 2..k), cloned
	// from core.Network.DimExpansion so the table is self-contained.
	exp [][]gens.GenIndex

	// dims[rank] ∈ {0, 2..k}: the greedy next dimension of every
	// quotient rank.
	dims []uint8

	// Fast-lane arrays, built when k ≤ FastLaneMaxK and immutable
	// afterwards.  perms is the rank→permutation slab (k bytes per
	// rank): AppendRouteRanks resolves both endpoints with two slab
	// reads instead of two division-heavy UnrankInto calls.  next is
	// the successor-rank array: next[r] is the rank after the greedy
	// star move at r (RankAfterSwap, precomputed at build), so the hot
	// walk never reranks — it chases dims/next until dims[r] == 0.
	perms []uint8
	next  []uint32

	buildNS int64 // Build wall time, ns
}

// Build constructs the table for nw by walking the quotient rank space
// with cfg.Workers parallel band walkers.
func Build(nw *core.Network, cfg Config) (*Table, error) {
	k := nw.K()
	if k > DenseMaxK {
		return nil, fmt.Errorf("tables: tables cap at k=%d (%s has k=%d)", DenseMaxK, nw.Name(), k)
	}
	t := &Table{name: nw.Name(), k: k, n: nw.N()}
	t.exp = make([][]gens.GenIndex, k+1)
	for d := 2; d <= k; d++ {
		t.exp[d] = append([]gens.GenIndex(nil), nw.DimExpansion(d)...)
	}
	t0 := time.Now()
	t.dims = make([]uint8, t.n)
	if k <= FastLaneMaxK {
		t.perms = make([]uint8, t.n*int64(k))
		t.next = make([]uint32, t.n)
	}
	buildRange(t.dims, t.perms, t.next, k, t.n, cfg.Workers)
	t.buildNS = time.Since(t0).Nanoseconds()
	hBuildNs.Observe(0, uint64(t.buildNS))
	registerTable(t)
	return t, nil
}

// buildRange fills dims with the greedy next dimension of every
// quotient rank in [0, n), fanned out over workers walking disjoint
// sub-bands: one unrank at the sub-band start, then lexicographic
// successors — amortized O(1) per rank.  At k ≤ FastLaneMaxK the same
// walk fills the fast-lane arrays: perms records each rank's
// permutation bytes (k per rank) and next the rank after the greedy
// star move (RankAfterSwap — the walker knows r, so the incremental
// rerank is exact and cheap).  perms and next are nil past the cap.
func buildRange(dims, perms []uint8, next []uint32, k int, n int64, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// ≥ 4 sub-bands per worker so a straggler band cannot serialize the
	// build; floor keeps tiny tables on one walker.
	chunk := n / int64(workers*4)
	if chunk < 1024 {
		chunk = 1024
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := make(perm.Perm, k)
			for {
				start := cursor.Add(chunk) - chunk
				if start >= n {
					return
				}
				end := min(start+chunk, n)
				perm.UnrankInto(p, start)
				for r := start; r < end; r++ {
					d := uint8(core.GreedyDim(p))
					dims[r] = d
					if perms != nil {
						copy(perms[r*int64(k):], p)
					}
					if next != nil {
						if d == 0 {
							next[r] = uint32(r) // identity: self-loop, never chased
						} else {
							next[r] = uint32(perm.RankAfterSwap(p, r, 0, int(d)-1))
						}
					}
					perm.Next(p)
				}
			}
		}()
	}
	wg.Wait()
	mRanksBuilt.Add(uint64(n))
}

// Name returns the network name the table was built for.
func (t *Table) Name() string { return t.name }

// K returns the symbol count.
func (t *Table) K() int { return t.k }

// N returns the number of quotient ranks, k!.
func (t *Table) N() int64 { return t.n }

// BuildTime returns the Build wall time.
func (t *Table) BuildTime() time.Duration { return time.Duration(t.buildNS) }

// Stats is a point-in-time table census.
type Stats struct {
	Name    string
	K       int
	Bytes   int64 // resident payload bytes
	BuildNS int64 // Build wall time
}

// Stats returns the table's census.
func (t *Table) Stats() Stats {
	return Stats{Name: t.name, K: t.k, Bytes: t.Bytes(), BuildNS: t.buildNS}
}

// Bytes returns the resident table payload in bytes: the dims array
// plus the fast-lane arrays when present (expansions and headers are
// noise by comparison).
func (t *Table) Bytes() int64 {
	return int64(len(t.dims)) + int64(len(t.perms)) + 4*int64(len(t.next))
}

// AppendRouteRanks implements core.RankTable: it serves the route for
// an endpoint-rank pair entirely from precomputed state.  Both
// endpoints come from the rank→permutation slab (two reads — no
// UnrankInto divisions), the quotient v⁻¹∘u is composed into stack
// arrays, and the walk is appendDense.  Declines (dst unchanged) when
// the table carries no slab (k > FastLaneMaxK), where the router's
// standard unrank path takes over.  Ranks must be in [0, N); the slab
// slices are read-only and never escape.
//
//scg:noalloc
func (t *Table) AppendRouteRanks(dst []gens.GenIndex, src, dstRank int64) ([]gens.GenIndex, bool) {
	if t.perms == nil {
		return dst, false
	}
	k := int64(t.k)
	u := perm.Perm(t.perms[src*k : src*k+k])
	v := perm.Perm(t.perms[dstRank*k : dstRank*k+k])
	var invArr, wArr [perm.MaxK]uint8
	inv := perm.Perm(invArr[:k])
	w := perm.Perm(wArr[:k])
	v.InverseInto(inv)
	inv.ComposeInto(w, u)
	return t.appendDense(dst, w), true
}

// AppendQuotientRoute implements core.QuotientTable: it appends the
// canonical route sorting quotient w to the identity.  The table
// serves every quotient, so the second result is always true; w is
// scratch (the digits walk consumes it, the fast-lane chase only
// ranks it).
func (t *Table) AppendQuotientRoute(dst []gens.GenIndex, w perm.Perm) ([]gens.GenIndex, bool) {
	return t.appendDense(dst, w), true
}

// appendDense is the table-mode hot loop.  With the fast lane built
// (k ≤ FastLaneMaxK) each hop is two flat-array loads and one
// expansion append — the rerank is already in the successor array, so
// w is only ranked once and never mutated.  Past the cap the walk
// falls back to transposition plus the division-free incremental
// rerank of RankSwapUpdate.  The digit vector lives on the stack; the
// only allocation anywhere is dst growth.
//
//scg:noalloc
func (t *Table) appendDense(dst []gens.GenIndex, w perm.Perm) []gens.GenIndex {
	var digArr [perm.MaxK]int32
	dig := digArr[:len(w)]
	rank := perm.LehmerDigitsInto(dig, w)
	mark := len(dst)
	if t.next != nil {
		for {
			d := t.dims[rank]
			if d == 0 {
				mTableRoutes.Inc()
				mTableSteps.Add(uint64(len(dst) - mark))
				return dst
			}
			dst = append(dst, t.exp[d]...)
			rank = int64(t.next[rank])
		}
	}
	for {
		d := t.dims[rank]
		if d == 0 {
			mTableRoutes.Inc()
			mTableSteps.Add(uint64(len(dst) - mark))
			return dst
		}
		dst = append(dst, t.exp[d]...)
		j := int(d) - 1
		rank += perm.RankSwapUpdate(w, dig, 0, j)
		w[0], w[j] = w[j], w[0]
	}
}

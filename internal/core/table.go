package core

// Precomputed-table routing mode: the contract between CachedRouter
// and the flat next-dimension tables of internal/tables.
//
// The table lives in its own package (it depends on core for the
// builder — every entry is derived from the greedy kernel — so core
// sees it only through this interface).  The fall-through policy is
// fixed: table first, then the symmetry-normalized LRU, then the
// greedy kernel.  A table covering the whole quotient space makes the
// LRU dead weight on the hot path; a table that declines a quotient
// leaves it to the LRU and the kernel.

import (
	"fmt"

	"supercayley/internal/gens"
	"supercayley/internal/perm"
)

// QuotientTable serves canonical quotient routes from precomputed
// state.  AppendQuotientRoute appends the route sorting quotient w to
// the identity onto dst and returns (extended slice, true); it may
// decline by returning dst unchanged with false, in which case w must also be left unchanged so
// the router can fall through to the LRU and the greedy kernel.  On
// success w is scratch: the table may consume it to the identity
// (mirroring the kernel's appendQuotientRoute contract) or leave it
// untouched (the precomputed-successor chase); callers must not rely
// on its contents afterwards.
type QuotientTable interface {
	AppendQuotientRoute(dst []gens.GenIndex, w perm.Perm) ([]gens.GenIndex, bool)
	// K returns the symbol count the table was built for.
	K() int
	// Name returns the name of the network the table was built from.
	Name() string
}

// RankTable is the optional extension tables implement when they can
// resolve endpoint ranks themselves (tables carrying a
// rank→permutation slab).  AppendRouteRanks appends the route for the
// pair addressed by Lehmer ranks and returns (extended slice, true),
// or declines with dst unchanged and false — the router then takes its
// standard UnrankInto path.  The emitted ports must be identical to
// AppendQuotientRoute on the pair's quotient; what the extension buys
// is skipping the router's two division-heavy unranks per pair.
type RankTable interface {
	QuotientTable
	AppendRouteRanks(dst []gens.GenIndex, src, dstRank int64) ([]gens.GenIndex, bool)
}

// TableConfig selects the precomputed-table routing mode of a
// CachedRouter.  The zero value routes PR-3 style (LRU → kernel).
type TableConfig struct {
	// Table, when non-nil, is consulted before the LRU on every route.
	Table QuotientTable
}

// NewCachedRouterWithTable builds a router with the table fall-through
// installed, validating the table against the network.
func NewCachedRouterWithTable(nw *Network, cfg CacheConfig, tcfg TableConfig) (*CachedRouter, error) {
	cr := NewCachedRouter(nw, cfg)
	if tcfg.Table != nil {
		if err := cr.UseTable(tcfg.Table); err != nil {
			return nil, err
		}
	}
	return cr, nil
}

// UseTable installs (or, with nil, removes) the precomputed quotient
// table consulted before the LRU.  The table must have been built for
// this router's network: same symbol count and network name, so its
// entries decode to the same generator indices.  UseTable is a setup
// call — it must not race with concurrent routing.
func (cr *CachedRouter) UseTable(t QuotientTable) error {
	if t == nil {
		cr.table = nil
		cr.rankTable = nil
		return nil
	}
	if t.K() != cr.nw.k {
		return fmt.Errorf("core: table built for k=%d, router network %s has k=%d", t.K(), cr.nw.Name(), cr.nw.k)
	}
	if t.Name() != cr.nw.Name() {
		return fmt.Errorf("core: table built for %s, router network is %s", t.Name(), cr.nw.Name())
	}
	cr.table = t
	cr.rankTable, _ = t.(RankTable)
	return nil
}

// Table returns the installed quotient table, or nil.
func (cr *CachedRouter) Table() QuotientTable { return cr.table }

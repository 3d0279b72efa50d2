//go:build !race

// The allocation-regression guard lives behind the !race tag for the
// same reason core's and serve's do: under the race detector sync.Pool
// deliberately drops items and allocation counts are inflated by
// instrumentation.

package shard

import (
	"testing"

	"supercayley/internal/core"
	"supercayley/internal/gens"
)

// TestDispatchWarmAllocFree pins the zero-alloc steady state of the
// shard dispatch path in both engine shapes: splitmix64 worker pick,
// then the per-shard cache, with the shared fast-lane table (k ≤
// FastLaneMaxK) or the kernel (past it) behind it.  A warm dispatch
// into a caller-owned buffer must not allocate at all.
func TestDispatchWarmAllocFree(t *testing.T) {
	cases := []struct {
		name string
		nw   *core.Network
		cfg  Config
	}{
		// Shared fast-lane table behind the caches.
		{"dense", core.MustNew(core.MS, 7, 1), Config{Shards: 4}},
		// k = 10, no table: cache hits with the kernel behind them.
		{"cache", core.MustNew(core.MS, 9, 1), Config{Shards: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(tc.nw, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := tc.nw.N()
			pairs := [][2]int64{{0, 1}, {n / 3, n - 1}, {n / 2, n / 7}, {n - 1, 0}}
			buf := make([]gens.GenIndex, 0, 256)
			// Warm every tier: scratch pool and cache entries.
			for r := 0; r < 8; r++ {
				for _, p := range pairs {
					buf, err = e.AppendRouteRanks(buf[:0], p[0], p[1])
					if err != nil {
						t.Fatalf("warm route %d→%d: %v", p[0], p[1], err)
					}
				}
			}
			i := 0
			if avg := testing.AllocsPerRun(400, func() {
				p := pairs[i&3]
				i++
				var err error
				buf, err = e.AppendRouteRanks(buf[:0], p[0], p[1])
				if err != nil {
					t.Fatalf("route %d→%d: %v", p[0], p[1], err)
				}
			}); avg != 0 {
				t.Fatalf("warm dispatch allocates %.2f objects per route, want 0", avg)
			}
		})
	}
}

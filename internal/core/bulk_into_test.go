package core

// RouteManyInto is the flush primitive behind the serve batcher, so
// its contract gets its own differential: identical routes to the bare
// kernel (RouteInto, pair by pair) on every batch size (up to past the
// served 1024-pair request), caller-owned buffers truncated and
// reused, and errors surfaced with the failing pair identified.  A
// NewTableRouter router with no table installed must give the same
// bytes through the kernel alone, without a cache.

import (
	"math/rand"
	"slices"
	"testing"

	"supercayley/internal/perm"
)

func TestRouteManyIntoDifferential(t *testing.T) {
	nw := MustNew(MS, 2, 2)
	cr := NewCachedRouter(nw, CacheConfig{})
	tr := NewTableRouter(nw)
	n := perm.Factorial(nw.K())
	r := rand.New(rand.NewSource(9))

	out, kernelOut := &BulkRoutes{}, &BulkRoutes{}
	for _, pairs := range []int{1, 2, 63, 1023, 1024, 1141} {
		srcs := make([]int64, pairs)
		dsts := make([]int64, pairs)
		for i := range srcs {
			srcs[i], dsts[i] = r.Int63n(n), r.Int63n(n)
		}
		// Reuse the same out across sizes: the truncation contract is
		// part of what is under test.
		if err := cr.RouteManyInto(out, srcs, dsts); err != nil {
			t.Fatalf("RouteManyInto(%d pairs): %v", pairs, err)
		}
		want := kernelBulk(nw, srcs, dsts)
		if out.Pairs() != want.Pairs() {
			t.Fatalf("%d pairs: RouteManyInto yields %d routes, the kernel %d", pairs, out.Pairs(), want.Pairs())
		}
		if err := tr.RouteManyInto(kernelOut, srcs, dsts); err != nil {
			t.Fatalf("table router RouteManyInto(%d pairs): %v", pairs, err)
		}
		if !slices.Equal(kernelOut.Offsets, want.Offsets) || !slices.Equal(kernelOut.Steps, want.Steps) {
			t.Fatalf("%d pairs: the table router without a table routes differently", pairs)
		}
		for i := 0; i < pairs; i++ {
			a, b := out.Route(i), want.Route(i)
			if len(a) != len(b) {
				t.Fatalf("%d pairs: route %d lengths differ (%d vs %d)", pairs, i, len(a), len(b))
			}
			for p := range a {
				if a[p] != b[p] {
					t.Fatalf("%d pairs: route %d diverges at step %d", pairs, i, p)
				}
			}
		}
	}
	if s := tr.Stats(); s != (CacheStats{}) {
		t.Fatalf("table router reports cache activity: %v", s)
	}
}

// kernelBulk routes every rank pair through the bare kernel, the
// reference the bulk entry points must match byte for byte.
func kernelBulk(nw *Network, srcs, dsts []int64) *BulkRoutes {
	s := NewRouteScratch(nw.K())
	u, v := perm.Identity(nw.K()), perm.Identity(nw.K())
	want := &BulkRoutes{Offsets: []int64{0}}
	for i := range srcs {
		perm.UnrankInto(u, srcs[i])
		perm.UnrankInto(v, dsts[i])
		want.Steps = nw.RouteInto(want.Steps, u, v, s)
		want.Offsets = append(want.Offsets, int64(len(want.Steps)))
	}
	return want
}

func TestRouteManyIntoErrors(t *testing.T) {
	nw := MustNew(MS, 2, 2)
	cr := NewCachedRouter(nw, CacheConfig{})
	out := &BulkRoutes{}
	if err := cr.RouteManyInto(out, []int64{1, 2}, []int64{3}); err == nil {
		t.Error("mismatched slice lengths accepted")
	}
	if err := cr.RouteManyInto(out, []int64{0, 1 << 40}, []int64{1, 2}); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

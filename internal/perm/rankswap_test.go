package perm

import (
	"math/rand"
	"testing"
)

// TestLehmerDigitsInto checks the combined digits+rank pass against
// the allocating LehmerDigits and the reference Rank across sizes.
func TestLehmerDigitsInto(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for k := 1; k <= 12; k++ {
		dig := make([]int32, k)
		for trial := 0; trial < 200; trial++ {
			p := Random(r, k)
			rank := LehmerDigitsInto(dig, p)
			if want := p.Rank(); rank != want {
				t.Fatalf("k=%d p=%v: LehmerDigitsInto rank %d, Rank() %d", k, p, rank, want)
			}
			ref := p.LehmerDigits()
			for i, d := range ref {
				if int(dig[i]) != d {
					t.Fatalf("k=%d p=%v: digit %d = %d, want %d", k, p, i, dig[i], d)
				}
			}
		}
	}
}

// TestRankAfterSwapMatchesFullRank is the quick-check property test
// demanded by the table-routing design: for random permutations and
// random position pairs, the incremental rerank must agree with
// swapping and recomputing the full Lehmer rank.
func TestRankAfterSwapMatchesFullRank(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	for k := 1; k <= 12; k++ {
		for trial := 0; trial < 400; trial++ {
			p := Random(r, k)
			rank := p.Rank()
			i, j := r.Intn(k), r.Intn(k)
			got := RankAfterSwap(p, rank, i, j)
			q := p.Clone()
			q[i], q[j] = q[j], q[i]
			if want := q.Rank(); got != want {
				t.Fatalf("k=%d p=%v swap(%d,%d): RankAfterSwap %d, want %d", k, p, i, j, got, want)
			}
			if !p.Equal(p) || got != RankAfterSwap(p, rank, j, i) {
				t.Fatalf("k=%d p=%v swap(%d,%d): not symmetric in (i, j)", k, p, i, j)
			}
		}
	}
}

// TestRankAfterSwapExhaustiveSmall sweeps every permutation and every
// position pair for small k, so the boundary-digit algebra is verified
// on the complete space rather than a sample.
func TestRankAfterSwapExhaustiveSmall(t *testing.T) {
	for k := 1; k <= 6; k++ {
		All(k, func(p Perm) bool {
			rank := p.Rank()
			for i := 0; i < k; i++ {
				for j := i; j < k; j++ {
					got := RankAfterSwap(p, rank, i, j)
					q := p.Clone()
					q[i], q[j] = q[j], q[i]
					if want := q.Rank(); got != want {
						t.Fatalf("k=%d p=%v swap(%d,%d): RankAfterSwap %d, want %d", k, p, i, j, got, want)
					}
				}
			}
			return true
		})
		if t.Failed() {
			return
		}
	}
}

// TestRankSwapUpdate walks random transposition chains, maintaining
// the digit vector with RankSwapUpdate, and checks rank and digits
// against fresh recomputation at every step.  Chained updates are the
// actual table-walk usage: one swap per greedy star move.
func TestRankSwapUpdate(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	for k := 1; k <= 12; k++ {
		dig := make([]int32, k)
		ref := make([]int32, k)
		for trial := 0; trial < 50; trial++ {
			p := Random(r, k)
			rank := LehmerDigitsInto(dig, p)
			for step := 0; step < 30; step++ {
				i, j := r.Intn(k), r.Intn(k)
				rank += RankSwapUpdate(p, dig, i, j)
				p[i], p[j] = p[j], p[i]
				if want := LehmerDigitsInto(ref, p); rank != want {
					t.Fatalf("k=%d step %d swap(%d,%d): chained rank %d, want %d", k, step, i, j, rank, want)
				}
				for m := range dig {
					if dig[m] != ref[m] {
						t.Fatalf("k=%d step %d swap(%d,%d): digit %d = %d, want %d", k, step, i, j, m, dig[m], ref[m])
					}
				}
			}
		}
	}
}

// TestNext checks the exported successor NextPivot against the Rank
// sequence, and the pivot it reports: the successor keeps p[:pivot]
// and changes p[pivot], and the last permutation reports −1 and stays
// put.
func TestNext(t *testing.T) {
	for k := 1; k <= 7; k++ {
		p := Identity(k)
		prev := make(Perm, k)
		var rank int64
		for {
			if got := p.Rank(); got != rank {
				t.Fatalf("k=%d: NextPivot visits rank %d at step %d", k, got, rank)
			}
			copy(prev, p)
			pivot := NextPivot(p)
			if pivot < 0 {
				if !p.Equal(prev) {
					t.Fatalf("k=%d: NextPivot moved the last permutation %v", k, prev)
				}
				break
			}
			if !p[:pivot].Equal(prev[:pivot]) || p[pivot] == prev[pivot] {
				t.Fatalf("k=%d: %v → %v reports pivot %d", k, prev, p, pivot)
			}
			rank++
		}
		if rank != Factorial(k)-1 {
			t.Fatalf("k=%d: NextPivot enumerated %d perms, want %d", k, rank+1, Factorial(k))
		}
	}
}

func BenchmarkRankAfterSwap(b *testing.B) {
	p := Unrank(10, 1234567)
	rank := p.Rank()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		rank = RankAfterSwap(p, rank, 0, n%9+1)
		i, j := 0, n%9+1
		p[i], p[j] = p[j], p[i]
	}
	sinkRank = rank
}

func BenchmarkRankSwapUpdate(b *testing.B) {
	p := Unrank(10, 1234567)
	dig := make([]int32, 10)
	rank := LehmerDigitsInto(dig, p)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		i, j := 0, n%9+1
		rank += RankSwapUpdate(p, dig, i, j)
		p[i], p[j] = p[j], p[i]
	}
	sinkRank = rank
}

var sinkRank int64

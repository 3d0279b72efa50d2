package perm

import "fmt"

// LehmerDigits returns the Lehmer code of p: digits[i] is the number
// of symbols to the right of position i that are smaller than p[i],
// so digits[i] ∈ [0, k−1−i] and the digits are the factorial-number-
// system representation of p.Rank().
//
// The Lehmer code underlies the paper's mesh and hypercube embeddings:
// two permutations whose codes differ in exactly one digit differ by a
// single transposition of symbols, so any bits→digits assignment maps
// hypercube edges to transpositions (TN distance 1, star distance ≤3).
func (p Perm) LehmerDigits() []int {
	k := len(p)
	digits := make([]int, k)
	for i := 0; i < k; i++ {
		smaller := 0
		for j := i + 1; j < k; j++ {
			if p[j] < p[i] {
				smaller++
			}
		}
		digits[i] = smaller
	}
	return digits
}

// LehmerDigitsInto writes the Lehmer code of p into dig (which must
// have length len(p)) and returns p.Rank() — the factorial-number-
// system value of the digits — without allocating.  It is the entry
// point of the precomputed-table routing walk (internal/tables): the
// walk keeps the digit vector alive in scratch and updates it with
// RankSwapUpdate instead of re-ranking from scratch per hop.
//
//scg:noalloc
func LehmerDigitsInto(dig []int32, p Perm) int64 {
	k := len(p)
	if len(dig) != k {
		panic(fmt.Sprintf("perm: LehmerDigitsInto digits length %d, want %d", len(dig), k))
	}
	var rank int64
	for i := 0; i < k; i++ {
		smaller := int32(0)
		for j := i + 1; j < k; j++ {
			if p[j] < p[i] {
				smaller++
			}
		}
		dig[i] = smaller
		rank += int64(smaller) * factorials[k-1-i]
	}
	return rank
}

// RankAfterSwap returns the Lehmer rank of the permutation obtained
// from p by swapping positions i and j (0-indexed), given rank =
// p.Rank(), without mutating p and without recomputing the full
// O(k²) Lehmer code.  Only the digits at positions i..j change under
// a transposition, and the two boundary digits are recovered from the
// rank itself, so the cost is O(j−i) plus two divisions — the
// incremental rerank at the heart of table-mode routing, where every
// greedy star move is exactly one transposition of the quotient.  A
// swap with position 0 (every greedy star move) needs no division:
// nothing precedes position 0, so both boundary digits follow from
// the symbols and the pass over the middle.
//
//scg:noalloc
func RankAfterSwap(p Perm, rank int64, i, j int) int64 {
	k := len(p)
	if i < 0 || j < 0 || i >= k || j >= k {
		panic(fmt.Sprintf("perm: RankAfterSwap positions (%d, %d) out of range for k=%d", i, j, k))
	}
	if i == j {
		return rank
	}
	if i > j {
		i, j = j, i
	}
	a, b := p[i], p[j]
	if a == b {
		return rank
	}
	fi, fj := factorials[k-1-i], factorials[k-1-j]
	// One pass over the strictly-between positions: count the symbols
	// smaller than a and b, and apply each middle digit's ±1 shift
	// (the symbol at j changes from b to a as seen from m ∈ (i, j), so
	// the digit gains [a < s] − [b < s] = [s < b] − [s < a]).  The pass
	// is branch-free: the comparisons are data-dependent coin flips.
	var ca, cb int64
	delta := int64(0)
	for m := i + 1; m < j; m++ {
		s := p[m]
		var sa, sb int64
		if s < a {
			sa = 1
		}
		if s < b {
			sb = 1
		}
		ca += sa
		cb += sb
		delta += (sb - sa) * factorials[k-1-m]
	}
	// New boundary digits: position i now holds b, so its digit counts
	// the smaller symbols beyond i — the middles, a at position j, and
	// the (unchanged) tail beyond j, whose contribution is dj with b's
	// own comparison folded out; symmetrically for position j.
	lt := int64(0) // [a < b]
	if a < b {
		lt = 1
	}
	var di, dj int64
	if i == 0 {
		// Every symbol smaller than a lies right of position 0, so
		// di = a−1; those smaller than b lie at position 0 (a, when
		// a < b), in the middle (cb), or in j's tail (dj).
		di = int64(a) - 1
		dj = int64(b) - 1 - lt - cb
	} else {
		// Boundary digits from the rank: digit m is
		// (rank / (k−1−m)!) mod (k−m).
		di = (rank / fi) % int64(k-i)
		dj = (rank / fj) % int64(k-j)
	}
	newDi := cb + lt + dj
	newDj := di - ca - (1 - lt)
	return rank + (newDi-di)*fi + (newDj-dj)*fj + delta
}

// RankSwapUpdate is RankAfterSwap for callers that maintain the full
// Lehmer digit vector (see LehmerDigitsInto): it updates dig in place
// to the code of p-with-positions-i-and-j-swapped and returns the rank
// delta to add, using no divisions — the boundary digits are read from
// dig instead of being re-derived from the rank.  p itself is NOT
// mutated; the caller performs the swap.  This is the table-walk hot
// path: one O(j−i) pass of compares and two table multiplies per hop.
//
//scg:noalloc
func RankSwapUpdate(p Perm, dig []int32, i, j int) int64 {
	k := len(p)
	if len(dig) != k {
		panic(fmt.Sprintf("perm: RankSwapUpdate digits length %d, want %d", len(dig), k))
	}
	if i < 0 || j < 0 || i >= k || j >= k {
		panic(fmt.Sprintf("perm: RankSwapUpdate positions (%d, %d) out of range for k=%d", i, j, k))
	}
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	a, b := p[i], p[j]
	if a == b {
		return 0
	}
	var ca, cb int32
	delta := int64(0)
	for m := i + 1; m < j; m++ {
		s := p[m]
		if s < a {
			ca++
		}
		if s < b {
			cb++
		}
		if a < s {
			if b >= s {
				delta += factorials[k-1-m]
				dig[m]++
			}
		} else if b < s {
			delta -= factorials[k-1-m]
			dig[m]--
		}
	}
	var lt int32 // [a < b]
	if a < b {
		lt = 1
	}
	di, dj := dig[i], dig[j]
	newDi := cb + lt + dj
	newDj := di - ca - (1 - lt)
	dig[i], dig[j] = newDi, newDj
	return int64(newDi-di)*factorials[k-1-i] + int64(newDj-dj)*factorials[k-1-j] + delta
}

// FromLehmerDigits reconstructs the permutation on k symbols from its
// Lehmer code (inverse of LehmerDigits); digits[k−1] must be 0.
func FromLehmerDigits(digits []int) (Perm, error) {
	k := len(digits)
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("perm: Lehmer code length %d out of range", k)
	}
	avail := make([]uint8, k)
	for i := range avail {
		avail[i] = uint8(i + 1)
	}
	p := make(Perm, k)
	for i, d := range digits {
		if d < 0 || d >= len(avail) {
			return nil, fmt.Errorf("perm: Lehmer digit %d = %d out of range [0,%d]", i, d, len(avail)-1)
		}
		p[i] = avail[d]
		avail = append(avail[:d], avail[d+1:]...)
	}
	return p, nil
}

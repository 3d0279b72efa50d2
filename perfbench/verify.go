package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/perm"
	"supercayley/internal/sim"
)

// verifier checks served routes against the network, never against
// the router under test: a route passes when every port is a
// generator index of the network and replaying the ports from the
// source ends at the destination.  Replay walks sim.Net neighbour
// tables where the network fits sim.MaxSimNodes (k ≤ 8) and applies
// the generators to the unranked source beyond that (k = 10 has 3.6M
// nodes; sim refuses to enumerate it).
//
// Verified routes are memoised by pool index.  The untimed warm-up
// verifies every pool pair by replay and records its route; a timed
// phase then accepts a route that is byte-identical to the recorded
// one and replays any other.  Every route is checked and none is
// sampled, yet the timed phases spend a byte comparison per pair.
type verifier struct {
	set   *gens.Set
	k     int
	ports int
	net   *sim.Net // nil past sim.MaxSimNodes

	arena []byte  // memoised routes, concatenated
	off   []int64 // off[i] is pool pair i's route offset in arena, -1 before warm-up
	ln    []int32
}

func newVerifier(nw *core.Network, poolPairs int) (*verifier, error) {
	v := &verifier{set: nw.Set(), k: nw.K(), ports: nw.Set().Len()}
	nt, err := sim.FromSet(nw.Name(), nw.Set())
	switch {
	case err == nil:
		v.net = nt
	case !errors.Is(err, sim.ErrTooLarge):
		return nil, err
	}
	v.off = make([]int64, poolPairs)
	v.ln = make([]int32, poolPairs)
	for i := range v.off {
		v.off[i] = -1
	}
	return v, nil
}

// replayScratch is one goroutine's replay buffers for the
// permutation path.
type replayScratch struct{ u, tmp perm.Perm }

func (v *verifier) scratch() *replayScratch {
	return &replayScratch{u: make(perm.Perm, v.k), tmp: make(perm.Perm, v.k)}
}

// replay reports whether route leads from src to dst over valid ports.
func (v *verifier) replay(src, dst int64, route []byte, s *replayScratch) bool {
	if v.net != nil {
		at := int(src)
		for _, p := range route {
			if int(p) >= v.ports {
				return false
			}
			at = v.net.Neighbor(at, int(p))
		}
		return int64(at) == dst
	}
	perm.UnrankInto(s.u, src)
	u, tmp := s.u, s.tmp
	for _, p := range route {
		if int(p) >= v.ports {
			return false
		}
		v.set.At(int(p)).ApplyInto(tmp, u)
		u, tmp = tmp, u
	}
	return u.Rank() == dst
}

// checkResponse verifies the SCGR frame answering pool pairs
// [lo, lo+pairs) and returns the summed route length.  With record
// set (the single-goroutine warm-up) it memoises each verified route.
func (v *verifier) checkResponse(p *pool, lo, pairs int, resp []byte, record bool, s *replayScratch) (int64, error) {
	lens, ports, err := decodeResponse(resp, pairs)
	if err != nil {
		return 0, err
	}
	var hops int64
	at := 0
	for i := 0; i < pairs; i++ {
		n := int(binary.LittleEndian.Uint32(lens[4*i:]))
		route := ports[at : at+n]
		at += n
		idx := lo + i
		if o := v.off[idx]; o >= 0 && bytes.Equal(route, v.arena[o:o+int64(v.ln[idx])]) {
			hops += int64(n)
			continue
		}
		if !v.replay(p.srcs[idx], p.dsts[idx], route, s) {
			return 0, fmt.Errorf("%w: pair %d (%d → %d), %d ports", errWrongRoute, idx, p.srcs[idx], p.dsts[idx], n)
		}
		if record {
			v.off[idx] = int64(len(v.arena))
			v.ln[idx] = int32(n)
			v.arena = append(v.arena, route...)
		}
		hops += int64(n)
	}
	return hops, nil
}

// errWrongRoute marks a served route that failed verification; the
// run reports correct=false and exits non-zero.
var errWrongRoute = errors.New("route failed verification")

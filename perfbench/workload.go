package main

import (
	"encoding/binary"
	"fmt"

	"supercayley/internal/core"
	"supercayley/internal/sim"
)

// workload is one traffic mix: the network `scg serve` routes, the
// pairs per request, and the fixed open-loop arrival rate.  The rate
// is a constant on purpose: parent and change must face the same
// offered load, so it is never derived from a throughput measured at
// run time.  BENCHMARK.json repeats every field in the workload's
// "why" (the self-test pins the two together).
type workload struct {
	name      string
	family    core.Family
	l, n      int
	reqPairs  int     // rank pairs per /route/bulk request
	rate      float64 // open-loop arrivals per second
	poolPairs int     // distinct pairs generated per seed, cycled by the phases
}

// zipfSkew is the skew of every workload's sim.ZipfWorkload pairs.
const zipfSkew = 1.2

// workloads are the benchmark's traffic mixes; README.md gives the
// reason for each.
var workloads = []workload{
	{name: "bulk_zipf_k8", family: core.MS, l: 7, n: 1, reqPairs: 1024, rate: 400, poolPairs: 1 << 19},
	{name: "small_zipf_k8", family: core.MS, l: 7, n: 1, reqPairs: 8, rate: 400, poolPairs: 1 << 16},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) network() (*core.Network, error) { return core.New(w.family, w.l, w.n) }

// dist names the pair distribution as README.md and BENCHMARK.json do.
func (w workload) dist() string { return fmt.Sprintf("zipf s=%.1f", zipfSkew) }

// pool is the seeded pair set of one run, cut into request-sized
// blocks.  Block b holds pairs [b·reqPairs, (b+1)·reqPairs); every
// phase addresses requests by block, so a pool index identifies the
// same pair in every phase (the verifier's memo relies on it).
type pool struct {
	srcs, dsts []int64
	reqPairs   int
	bodies     [][]byte // SCGB request frame per block, encoded once
}

func newPool(w workload, nodes int, seed int64) *pool {
	wl := sim.ZipfWorkload(nodes, w.poolPairs, seed, zipfSkew)
	p := &pool{srcs: make([]int64, w.poolPairs), dsts: make([]int64, w.poolPairs), reqPairs: w.reqPairs}
	for i := range p.srcs {
		p.srcs[i] = int64(wl.Srcs[i])
		p.dsts[i] = int64(wl.Dsts[i])
	}
	p.bodies = make([][]byte, p.blocks())
	for b := range p.bodies {
		lo, hi := p.span(b)
		p.bodies[b] = encodeRequest(p.srcs[lo:hi], p.dsts[lo:hi])
	}
	return p
}

func (p *pool) blocks() int { return len(p.srcs) / p.reqPairs }

// span returns the pool index range of block b (taken modulo the
// pool, so phases may run past its end).
func (p *pool) span(b int) (lo, hi int) {
	lo = (b % p.blocks()) * p.reqPairs
	return lo, lo + p.reqPairs
}

// Binary bulk framing of internal/serve/service.go, little-endian:
//
//	request:  u32 "SCGB" | u32 count | count×i64 srcs | count×i64 dsts
//	response: u32 "SCGR" | u32 count | count×u32 lens | Σlens×u8 ports
const (
	bulkContentType = "application/x-scg-bulk"
	reqMagic        = uint32('S') | uint32('C')<<8 | uint32('G')<<16 | uint32('B')<<24
	respMagic       = uint32('S') | uint32('C')<<8 | uint32('G')<<16 | uint32('R')<<24
	headerLen       = 8
)

func encodeRequest(srcs, dsts []int64) []byte {
	buf := make([]byte, 0, headerLen+16*len(srcs))
	buf = binary.LittleEndian.AppendUint32(buf, reqMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(srcs)))
	for _, s := range srcs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s))
	}
	for _, d := range dsts {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(d))
	}
	return buf
}

// decodeResponse checks an SCGR frame's shape against the pairs
// requested and returns its length and port blocks.
func decodeResponse(resp []byte, pairs int) (lens []byte, ports []byte, err error) {
	if len(resp) < headerLen {
		return nil, nil, fmt.Errorf("truncated response (%d bytes)", len(resp))
	}
	if m := binary.LittleEndian.Uint32(resp); m != respMagic {
		return nil, nil, fmt.Errorf("bad response magic %#x", m)
	}
	if c := int(binary.LittleEndian.Uint32(resp[4:])); c != pairs {
		return nil, nil, fmt.Errorf("response carries %d routes for %d pairs", c, pairs)
	}
	if len(resp) < headerLen+4*pairs {
		return nil, nil, fmt.Errorf("truncated length block (%d bytes for %d pairs)", len(resp), pairs)
	}
	lens = resp[headerLen : headerLen+4*pairs]
	ports = resp[headerLen+4*pairs:]
	var total int
	for i := 0; i < pairs; i++ {
		total += int(binary.LittleEndian.Uint32(lens[4*i:]))
	}
	if total != len(ports) {
		return nil, nil, fmt.Errorf("lengths sum to %d ports, frame carries %d", total, len(ports))
	}
	return lens, ports, nil
}

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"supercayley/internal/core"
	"supercayley/internal/gens"
)

// toyWorkloads mirror the benchmark's workloads at toy size: the same
// names, pair distributions and request shapes on networks of 24 and
// 120 nodes.
var toyWorkloads = []workload{
	{name: "bulk_zipf_k8", family: core.MS, l: 3, n: 1, reqPairs: 64, rate: 2000, poolPairs: 1 << 12},
	{name: "small_zipf_k8", family: core.MS, l: 3, n: 1, reqPairs: 8, rate: 1000, poolPairs: 1 << 10},
}

// buildScg builds `scg serve` from the module under test into dir.
func buildScg(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "scg")
	out, err := exec.Command("go", "build", "-o", bin, "supercayley/cmd/scg").CombinedOutput()
	if err != nil {
		t.Fatalf("building scg: %v\n%s", err, out)
	}
	return bin
}

func metricNames(ms map[string]metric) []string {
	var names []string
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// benchmarkJSON is the part of ../BENCHMARK.json the tests pin.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestToyRuns runs every workload at toy size in both modes against a
// freshly built `scg serve`: no request may fail, the metric names and
// units must be exactly those BENCHMARK.json declares, and a second
// seed must give the same names.
func TestToyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds scg and runs every workload")
	}
	saved := workloads
	workloads = toyWorkloads
	defer func() { workloads = saved }()
	scg := buildScg(t)
	out := t.TempDir()
	bj := readBenchmarkJSON(t)
	want := map[int]map[string]string{0: {}, 1: {}}
	for _, m := range bj.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			res, err := run(w.name, 1, 1, trace, scg, out, io.Discard)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace %d: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			got := map[string]string{}
			for n, m := range res.Metrics {
				got[n] = m.Unit
			}
			if !reflect.DeepEqual(got, want[trace]) {
				t.Errorf("%s trace %d: metrics %v, BENCHMARK.json declares %v", w.name, trace, got, want[trace])
			}
			if trace == 0 && res.Metrics["success_ratio"].Value != 1 {
				t.Errorf("%s: success_ratio %v", w.name, res.Metrics["success_ratio"].Value)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "spans", w.name+"-seed1.json")); err != nil {
			t.Errorf("%s: traced run wrote no spans: %v", w.name, err)
		}
	}
	w := workloads[0]
	for trace := 0; trace <= 1; trace++ {
		a, err := run(w.name, 1, 1, trace, scg, out, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		b, err := run(w.name, 2, 1, trace, scg, out, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(metricNames(a.Metrics), metricNames(b.Metrics)) {
			t.Errorf("trace %d: seed 1 reports %v, seed 2 %v", trace, metricNames(a.Metrics), metricNames(b.Metrics))
		}
		if trace == 0 && a.Metrics["hops_per_pair"] == b.Metrics["hops_per_pair"] {
			t.Errorf("seeds 1 and 2 routed the same mean hops %v; the pairs should differ", a.Metrics["hops_per_pair"])
		}
	}
}

// TestTablesLaneAtK10 runs the per-layer mode on a k=10 network, past
// tables.FastLaneMaxK, where Table.AppendRouteRanks declines every
// pair.  The declines must be counted, and the lane must be timed
// through AppendQuotientRoute: the run checks that the lane routed the
// kernel's total hops, which a declined lookup timed as a route would
// not.  It also replays every route by permutation, since sim refuses
// to enumerate 3.6M nodes.
func TestTablesLaneAtK10(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a k=10 table and runs the traced stack")
	}
	saved := workloads
	workloads = []workload{{name: "toy_k10", family: core.MS, l: 9, n: 1, reqPairs: 64, rate: 2000, poolPairs: 1 << 10}}
	defer func() { workloads = saved }()
	res, err := run("toy_k10", 1, 1, 1, "", t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if r := res.Metrics["tables.lane_decline_ratio"].Value; r != 1 {
		t.Errorf("tables.lane_decline_ratio = %v at k=10, want 1", r)
	}
}

func TestSeedsGiveDifferentPairs(t *testing.T) {
	for _, w := range workloads {
		nw, err := w.network()
		if err != nil {
			t.Fatal(err)
		}
		a, b := newPool(w, int(nw.N()), 1), newPool(w, int(nw.N()), 2)
		if reflect.DeepEqual(a.srcs, b.srcs) && reflect.DeepEqual(a.dsts, b.dsts) {
			t.Errorf("%s: seeds 1 and 2 give the same pairs", w.name)
		}
		if c := newPool(w, int(nw.N()), 1); !reflect.DeepEqual(a.srcs, c.srcs) || !reflect.DeepEqual(a.dsts, c.dsts) {
			t.Errorf("%s: seed 1 gives different pairs on a second draw", w.name)
		}
	}
}

// corruptRouter changes the first port of every batch it routes: the
// route stays made of valid ports but ends elsewhere.
type corruptRouter struct{ core.Router }

func (c corruptRouter) RouteManyInto(out *core.BulkRoutes, srcs, dsts []int64) error {
	err := c.Router.RouteManyInto(out, srcs, dsts)
	if len(out.Steps) > 0 {
		ports := c.Network().Set().Len()
		out.Steps[0] = gens.GenIndex((int(out.Steps[0]) + 1) % ports)
	}
	return err
}

func TestCorruptPortIsCaught(t *testing.T) {
	w := toyWorkloads[0]
	nw, err := w.network()
	if err != nil {
		t.Fatal(err)
	}
	s, err := startInProcess(corruptRouter{core.NewCachedRouter(nw, core.CacheConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	c := newClient(s.addr, 2)
	defer c.close()
	p := newPool(w, int(nw.N()), 1)
	v, err := newVerifier(nw, len(p.srcs))
	if err != nil {
		t.Fatal(err)
	}
	if err := warm(c, p, v); !errors.Is(err, errWrongRoute) {
		t.Fatalf("warm-up over a corrupting router: %v, want a wrong route", err)
	}
	// The batcher may merge requests into one batch, so at least one
	// request per batch fails; none may pass as a success.
	o := openLoop(c, p, v, 2, w.rate, 20, 0, 1, nil)
	if o.attempted != 20 || o.failed == 0 || !errors.Is(o.wrong, errWrongRoute) {
		t.Fatalf("open loop: attempted %d failed %d wrong %v, want wrong routes counted as failed requests", o.attempted, o.failed, o.wrong)
	}
	if len(o.latencies) != o.attempted-o.failed {
		t.Errorf("%d latencies for %d succeeded requests", len(o.latencies), o.attempted-o.failed)
	}
}

// TestReplayPathsAgree checks the permutation replay (used past
// sim.MaxSimNodes) against the sim.Net neighbour-table replay on
// correct and corrupted routes.
func TestReplayPathsAgree(t *testing.T) {
	nw, err := core.New(core.MS, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := newVerifier(nw, 0)
	if err != nil {
		t.Fatal(err)
	}
	perms := *tables
	perms.net = nil
	s := tables.scratch()
	cr := core.NewCachedRouter(nw, core.CacheConfig{})
	n := nw.N()
	for src := int64(0); src < n; src += 7 {
		dst := (src*31 + 5) % n
		route, err := cr.AppendRouteRanks(nil, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		r := make([]byte, len(route))
		for i, p := range route {
			r[i] = byte(p)
		}
		for _, c := range []struct {
			route []byte
			want  bool
		}{
			{r, true},
			{append(r[:len(r):len(r)], byte(nw.Degree())), false},
			{corrupt(r, nw.Degree()), src == dst},
		} {
			a, b := tables.replay(src, dst, c.route, s), perms.replay(src, dst, c.route, s)
			if a != c.want || b != c.want {
				t.Fatalf("pair (%d, %d) route %v: table replay %v, permutation replay %v, want %v", src, dst, c.route, a, b, c.want)
			}
		}
	}
}

func corrupt(r []byte, ports int) []byte {
	if len(r) == 0 {
		return r
	}
	c := append([]byte(nil), r...)
	c[len(c)/2] = byte((int(c[len(c)/2]) + 1) % ports)
	return c
}

// TestBenchmarkJSONDescribesWorkloads pins BENCHMARK.json's workload
// list, and the network, request size and rate each "why" states, to
// the workload table.
func TestBenchmarkJSONDescribesWorkloads(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		nw, err := w.network()
		if err != nil {
			t.Fatal(err)
		}
		got := bj.Workloads[i]
		if got.Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, got.Name, w.name)
		}
		for _, frag := range []string{
			fmt.Sprintf("%s k=%d", nw.Name(), nw.K()),
			w.dist(),
			fmt.Sprintf("%d pairs/request", w.reqPairs),
			fmt.Sprintf("open loop %g req/s", w.rate),
		} {
			if !strings.Contains(got.Why, frag) {
				t.Errorf("%s: why %q does not state %q", w.name, got.Why, frag)
			}
		}
	}
}

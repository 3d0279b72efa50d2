package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterStripesSum(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	for slot := 0; slot < 3*Stripes; slot++ {
		c.AddAt(slot, uint64(slot))
	}
	want := uint64(0)
	for slot := 0; slot < 3*Stripes; slot++ {
		want += uint64(slot)
	}
	if got := c.Value(); got != want {
		t.Fatalf("Value() = %d, want %d", got, want)
	}
	// Slots wrap modulo Stripes: slot and slot+Stripes share a stripe.
	sv := c.stripeValues()
	if len(sv) != Stripes {
		t.Fatalf("stripeValues len = %d, want %d", len(sv), Stripes)
	}
	for s, got := range sv {
		want := uint64(s + (s + Stripes) + (s + 2*Stripes))
		if got != want {
			t.Fatalf("stripe %d = %d, want %d", s, got, want)
		}
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "h")
	b := r.Counter("same_total", "h")
	if a != b {
		t.Fatal("re-registering a counter returned a different instance")
	}
	h1 := r.HopHist("hops", "h", 16)
	h2 := r.HopHist("hops", "h", 16)
	if h1 != h2 {
		t.Fatal("re-registering a histogram returned a different instance")
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("taken_total", "h")
	mustPanic("kind clash", func() { r.Gauge("taken_total", "h") })
	mustPanic("invalid name", func() { r.Counter("0starts_with_digit", "h") })
	mustPanic("invalid rune", func() { r.Counter("has-dash", "h") })
	r.HopHist("shape", "h", 8)
	mustPanic("shape clash", func() { r.HopHist("shape", "h", 9) })
	mustPanic("hop max too small", func() { r.HopHist("tiny", "h", 0) })
}

func TestHopHistogramExact(t *testing.T) {
	r := NewRegistry()
	h := r.HopHist("route_hops", "h", 4)
	obs := []uint64{0, 1, 1, 2, 4, 4, 4, 7, 100} // 7 and 100 overflow
	for i, v := range obs {
		h.Observe(i, v)
	}
	snap := histSnapOf(h)
	if snap.Count != uint64(len(obs)) {
		t.Fatalf("count = %d, want %d", snap.Count, len(obs))
	}
	var wantSum uint64
	for _, v := range obs {
		wantSum += v
	}
	if snap.Sum != wantSum {
		t.Fatalf("sum = %d, want %d (overflow values must contribute exactly)", snap.Sum, wantSum)
	}
	if snap.Overflow != 2 {
		t.Fatalf("overflow = %d, want 2", snap.Overflow)
	}
	wantBuckets := []BucketSnap{{0, 1}, {1, 2}, {2, 1}, {3, 0}, {4, 3}}
	if len(snap.Buckets) != len(wantBuckets) {
		t.Fatalf("buckets = %+v, want %+v", snap.Buckets, wantBuckets)
	}
	for i, b := range snap.Buckets {
		if b != wantBuckets[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, b, wantBuckets[i])
		}
	}
}

func TestPow2HistogramBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Pow2Hist("lat_ns", "h")
	// bits.Len64 buckets: 0→0, 1→1, 2..3→2, 4..7→3, ...
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 1 << 40} {
		h.Observe(0, v)
	}
	snap := histSnapOf(h)
	if snap.Kind != "pow2" {
		t.Fatalf("kind = %q", snap.Kind)
	}
	if snap.Count != 8 {
		t.Fatalf("count = %d, want 8", snap.Count)
	}
	wantSum := uint64(0 + 1 + 2 + 3 + 4 + 7 + 8 + 1<<40)
	if snap.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", snap.Sum, wantSum)
	}
	find := func(le uint64) uint64 {
		for _, b := range snap.Buckets {
			if b.Le == le {
				return b.Count
			}
		}
		return 0
	}
	if find(0) != 1 || find(1) != 1 || find(3) != 2 || find(7) != 2 || find(15) != 1 {
		t.Fatalf("unexpected bucket layout: %+v", snap.Buckets)
	}
	if last := snap.Buckets[len(snap.Buckets)-1].Le; last != 1<<41-1 {
		t.Fatalf("last bucket le = %d, want %d", last, uint64(1<<41-1))
	}
}

// fillRegistry populates a registry with one metric of every kind.
func fillRegistry(r *Registry) {
	c := r.Counter("zz_routes_total", "routed pairs")
	c.AddAt(1, 41)
	c.Inc()
	r.CounterFunc("aa_live", "callback counter", func() uint64 { return 7 })
	r.Gauge("mid_ratio", "a ratio").Set(0.25)
	r.GaugeFunc("mid_load", "callback gauge", func() float64 { return 2.5 })
	h := r.HopHist("hops", "hop counts", 6)
	for v := uint64(0); v <= 9; v++ {
		h.Observe(int(v), v)
	}
	p := r.Pow2Hist("lat", "latencies")
	p.Observe(0, 300)
	p.Observe(3, 5)
}

func TestSnapshotDeterministic(t *testing.T) {
	r := NewRegistry()
	fillRegistry(r)
	p1 := r.PrometheusText()
	p2 := r.PrometheusText()
	if !bytes.Equal(p1, p2) {
		t.Fatalf("quiesced Prometheus snapshots differ:\n%s\n---\n%s", p1, p2)
	}
	j1, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("quiesced JSON snapshots differ:\n%s\n---\n%s", j1, j2)
	}
	// Counters (struct-backed and callback-backed together) come out
	// name-sorted regardless of registration order.
	snap := r.Snapshot()
	for i := 1; i < len(snap.Counters); i++ {
		if snap.Counters[i-1].Name >= snap.Counters[i].Name {
			t.Fatalf("counters not sorted: %q before %q",
				snap.Counters[i-1].Name, snap.Counters[i].Name)
		}
	}
	if len(snap.Counters) != 2 || snap.Counters[0].Name != "aa_live" {
		t.Fatalf("counter merge wrong: %+v", snap.Counters)
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	fillRegistry(r)
	text := string(r.PrometheusText())
	for _, want := range []string{
		"# HELP zz_routes_total routed pairs\n# TYPE zz_routes_total counter\nzz_routes_total 42\n",
		"# TYPE aa_live counter\naa_live 7\n",
		"mid_ratio 0.25\n",
		"mid_load 2.5\n",
		"# TYPE hops histogram\n",
		"hops_bucket{le=\"6\"} 7\n", // cumulative ≤6 of 0..9
		"hops_bucket{le=\"+Inf\"} 10\n",
		"hops_sum 45\n",
		"hops_count 10\n",
		"lat_bucket{le=\"7\"} 1\n",
		"lat_bucket{le=\"511\"} 2\n",
		"lat_sum 305\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus output missing %q:\n%s", want, text)
		}
	}
}

func TestJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	fillRegistry(r)
	blob, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if len(snap.Counters) != 2 || len(snap.Gauges) != 2 || len(snap.Histograms) != 2 {
		t.Fatalf("round-tripped snapshot wrong shape: %+v", snap)
	}
}

// TestConcurrentHammer drives counters and histograms from GOMAXPROCS
// writers while a reader snapshots continuously, asserting that
// observed totals never decrease (monotonicity) and that after the
// writers quiesce two back-to-back snapshots are byte-identical.
// Run under -race this also proves the increment path is data-race
// free against exposition.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total", "h")
	h := r.HopHist("hammer_hops", "h", 16)
	p := r.Pow2Hist("hammer_lat", "h")

	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	const perWorker = 20000
	var stop uint32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.IncAt(w)
				h.Observe(w, uint64(i%20)) // 17..19 overflow
				p.Observe(w, uint64(i))
			}
		}(w)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var lastC, lastH uint64
		for atomic.LoadUint32(&stop) == 0 {
			snap := r.Snapshot()
			var cv, hv uint64
			for _, cs := range snap.Counters {
				if cs.Name == "hammer_total" {
					cv = cs.Value
				}
			}
			for _, hs := range snap.Histograms {
				if hs.Name == "hammer_hops" {
					hv = hs.Count
				}
			}
			if cv < lastC || hv < lastH {
				t.Errorf("snapshot went backwards: counter %d→%d, hist %d→%d", lastC, cv, lastH, hv)
				return
			}
			lastC, lastH = cv, hv
		}
	}()
	wg.Wait()
	atomic.StoreUint32(&stop, 1)
	<-readerDone

	total := uint64(workers * perWorker)
	if got := c.Value(); got != total {
		t.Fatalf("counter lost increments: %d, want %d", got, total)
	}
	hs := histSnapOf(h)
	if hs.Count != total {
		t.Fatalf("hop histogram lost observations: %d, want %d", hs.Count, total)
	}
	var wantSum uint64
	for i := 0; i < perWorker; i++ {
		wantSum += uint64(i % 20)
	}
	wantSum *= uint64(workers)
	if hs.Sum != wantSum {
		t.Fatalf("hop histogram sum inexact under concurrency: %d, want %d", hs.Sum, wantSum)
	}
	s1 := r.PrometheusText()
	s2 := r.PrometheusText()
	if !bytes.Equal(s1, s2) {
		t.Fatal("quiesced snapshots differ after hammer")
	}
	j1, _ := r.JSON()
	j2, _ := r.JSON()
	if !bytes.Equal(j1, j2) {
		t.Fatal("quiesced JSON snapshots differ after hammer")
	}
}

func TestValidMetricName(t *testing.T) {
	for name, want := range map[string]bool{
		"ok_name":   true,
		"Ok:name9":  true,
		"":          false,
		"9lead":     false,
		"has space": false,
	} {
		if got := validMetricName(name); got != want {
			t.Errorf("validMetricName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestDefaultRegistryPublished(t *testing.T) {
	// The init in expo.go publishes the default registry on expvar, and
	// the flight recorder registers its counters on it.
	if expvar.Get("scg_metrics") == nil {
		t.Fatal("scg_metrics not published on expvar")
	}
	found := false
	for _, c := range Default.Snapshot().Counters {
		if c.Name == "scg_flight_journeys_total" {
			found = true
		}
	}
	if !found {
		t.Fatal("scg_flight_journeys_total missing from Default registry")
	}
}

func BenchmarkCounterAddAt(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.AddAt(i, 1)
	}
	_ = fmt.Sprint(c.Value())
}

func BenchmarkHistObserve(b *testing.B) {
	r := NewRegistry()
	h := r.HopHist("bench_hops", "h", 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(i, uint64(i&31))
	}
}

// Package obs is the always-on, allocation-free observability layer:
// a standard-library-only metrics and tracing registry serving the
// routing engine, the simulators, and the analytics drivers.
//
// The design splits cleanly into a hot half and a cold half.  The hot
// half — Counter.Add/Inc, Histogram.Observe, Journey.Mark —
// is a handful of atomic operations on cache-line-padded striped
// cells, never allocates, and is annotated //scg:noalloc so scglint
// verifies that structurally; the zero-alloc routing kernels may call
// it without giving up their guarantee.  The cold half — snapshots,
// Prometheus/JSON exposition, expvar publication — locks, allocates,
// and sorts freely, and produces byte-identical output for identical
// quiesced registry states, so metric exposition is testable with
// plain byte comparison.
//
// Striping: every counter and histogram owns Stripes independent
// cells, each padded to its own cache line.  Callers on parallel hot
// paths pass a goroutine-affine slot (the cache shard index, the
// worker index of a parallelChunks body, ...) to AddAt/Observe so
// concurrent increments land on different lines; the default Add/Inc
// use slot 0 and suit low-rate paths.  Values are summed over stripes
// at snapshot time.
//
// The layer has no off switch: every increment always lands.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Stripes is the number of independent cache-line-padded cells each
// counter and histogram owns (a power of two; slots wrap modulo it).
const (
	Stripes    = 8
	stripeMask = Stripes - 1
)

// cell is one striped accumulator, padded so that adjacent stripes
// never share a cache line (64-byte lines; the uint64 plus 56 bytes).
type cell struct {
	n uint64
	_ [56]byte
}

// Counter is a monotone striped atomic counter.
type Counter struct {
	name, help string
	stripes    [Stripes]cell
}

// Name returns the registered metric name.
func (c *Counter) Name() string { return c.name }

// AddAt adds delta on the stripe selected by slot (wrapped modulo
// Stripes).  Pass a goroutine-affine slot — a worker index, a shard
// index — so parallel writers do not bounce one cache line.
//
//scg:noalloc
func (c *Counter) AddAt(slot int, delta uint64) {
	atomic.AddUint64(&c.stripes[slot&stripeMask].n, delta)
}

// IncAt adds one on the stripe selected by slot.
//
//scg:noalloc
func (c *Counter) IncAt(slot int) { c.AddAt(slot, 1) }

// Add adds delta on stripe 0; suited to low-rate or single-goroutine
// paths.
//
//scg:noalloc
func (c *Counter) Add(delta uint64) { c.AddAt(0, delta) }

// Inc adds one on stripe 0.
//
//scg:noalloc
func (c *Counter) Inc() { c.AddAt(0, 1) }

// Value sums the stripes.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.stripes {
		total += atomic.LoadUint64(&c.stripes[i].n)
	}
	return total
}

// stripeValues returns the per-stripe values (the per-worker
// breakdown of worker-slotted counters).
func (c *Counter) stripeValues() []uint64 {
	out := make([]uint64, Stripes)
	for i := range c.stripes {
		out[i] = atomic.LoadUint64(&c.stripes[i].n)
	}
	return out
}

// Gauge is an instantaneous float64 value (stored as atomic bits).
type Gauge struct {
	name, help string
	bits       uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	atomic.StoreUint64(&g.bits, math.Float64bits(v))
}

// Value loads the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(atomic.LoadUint64(&g.bits)) }

// Histogram is a fixed-bucket striped histogram.  Two shapes exist:
//
//   - hop histograms (NewRegistry().HopHist): exact integer buckets
//     0..max plus one overflow bucket — sized to the family's diameter
//     bound so every route length is counted exactly;
//   - power-of-two histograms (Pow2Hist): bucket b counts values v
//     with bits.Len64(v) == b, i.e. v ≤ 2^b − 1 — the latency shape
//     (nanoseconds) where relative resolution is what matters.
//
// Observations are one atomic add on the caller's stripe (two when
// the value feeds a tracked sum); sums and counts are derived at
// snapshot time, exactly for hop histograms (bucket b contributes
// b·count), from a striped accumulator for power-of-two ones.
type Histogram struct {
	name, help string
	pow2       bool
	max        int // highest finite bucket index
	width      int // finite buckets + overflow
	counts     []uint64
	sums       [Stripes]cell // pow2: total value sum; hops: overflow value sum
}

func newHistogram(name, help string, pow2 bool, max int) *Histogram {
	h := &Histogram{name: name, help: help, pow2: pow2, max: max}
	if pow2 {
		h.width = max + 1 // bits.Len64 ∈ [0, 64]; no separate overflow
	} else {
		h.width = max + 2
	}
	h.counts = make([]uint64, Stripes*h.width)
	return h
}

// Name returns the registered metric name.
func (h *Histogram) Name() string { return h.name }

// Observe records v on the stripe selected by slot.
//
//scg:noalloc
func (h *Histogram) Observe(slot int, v uint64) {
	s := slot & stripeMask
	var b int
	if h.pow2 {
		b = bits.Len64(v)
		atomic.AddUint64(&h.sums[s].n, v)
	} else if v > uint64(h.max) {
		b = h.max + 1
		atomic.AddUint64(&h.sums[s].n, v)
	} else {
		b = int(v)
	}
	atomic.AddUint64(&h.counts[s*h.width+b], 1)
}

// ObserveBulk merges a privately accumulated histogram page into the
// stripe selected by slot: counts[b] raw observations per bucket
// (len(counts) must equal the bucket count, max+2 for hop histograms,
// max+1 for pow2), plus the striped-sum contribution — the total of
// all observed values for pow2 histograms, the total of overflowed
// values for hop histograms.  It exists so per-observation callers
// that own scratch memory (the routing engine's pooled RouteScratch)
// can batch dozens of observations into one pass of atomics instead
// of paying one atomic add per event on the hot path.
func (h *Histogram) ObserveBulk(slot int, counts []uint32, sum uint64) {
	if len(counts) != h.width {
		panic("obs: ObserveBulk page width does not match the histogram")
	}
	s := slot & stripeMask
	for b, c := range counts {
		if c != 0 {
			atomic.AddUint64(&h.counts[s*h.width+b], uint64(c))
		}
	}
	if sum != 0 {
		atomic.AddUint64(&h.sums[s].n, sum)
	}
}

// bucketTotals sums the stripes per bucket; sumTotal the striped sums.
func (h *Histogram) bucketTotals() []uint64 {
	out := make([]uint64, h.width)
	for s := 0; s < Stripes; s++ {
		for b := 0; b < h.width; b++ {
			out[b] += atomic.LoadUint64(&h.counts[s*h.width+b])
		}
	}
	return out
}

func (h *Histogram) sumTotal() uint64 {
	var total uint64
	for i := range h.sums {
		total += atomic.LoadUint64(&h.sums[i].n)
	}
	return total
}

// upperBound returns the inclusive upper bound of finite bucket b.
func (h *Histogram) upperBound(b int) uint64 {
	if !h.pow2 {
		return uint64(b)
	}
	if b == 0 {
		return 0
	}
	if b >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(b) - 1
}

// counterFunc and gaugeFunc are callback-backed metrics: the value is
// computed at snapshot time from state maintained elsewhere (the
// route cache's per-shard counters, the live-cache roster).  They add
// zero hot-path cost; the callback must be safe to call concurrently
// and stable while the process is quiesced.
type counterFunc struct {
	name, help string
	fn         func() uint64
}

type gaugeFunc struct {
	name, help string
	fn         func() float64
}

// Registry holds named metrics.  Registration is idempotent: asking
// for an existing name of the same kind (and shape) returns the
// existing metric, so package-level instrumentation variables across
// independently initialized packages cannot collide; a kind or shape
// mismatch panics loudly at init time.
type Registry struct {
	mu           sync.Mutex
	counters     map[string]*Counter
	counterFuncs map[string]*counterFunc
	gauges       map[string]*Gauge
	gaugeFuncs   map[string]*gaugeFunc
	hists        map[string]*Histogram
	kinds        map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:     map[string]*Counter{},
		counterFuncs: map[string]*counterFunc{},
		gauges:       map[string]*Gauge{},
		gaugeFuncs:   map[string]*gaugeFunc{},
		hists:        map[string]*Histogram{},
		kinds:        map[string]string{},
	}
}

// Default is the process-wide registry every instrumented package
// registers into; `scg serve` and `scg stats` expose it.
var Default = NewRegistry()

// checkName validates the Prometheus metric-name grammar and records
// the kind, panicking on a clash — a programming error worth failing
// fast on, mirroring expvar.Publish.
func (r *Registry) checkName(name, kind string) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if have, ok := r.kinds[name]; ok && have != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, have))
	}
	r.kinds[name] = kind
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter registers (or returns) the named striped counter.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "counter")
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, help: help}
	r.counters[name] = c
	return c
}

// CounterFunc registers a callback-backed monotone counter (first
// registration wins).  fn must be concurrency-safe and monotone.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "counterfunc")
	if _, ok := r.counterFuncs[name]; ok {
		return
	}
	r.counterFuncs[name] = &counterFunc{name: name, help: help, fn: fn}
}

// Gauge registers (or returns) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "gauge")
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	return g
}

// GaugeFunc registers a callback-backed gauge (first registration
// wins).  fn must be concurrency-safe.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "gaugefunc")
	if _, ok := r.gaugeFuncs[name]; ok {
		return
	}
	r.gaugeFuncs[name] = &gaugeFunc{name: name, help: help, fn: fn}
}

// HopHist registers (or returns) an exact-bucket histogram with
// finite buckets 0..max plus an overflow bucket.  Size max to the
// routed family's diameter bound so every observation lands exactly.
func (r *Registry) HopHist(name, help string, max int) *Histogram {
	if max < 1 {
		panic(fmt.Sprintf("obs: HopHist %q needs max ≥ 1", name))
	}
	return r.histogram(name, help, false, max)
}

// Pow2Hist registers (or returns) a power-of-two-bucket histogram
// (bucket b holds values ≤ 2^b − 1) — the shape for latencies in
// nanoseconds.
func (r *Registry) Pow2Hist(name, help string) *Histogram {
	return r.histogram(name, help, true, 64)
}

func (r *Registry) histogram(name, help string, pow2 bool, max int) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "histogram")
	if h, ok := r.hists[name]; ok {
		if h.pow2 != pow2 || h.max != max {
			panic(fmt.Sprintf("obs: histogram %q re-registered with a different shape", name))
		}
		return h
	}
	h := newHistogram(name, help, pow2, max)
	r.hists[name] = h
	return h
}

// sortedKeys returns the keys of any metric map in sorted order.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

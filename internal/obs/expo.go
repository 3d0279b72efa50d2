package obs

// Deterministic exposition: a quiesced registry snapshots to the same
// bytes every time, in both Prometheus text format and JSON — metrics
// are emitted in sorted name order, bucket lists are trimmed by data
// (never by timing), and no timestamps appear anywhere.

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"strconv"
)

// CounterSnap is one counter (or callback counter) in a snapshot.
// Stripes carries the per-stripe breakdown of striped counters — the
// per-worker view of worker-slotted metrics — and is nil for
// callback-backed counters.
type CounterSnap struct {
	Name    string   `json:"name"`
	Help    string   `json:"help,omitempty"`
	Value   uint64   `json:"value"`
	Stripes []uint64 `json:"stripes,omitempty"`
}

// GaugeSnap is one gauge in a snapshot.
type GaugeSnap struct {
	Name  string  `json:"name"`
	Help  string  `json:"help,omitempty"`
	Value float64 `json:"value"`
}

// BucketSnap is one finite histogram bucket: Le is the inclusive
// upper bound, Count the raw (non-cumulative) observation count.
type BucketSnap struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistSnap is one histogram in a snapshot.  Buckets are trimmed after
// the last nonzero finite bucket; Overflow counts observations above
// the last finite bucket of hop histograms.
type HistSnap struct {
	Name     string       `json:"name"`
	Help     string       `json:"help,omitempty"`
	Kind     string       `json:"kind"` // "hops" or "pow2"
	Count    uint64       `json:"count"`
	Sum      uint64       `json:"sum"`
	Overflow uint64       `json:"overflow,omitempty"`
	Buckets  []BucketSnap `json:"buckets"`
}

// Snapshot is one deterministic view of a registry.
type Snapshot struct {
	Counters   []CounterSnap `json:"counters"`
	Gauges     []GaugeSnap   `json:"gauges"`
	Histograms []HistSnap    `json:"histograms"`
}

// Snapshot captures every registered metric, in sorted name order.
// Two snapshots of the same quiesced registry are deeply equal, and
// their Prometheus/JSON renderings byte-identical.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, name := range sortedKeys(r.counters) {
		counters = append(counters, r.counters[name])
	}
	counterFuncs := make([]*counterFunc, 0, len(r.counterFuncs))
	for _, name := range sortedKeys(r.counterFuncs) {
		counterFuncs = append(counterFuncs, r.counterFuncs[name])
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, name := range sortedKeys(r.gauges) {
		gauges = append(gauges, r.gauges[name])
	}
	gaugeFuncs := make([]*gaugeFunc, 0, len(r.gaugeFuncs))
	for _, name := range sortedKeys(r.gaugeFuncs) {
		gaugeFuncs = append(gaugeFuncs, r.gaugeFuncs[name])
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, name := range sortedKeys(r.hists) {
		hists = append(hists, r.hists[name])
	}
	r.mu.Unlock()
	// Callbacks run outside the registry lock: collector functions may
	// take their own locks (the route cache's shard mutexes) and must
	// not be able to deadlock against registration.

	var snap Snapshot
	for _, c := range counters {
		snap.Counters = append(snap.Counters, CounterSnap{
			Name: c.name, Help: c.help, Value: c.Value(), Stripes: c.stripeValues(),
		})
	}
	for _, cf := range counterFuncs {
		snap.Counters = append(snap.Counters, CounterSnap{Name: cf.name, Help: cf.help, Value: cf.fn()})
	}
	sortCounterSnaps(snap.Counters)
	for _, g := range gauges {
		snap.Gauges = append(snap.Gauges, GaugeSnap{Name: g.name, Help: g.help, Value: g.Value()})
	}
	for _, gf := range gaugeFuncs {
		snap.Gauges = append(snap.Gauges, GaugeSnap{Name: gf.name, Help: gf.help, Value: gf.fn()})
	}
	sortGaugeSnaps(snap.Gauges)
	for _, h := range hists {
		snap.Histograms = append(snap.Histograms, histSnapOf(h))
	}
	return snap
}

func sortCounterSnaps(s []CounterSnap) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Name < s[j-1].Name; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func sortGaugeSnaps(s []GaugeSnap) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Name < s[j-1].Name; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func histSnapOf(h *Histogram) HistSnap {
	totals := h.bucketTotals()
	snap := HistSnap{Name: h.name, Help: h.help, Kind: "hops"}
	if h.pow2 {
		snap.Kind = "pow2"
	}
	finite := h.max + 1
	if !h.pow2 {
		snap.Overflow = totals[h.max+1]
	}
	last := -1
	for b := 0; b < finite; b++ {
		if totals[b] != 0 {
			last = b
		}
	}
	for b := 0; b <= last; b++ {
		snap.Buckets = append(snap.Buckets, BucketSnap{Le: h.upperBound(b), Count: totals[b]})
		snap.Count += totals[b]
		if !h.pow2 {
			snap.Sum += uint64(b) * totals[b]
		}
	}
	snap.Count += snap.Overflow
	if h.pow2 {
		snap.Sum = h.sumTotal()
	} else {
		snap.Sum += h.sumTotal() // exact overflow value sum
	}
	return snap
}

// Prometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4).  Output is deterministic for a given
// snapshot: fixed ordering, no timestamps.
func (s Snapshot) Prometheus() []byte {
	var buf bytes.Buffer
	for _, c := range s.Counters {
		header(&buf, c.Name, c.Help, "counter")
		fmt.Fprintf(&buf, "%s %d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		header(&buf, g.Name, g.Help, "gauge")
		fmt.Fprintf(&buf, "%s %s\n", g.Name, strconv.FormatFloat(g.Value, 'g', -1, 64))
	}
	for _, h := range s.Histograms {
		header(&buf, h.Name, h.Help, "histogram")
		cum := uint64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			fmt.Fprintf(&buf, "%s_bucket{le=\"%d\"} %d\n", h.Name, b.Le, cum)
		}
		fmt.Fprintf(&buf, "%s_bucket{le=\"+Inf\"} %d\n", h.Name, h.Count)
		fmt.Fprintf(&buf, "%s_sum %d\n", h.Name, h.Sum)
		fmt.Fprintf(&buf, "%s_count %d\n", h.Name, h.Count)
	}
	return buf.Bytes()
}

func header(buf *bytes.Buffer, name, help, kind string) {
	if help != "" {
		fmt.Fprintf(buf, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(buf, "# TYPE %s %s\n", name, kind)
}

// PrometheusText snapshots the registry and renders it in Prometheus
// text format.
func (r *Registry) PrometheusText() []byte { return r.Snapshot().Prometheus() }

// JSON snapshots the registry and renders it as indented JSON.
func (r *Registry) JSON() ([]byte, error) {
	blob, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

func init() {
	// Publish the default registry on expvar, so any binary that
	// serves /debug/vars (scg serve, or a user program importing
	// net/http with the expvar handler) exposes it with no further
	// wiring.
	expvar.Publish("scg_metrics", expvar.Func(func() any { return Default.Snapshot() }))
}

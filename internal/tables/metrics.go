package tables

// Telemetry for table-mode routing, registered on obs.Default,
// mirroring internal/core's pattern: hot-path counters are striped
// atomics paid once per route (not per hop), build costs land in a
// power-of-two histogram, and residency is a callback gauge over a
// roster of live tables so the registry never holds a table alive nor
// the hot path a registry lock.

import (
	"expvar"
	"sync"

	"supercayley/internal/obs"
)

var (
	mTableRoutes = obs.Default.Counter("scg_table_routes_total",
		"routes served end-to-end by precomputed tables")
	mTableSteps = obs.Default.Counter("scg_table_steps_total",
		"generator steps emitted by table-mode walks")
	mRanksBuilt = obs.Default.Counter("scg_table_ranks_built_total",
		"quotient ranks materialized by table builds")
	hBuildNs = obs.Default.Pow2Hist("scg_table_build_ns",
		"wall time of table builds, ns")
)

// liveTables is the census roster behind the callback gauges; every
// Build registers its table.
var liveTables struct {
	mu   sync.Mutex
	list []*Table
}

func registerTable(t *Table) {
	liveTables.mu.Lock()
	liveTables.list = append(liveTables.list, t)
	liveTables.mu.Unlock()
}

// AggregateStats sums the census over every live table.
func AggregateStats() Stats {
	liveTables.mu.Lock()
	tabs := append([]*Table(nil), liveTables.list...)
	liveTables.mu.Unlock()
	agg := Stats{Name: "aggregate"}
	for _, t := range tabs {
		s := t.Stats()
		agg.Bytes += s.Bytes
		agg.BuildNS += s.BuildNS
	}
	return agg
}

func init() {
	obs.Default.GaugeFunc("scg_table_resident_bytes",
		"resident table bytes across all live tables", func() float64 { return float64(AggregateStats().Bytes) })
	obs.Default.GaugeFunc("scg_table_live",
		"tables built in this process", func() float64 {
			liveTables.mu.Lock()
			n := len(liveTables.list)
			liveTables.mu.Unlock()
			return float64(n)
		})
	expvar.Publish("scg_tables", expvar.Func(func() any { return AggregateStats() }))
}

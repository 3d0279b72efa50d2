package comm

// Telemetry-overhead measurement behind `scg bench-obs` and the
// BENCH_obs.json snapshot: the warm zipfian routing workload from
// BenchRoutes (the engine_warm protocol) is timed with the obs
// registry disabled and enabled in alternating rounds.  The best
// round per side — the one least disturbed by the scheduler — yields
// the overhead percentage that the always-on-telemetry budget in
// DESIGN.md §11 caps at 2%.

import (
	"runtime"
	"time"

	"supercayley/internal/benchenv"
	"supercayley/internal/core"
	"supercayley/internal/obs"
	"supercayley/internal/sim"
)

// stBench is the journey stage the recorder bracket marks: each timed
// batch is one synthetic journey whose single span covers the
// RouteManyInto call, exercising Begin/Mark/Finish at batch cadence.
var stBench = obs.NewStage("bench_route_window")

// benchObsBatch is the pairs per synthetic journey in the recorder
// bracket — the serve pipeline's default flush size.
const benchObsBatch = 512

// ObsBenchConfig parameterizes BenchObs.  The zero value is filled
// with the defaults noted per field.
type ObsBenchConfig struct {
	// Network to measure; default MS(7,1) (k = 8, N = 40320).
	Network *core.Network
	// Pairs per timed pass; default 200000.
	Pairs int
	// Rounds of alternating disabled/enabled passes; default 5.
	Rounds int
	// Seed drives the workload sample; default 1.
	Seed int64
	// Skew is the zipf exponent (> 1); default 1.2.
	Skew float64
}

func (cfg *ObsBenchConfig) fill() error {
	if cfg.Network == nil {
		nw, err := core.New(core.MS, 7, 1)
		if err != nil {
			return err
		}
		cfg.Network = nw
	}
	if cfg.Pairs <= 0 {
		cfg.Pairs = 200000
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 5
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Skew <= 1 {
		cfg.Skew = 1.2
	}
	return nil
}

// ObsBenchRound is one timed pass in BENCH_obs.json.
type ObsBenchRound struct {
	Mode        string  `json:"mode"` // "disabled" or "enabled"
	Round       int     `json:"round"`
	Seconds     float64 `json:"seconds"`
	PairsPerSec float64 `json:"pairs_per_sec"`
}

// ObsBenchReport is the BENCH_obs.json document.
type ObsBenchReport struct {
	Generated string `json:"generated"`
	benchenv.Provenance
	Note                string          `json:"note"`
	Net                 string          `json:"net"`
	K                   int             `json:"k"`
	Nodes               int             `json:"nodes"`
	Workload            string          `json:"workload"`
	Pairs               int             `json:"pairs"`
	Rounds              int             `json:"rounds"`
	DisabledPairsPerSec float64         `json:"disabled_pairs_per_sec"`
	EnabledPairsPerSec  float64         `json:"enabled_pairs_per_sec"`
	OverheadPct         float64         `json:"overhead_pct"`
	Entries             []ObsBenchRound `json:"entries"`

	// Flight-recorder bracket: the same warm workload routed in
	// batch-sized journeys (one Begin/Mark/Finish per benchObsBatch
	// pairs) with the recorder off vs on.
	RecorderOffPairsPerSec float64 `json:"recorder_off_pairs_per_sec"`
	RecorderOnPairsPerSec  float64 `json:"recorder_on_pairs_per_sec"`
	RecorderOverheadPct    float64 `json:"recorder_overhead_pct"`
}

// BenchObs measures the cost of the always-on telemetry on the warm
// routing hot path.  One untimed pass warms the route cache, then
// Rounds alternating pairs of passes run the identical workload with
// obs.SetEnabled(false) and obs.SetEnabled(true); the best pass per
// side gives OverheadPct = (1 - enabled/disabled) * 100.  The
// registry's prior enabled state is restored before returning.
func BenchObs(cfg ObsBenchConfig) (*ObsBenchReport, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	nt, err := SCGNet(cfg.Network)
	if err != nil {
		return nil, err
	}
	engine := NewSCGEngine(cfg.Network)
	wl := sim.ZipfWorkload(nt.N(), cfg.Pairs, cfg.Seed, cfg.Skew)

	wasEnabled := obs.Enabled()
	defer obs.SetEnabled(wasEnabled)

	// Untimed warm-up: after this pass the cache serves every pair, so
	// the timed passes time warm routing only.
	if _, err := sim.Throughput(nt, engine.AppendRoute, wl); err != nil {
		return nil, err
	}

	rep := &ObsBenchReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Provenance: benchenv.Capture(1),
		Note: "warm-cache pair routing timed with telemetry disabled vs enabled in alternating " +
			"rounds; best round per side; overhead_pct = (1 - enabled/disabled) * 100, budget < 2%",
		Net:      cfg.Network.Name(),
		K:        cfg.Network.K(),
		Nodes:    nt.N(),
		Workload: wl.Name,
		Pairs:    cfg.Pairs,
		Rounds:   cfg.Rounds,
	}
	modes := []struct {
		name string
		on   bool
	}{{"disabled", false}, {"enabled", true}}
	best := map[string]float64{}
	for round := 0; round < cfg.Rounds; round++ {
		for _, mode := range modes {
			// Collect between passes so garbage from the previous pass's
			// buffers cannot dump a GC into the middle of this one.
			runtime.GC()
			obs.SetEnabled(mode.on)
			res, err := sim.Throughput(nt, engine.AppendRoute, wl)
			obs.SetEnabled(true)
			if err != nil {
				return nil, err
			}
			rep.Entries = append(rep.Entries, ObsBenchRound{
				Mode: mode.name, Round: round, Seconds: res.Seconds, PairsPerSec: res.PairsPerSec,
			})
			if res.PairsPerSec > best[mode.name] {
				best[mode.name] = res.PairsPerSec
			}
		}
	}
	rep.DisabledPairsPerSec = best["disabled"]
	rep.EnabledPairsPerSec = best["enabled"]
	if rep.DisabledPairsPerSec > 0 {
		rep.OverheadPct = (1 - rep.EnabledPairsPerSec/rep.DisabledPairsPerSec) * 100
	}

	// Flight-recorder bracket: route the same warm workload by rank in
	// batch-sized synthetic journeys — both sides run the identical
	// Begin/Mark/Finish sequence, the off side with the recorder
	// disabled, so the delta is exactly what turning the recorder on
	// costs the serving pipeline.
	srcs64 := make([]int64, wl.Pairs())
	dsts64 := make([]int64, wl.Pairs())
	for i := range srcs64 {
		srcs64[i] = int64(wl.Srcs[i])
		dsts64[i] = int64(wl.Dsts[i])
	}
	cr := engine.CachedRouter()
	out := &core.BulkRoutes{}
	routeBatched := func() (ObsBenchRound, error) {
		t0 := time.Now()
		for off := 0; off < len(srcs64); off += benchObsBatch {
			hi := off + benchObsBatch
			if hi > len(srcs64) {
				hi = len(srcs64)
			}
			var jny obs.Journey
			obs.Flight.Begin(&jny, obs.JourneyOther)
			if err := cr.RouteManyInto(out, srcs64[off:hi], dsts64[off:hi]); err != nil {
				return ObsBenchRound{}, err
			}
			jny.Mark(stBench)
			jny.SetPairs(hi - off)
			obs.Flight.Finish(&jny)
		}
		sec := time.Since(t0).Seconds()
		return ObsBenchRound{Seconds: sec, PairsPerSec: float64(len(srcs64)) / sec}, nil
	}
	// One untimed pass fills the rank-addressed cache entries the perm
	// warm-up did not touch.
	if _, err := routeBatched(); err != nil {
		return nil, err
	}
	recModes := []struct {
		name string
		on   bool
	}{{"recorder_off", false}, {"recorder_on", true}}
	defer obs.Flight.SetEnabled(true)
	for round := 0; round < cfg.Rounds; round++ {
		for _, mode := range recModes {
			runtime.GC()
			obs.Flight.SetEnabled(mode.on)
			entry, err := routeBatched()
			obs.Flight.SetEnabled(true)
			if err != nil {
				return nil, err
			}
			entry.Mode, entry.Round = mode.name, round
			rep.Entries = append(rep.Entries, entry)
			if entry.PairsPerSec > best[mode.name] {
				best[mode.name] = entry.PairsPerSec
			}
		}
	}
	rep.RecorderOffPairsPerSec = best["recorder_off"]
	rep.RecorderOnPairsPerSec = best["recorder_on"]
	if rep.RecorderOffPairsPerSec > 0 {
		rep.RecorderOverheadPct = (1 - rep.RecorderOnPairsPerSec/rep.RecorderOffPairsPerSec) * 100
	}
	return rep, nil
}

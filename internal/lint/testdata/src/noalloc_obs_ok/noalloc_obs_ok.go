// Package noalloc_obs_ok shows that the obs increment path is legal
// inside //scg:noalloc kernels: the hot-half functions (AddAt, IncAt,
// Observe, Begin, Mark) are themselves annotated, and the
// standard-library atomics they ride on are in the noalloc roster.
// The lint self-test asserts zero findings.
package noalloc_obs_ok

import (
	"sync/atomic"

	"supercayley/internal/obs"
)

var (
	hits  = obs.Default.Counter("fixture_obs_ok_hits_total", "fixture counter")
	hops  = obs.Default.HopHist("fixture_obs_ok_hops", "fixture histogram", 8)
	stage = obs.NewStage("fixture_obs_ok_stage")
	raw   uint64
)

//scg:noalloc
func kernel(dst []int, slot int) []int {
	hits.IncAt(slot)
	hops.Observe(slot, uint64(len(dst)))
	atomic.AddUint64(&raw, 1) // rostered stdlib atomics may be called directly
	return dst
}

//scg:noalloc
func journey(j *obs.Journey) {
	obs.Flight.Begin(j, obs.JourneyOther) // the journey verbs are hot-half too
	j.Mark(stage)
}

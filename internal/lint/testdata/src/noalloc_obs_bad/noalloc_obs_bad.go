// Package noalloc_obs_bad breaks the obs carve-out three ways: the
// cold half of the flight recorder, metric registration, and a stdlib
// atomic that is not in the roster all stay banned inside noalloc
// kernels.
package noalloc_obs_bad

import (
	"sync/atomic"

	"supercayley/internal/obs"
)

var state uint64

//scg:noalloc
func snapshotOnHotPath(r *obs.FlightRecorder) int {
	return len(r.Snapshot()) // want noalloc
}

//scg:noalloc
func registerOnHotPath() *obs.Counter {
	return obs.Default.Counter("fixture_obs_bad_total", "h") // want noalloc // want obs-discipline
}

//scg:noalloc
func unrosteredAtomic() {
	atomic.CompareAndSwapUint64(&state, 0, 1) // want noalloc
}

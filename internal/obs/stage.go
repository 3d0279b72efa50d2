package obs

// Pipeline stages: the named phases a request passes through
// (decode, admission, queue wait, batch wait, route, resume, encode).
// A Stage is a dense uint8 id handed out once per name at package
// init; the flight recorder's Journey.Mark records a span against it,
// and Finish observes each span on the stage's histogram, so every
// observation belongs to a finished journey and the stages of one
// request tile its wall time.
//
// Every stage owns a scg_stage_<name>_ns power-of-two histogram in the
// default registry (and is tracked by the default WindowRing), so the
// per-stage latency distribution rides the ordinary /metrics surface
// with no extra plumbing.  Stage names obey the same register-once
// snake_case discipline as metric names; scglint's obs-discipline
// analyzer enforces that at every NewStage call site.

import (
	"fmt"
	"sync"
)

// MaxStages bounds the stage roster; NewStage panics past it.  Stage 0
// is reserved as "no stage" so the zero value is inert.
const MaxStages = 32

// Stage identifies one registered pipeline stage.  The zero value is
// valid and means "none": Observe on it is a no-op.
type Stage uint8

// StageHistPrefix/StageHistSuffix frame the per-stage histogram names:
// stage "queue_wait" observes into scg_stage_queue_wait_ns.
const (
	StageHistPrefix = "scg_stage_"
	StageHistSuffix = "_ns"
)

var stageReg struct {
	mu     sync.Mutex
	byName map[string]Stage
	n      int
}

// stageNames and stageHists are indexed by Stage (1-based); they are
// written only under stageReg.mu during registration, which the lint
// discipline confines to package initialization — before any hot-path
// reader runs.
var (
	stageNames [MaxStages + 1]string
	stageHists [MaxStages + 1]*Histogram
)

// NewStage registers (or returns) the stage with the given snake_case
// name, creating its scg_stage_<name>_ns histogram in the default
// registry and tracking it in the default window ring.  Registration
// is idempotent by name and must happen at startup (package var, init,
// or a New* constructor) — scglint's obs-discipline analyzer holds
// call sites to the same rules as metric registration.
func NewStage(name string) Stage {
	stageReg.mu.Lock()
	defer stageReg.mu.Unlock()
	if stageReg.byName == nil {
		stageReg.byName = make(map[string]Stage)
	}
	if s, ok := stageReg.byName[name]; ok {
		return s
	}
	if !validStageName(name) {
		panic(fmt.Sprintf("obs: invalid stage name %q (want lowercase snake_case)", name))
	}
	if stageReg.n >= MaxStages {
		panic(fmt.Sprintf("obs: stage roster full (MaxStages=%d) registering %q", MaxStages, name))
	}
	stageReg.n++
	s := Stage(stageReg.n)
	stageReg.byName[name] = s
	stageNames[s] = name
	hist := StageHistPrefix + name + StageHistSuffix
	stageHists[s] = Default.Pow2Hist(hist, "latency of pipeline stage "+name+" (ns)") //scg:ignore obs-discipline -- name is derived from the NewStage argument, which the analyzer checks for constness at every call site
	Windows.Track(hist)
	return s
}

// validStageName is stricter than metric names: lowercase snake_case
// only, so the derived histogram name is itself valid.
func validStageName(name string) bool {
	if name == "" || name[0] < 'a' || name[0] > 'z' {
		return false
	}
	for i := 1; i < len(name); i++ {
		c := name[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}

// Name returns the registered stage name ("" for the zero Stage).
func (s Stage) Name() string {
	if int(s) > len(stageNames)-1 {
		return ""
	}
	return stageNames[s]
}

// Observe records a duration in nanoseconds against the stage's
// histogram on the stripe selected by slot.  The zero Stage observes
// nothing.
//
//scg:noalloc
func (s Stage) Observe(slot int, ns uint64) {
	if s == 0 {
		return
	}
	if h := stageHists[s]; h != nil {
		h.Observe(slot, ns)
	}
}

// Command perfbench is the repository's served-routing benchmark.  It
// drives the real `scg serve` binary over loopback HTTP (binary bulk
// lane, at most nproc connections) with seeded traffic, verifies every
// route it gets back, and prints one JSON result line.  With -trace 1
// it instead times each layer's public functions in-process on the
// same pairs and runs a traced copy of the serving stack.  README.md
// describes the workloads and metrics; run.sh builds and runs it:
//
//	bash perfbench/run.sh --workload bulk_zipf_k8 --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one value of the result line, with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRuns is how many times a run execs `scg serve` to time set-up;
// setup_s is their median.
const setupRuns = 21

func main() {
	workloadName := flag.String("workload", "", "workload name (see README.md)")
	seed := flag.Int64("seed", 1, "seed of the generated pairs and arrival times")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics against scg serve; 1: per-layer metrics and the traced run")
	scg := flag.String("scg", "", "path of the scg binary built from the commit under test")
	out := flag.String("out", ".bench_build", "directory for span files")
	flag.Parse()
	res, err := run(*workloadName, *seed, *seconds, *trace, *scg, *out, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(blob))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, scg, out string, log io.Writer) (*result, error) {
	w, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	if seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1, got %d", seconds)
	}
	nw, err := w.network()
	if err != nil {
		return nil, err
	}
	p := newPool(w, int(nw.N()), seed)
	v, err := newVerifier(nw, len(p.srcs))
	if err != nil {
		return nil, err
	}
	prov := provenance{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
		Network: nw.Name(), Nodes: nw.N(), Pairs: w.dist(), RequestPairs: w.reqPairs, RatePerSec: w.rate,
		NumCPU: runtime.NumCPU(), LoadgenGOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Source: sourceDigest(), Timer250usP50us: timerFloor() * 1e6,
	}
	switch trace {
	case 0:
		if scg == "" {
			return nil, errors.New("-scg (the scg binary) is required with -trace 0")
		}
		return runEndToEnd(w, p, v, seed, seconds, scg, &prov, log)
	case 1:
		return runLayers(w, nw, p, v, seed, seconds, out, &prov, log)
	}
	return nil, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
}

// provenance is printed with every result.
type provenance struct {
	Workload          string  `json:"workload"`
	Seed              int64   `json:"seed"`
	Seconds           int     `json:"seconds"`
	Trace             int     `json:"trace"`
	Network           string  `json:"network"`
	Nodes             int64   `json:"nodes"`
	Pairs             string  `json:"pairs"`
	RequestPairs      int     `json:"request_pairs"`
	RatePerSec        float64 `json:"open_loop_rate_per_s"`
	NumCPU            int     `json:"nproc"`
	ServerGOMAXPROCS  int     `json:"server_gomaxprocs,omitempty"`
	LoadgenGOMAXPROCS int     `json:"loadgen_gomaxprocs"`
	GoVersion         string  `json:"go_version"`
	// Source identifies the commit under test by content: the SHA-256
	// of every Go source and go.mod under the module root (the
	// benchmark may run outside a git checkout).
	Source string `json:"source_sha256"`
	// Timer250usP50us is the measured median firing delay of a 250 µs
	// timer; it floors the latency of anything that waits on a short
	// timer, such as the batcher's MaxWait flush.
	Timer250usP50us float64 `json:"env.timer_250us_p50_us"`
}

func (pv *provenance) print(log io.Writer) {
	blob, _ := json.Marshal(pv)
	fmt.Fprintf(log, "provenance: %s\n", blob)
}

// timerSamples is how many 250 µs timers timerFloor fires.
const timerSamples = 200

// timerFloor returns the median delay, in seconds, of timerSamples
// 250-µs timers fired back to back.
func timerFloor() float64 {
	d := make([]float64, timerSamples)
	for i := range d {
		t0 := time.Now()
		<-time.After(250 * time.Microsecond)
		d[i] = time.Since(t0).Seconds()
	}
	return median(d)
}

// sourceDigest hashes the module's Go sources and go.mod files, in
// path order, skipping hidden directories such as .bench_build.
func sourceDigest() string {
	root := "." // run.sh runs the benchmark from the module root
	if _, err := os.Stat("perfbench"); err != nil {
		root = ".." // go test runs it from its own directory
	}
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	h := sha256.New()
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(blob))
		h.Write(blob)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"supercayley/internal/core"
	"supercayley/internal/obs"
	"supercayley/internal/tables"
)

// TestStagesTileRequests reconciles the scg_stage_* histograms with
// the flight recorder: every stage observation belongs to a finished
// journey, so over a fixed request mix the histogram sums grow by
// exactly the summed wall time of the journeys that finished, and a
// request rejected after its first marks adds nothing.  The mix runs
// through the fast-lane table router, with a 1024-pair binary bulk
// request, so any per-pair timer nested inside route_many would show
// as surplus.  Not parallel: it reads deltas of the process-wide
// registry and recorder.
func TestStagesTileRequests(t *testing.T) {
	nw := core.MustNew(core.MS, 2, 2)
	router := core.NewTableRouter(nw)
	tb, err := tables.Build(nw, tables.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.UseTable(tb); err != nil {
		t.Fatal(err)
	}

	n := int64(nw.N())
	var srcs, dsts []int64
	for i := int64(0); i < 1024; i++ {
		srcs = append(srcs, i*37%n)
		dsts = append(dsts, (i*91+7)%n)
	}
	bin, _ := bulkBodies(t, srcs, dsts)
	_, js := bulkBodies(t, srcs[:2], dsts[:2])
	// The burst covers the served mix exactly (1 + 2 + 1024 pairs) and
	// refills at an hour-scale rate, so one more bulk request is
	// rejected at admission, after its decode mark.
	svc := NewService(router, ServiceConfig{Limit: LimitConfig{Rate: 0.001, Burst: 1 + 2 + 1024}})
	mux := http.NewServeMux()
	svc.RegisterOn(mux)
	srv := httptest.NewServer(mux)
	defer svc.Drain()

	obs.Flight.SetSampling(1) // retain every journey
	defer obs.Flight.SetSampling(64)
	seen := map[uint64]bool{}
	for _, ev := range obs.Flight.Snapshot() {
		seen[ev.ID] = true
	}
	before := obs.Default.Snapshot()

	post := func(path, ctype string, body []byte, want int) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ctype)
		req.Header.Set("X-SCG-Client", "tiling")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST %s (%s): status %d, want %d", path, ctype, resp.StatusCode, want)
		}
	}
	post("/route", "application/json", []byte(`{"src": 5, "dst": 99}`), http.StatusOK)
	post("/route/bulk", "application/json", js, http.StatusOK)
	post("/route/bulk", BulkContentType, bin, http.StatusOK)
	post("/route/bulk", "application/json", js, http.StatusTooManyRequests)
	// Close waits for every handler to return, so each served journey
	// has finished before the registry is read.
	srv.Close()
	after := obs.Default.Snapshot()

	prev := map[string]obs.HistSnap{}
	for _, h := range before.Histograms {
		prev[h.Name] = h
	}
	var stageNs uint64
	var perStage strings.Builder
	for _, h := range after.Histograms {
		if !strings.HasPrefix(h.Name, obs.StageHistPrefix) || !strings.HasSuffix(h.Name, obs.StageHistSuffix) {
			continue
		}
		d := h.Sub(prev[h.Name])
		if d.Count == 0 {
			continue
		}
		stageNs += d.Sum
		fmt.Fprintf(&perStage, "\n  %s: %d obs, %dns", h.Name, d.Count, d.Sum)
	}

	var journeyNs uint64
	var finished int
	for _, ev := range obs.Flight.Snapshot() {
		if seen[ev.ID] {
			continue
		}
		finished++
		journeyNs += uint64(ev.TotalNs)
		if ev.Truncated {
			t.Errorf("journey %d is truncated", ev.ID)
		}
	}

	served := counterValue(t, after, "scg_serve_route_requests_total") - counterValue(t, before, "scg_serve_route_requests_total") +
		counterValue(t, after, "scg_serve_bulk_requests_total") - counterValue(t, before, "scg_serve_bulk_requests_total")
	finishedTotal := counterValue(t, after, "scg_flight_journeys_total") - counterValue(t, before, "scg_flight_journeys_total")
	if served != 3 {
		t.Fatalf("%d requests served, want 3", served)
	}
	if uint64(finished) != served || finishedTotal != served {
		t.Errorf("%d journeys finished (%d retained), want one per served request (%d)", finishedTotal, finished, served)
	}
	if stageNs != journeyNs {
		t.Errorf("stage histograms grew by %dns, finished journeys took %dns: stages do not tile requests%s",
			stageNs, journeyNs, perStage.String())
	}
}

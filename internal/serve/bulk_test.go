package serve

// The two bulk decoders parse foreign bytes off the network, so they
// are bounded by MaxBulk before they grow anything pooled, and fuzzed:
// whatever the body, a decoder either fills the job with a canonical
// request or leaves it empty, and an accepted binary frame routes
// through the pipeline to a writeBulkBinary response that carries
// exactly the reference routes.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"supercayley/internal/core"
)

// bulkBodies returns the binary frame and the JSON body of pairs.
func bulkBodies(t testing.TB, srcs, dsts []int64) (bin, js []byte) {
	js, err := json.Marshal(bulkRequest{Srcs: srcs, Dsts: dsts})
	if err != nil {
		t.Fatal(err)
	}
	return encodeBulkReq(srcs, dsts), js
}

// TestBulkOversizedBodyBounded posts MaxBulk+1 pairs at the default
// config through both lanes: each gets 400, and afterwards no pooled
// read buffer or job holds more than one MaxBulk frame, because the
// decoders reject the count before reading or adding the pairs.
func TestBulkOversizedBodyBounded(t *testing.T) {
	nw := core.MustNew(core.MS, 2, 2)
	svc := NewService(core.NewCachedRouter(nw, core.CacheConfig{}), ServiceConfig{})
	defer svc.Drain()
	maxBulk := svc.Batcher().Config().MaxBulk
	srcs, dsts := make([]int64, maxBulk+1), make([]int64, maxBulk+1)
	for i := range srcs {
		srcs[i], dsts[i] = int64(i%120), int64((i*7)%120)
	}
	bin, js := bulkBodies(t, srcs, dsts)
	frame := bulkHeaderLen + 16*maxBulk
	for _, lane := range []struct {
		ctype string
		body  []byte
	}{{BulkContentType, bin}, {"application/json", js}} {
		req := httptest.NewRequest(http.MethodPost, "/route/bulk", bytes.NewReader(lane.body))
		req.Header.Set("Content-Type", lane.ctype)
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		svc.handleBulk(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s lane: %d pairs > MaxBulk %d got status %d, want 400", lane.ctype, maxBulk+1, maxBulk, rec.Code)
		}
		// sync.Pool keeps items per P, so the pool checks below can miss
		// a buffer; the allocation total cannot.  (The JSON lane decodes
		// into unpooled slices before it counts, so only the binary lane
		// is bounded this way.)
		if grew := after.TotalAlloc - before.TotalAlloc; lane.ctype == BulkContentType && grew > uint64(frame) {
			t.Fatalf("rejecting the oversized frame allocated %d bytes, one MaxBulk frame is %d", grew, frame)
		}
	}
	for i := 0; i < 8; i++ {
		if bufp := svc.bufs.Get().(*[]byte); cap(*bufp) > frame {
			t.Fatalf("pooled read buffer holds %d bytes, one MaxBulk frame is %d", cap(*bufp), frame)
		}
		if j := svc.b.NewJob(); cap(j.srcs) > maxBulk || cap(j.dsts) > maxBulk {
			t.Fatalf("pooled job holds %d/%d pairs, MaxBulk is %d", cap(j.srcs), cap(j.dsts), maxBulk)
		}
	}
}

// fuzzMaxBulk caps the fuzzed service small, so the cap is reachable.
const fuzzMaxBulk = 64

// newFuzzService serves MS(2,2) (N = 120) with a flush per job, so a
// Submit in a fuzz iteration never waits for the MaxWait timer.
func newFuzzService(f *testing.F) (*Service, *core.CachedRouter) {
	nw := core.MustNew(core.MS, 2, 2)
	svc := NewService(core.NewCachedRouter(nw, core.CacheConfig{}), ServiceConfig{
		Batch: Config{MaxBatch: 1, MaxWait: time.Millisecond, MaxBulk: fuzzMaxBulk},
	})
	f.Cleanup(svc.Drain)
	return svc, core.NewCachedRouter(nw, core.CacheConfig{})
}

// addBulkSeeds seeds f with valid request bodies (binary frames or
// JSON), one of them over the cap, and binary frames with a trailing
// byte.
func addBulkSeeds(f *testing.F, jsonLane bool) {
	for _, pairs := range [][2][]int64{
		{{5}, {99}},
		{{0, 119, 7}, {119, 0, 3}},
		{make([]int64, fuzzMaxBulk), make([]int64, fuzzMaxBulk)},
		{make([]int64, fuzzMaxBulk+1), make([]int64, fuzzMaxBulk+1)},
	} {
		bin, js := bulkBodies(f, pairs[0], pairs[1])
		if jsonLane {
			f.Add(js)
		} else {
			f.Add(bin)
			f.Add(append(bin, 0))
		}
	}
}

// FuzzDecodeBulkBinary: an accepted frame is canonical (re-encoding
// the decoded pairs gives back the body) and within MaxBulk; a
// rejected one leaves the job empty; and an accepted frame of in-range
// ranks routes to a writeBulkBinary response whose routes equal the
// reference router's.
func FuzzDecodeBulkBinary(f *testing.F) {
	svc, ref := newFuzzService(f)
	addBulkSeeds(f, false)
	f.Fuzz(func(t *testing.T, body []byte) {
		j := svc.b.NewJob()
		defer svc.b.Release(j)
		if err := svc.decodeBulkBinary(bytes.NewReader(body), j); err != nil {
			if j.Pairs() != 0 {
				t.Fatalf("rejected frame (%v) left %d pairs in the job", err, j.Pairs())
			}
			return
		}
		if j.Pairs() == 0 || j.Pairs() > fuzzMaxBulk {
			t.Fatalf("accepted a frame of %d pairs (MaxBulk %d)", j.Pairs(), fuzzMaxBulk)
		}
		if again := encodeBulkReq(j.srcs, j.dsts); !bytes.Equal(again, body) {
			t.Fatalf("decoded pairs re-encode to %x, body was %x", again, body)
		}
		srcs := append([]int64(nil), j.srcs...)
		dsts := append([]int64(nil), j.dsts...)
		if err := svc.b.Submit(j); err != nil {
			if !errors.Is(err, ErrRankRange) {
				t.Fatalf("Submit: %v", err)
			}
			return
		}
		rec := httptest.NewRecorder()
		svc.writeBulkBinary(rec, j)
		routes := decodeBulkResp(t, rec.Body.Bytes())
		if len(routes) != len(srcs) {
			t.Fatalf("response carries %d routes for %d pairs", len(routes), len(srcs))
		}
		for i := range routes {
			if want := refRoute(t, ref, srcs[i], dsts[i]); !portsEqual(routes[i], want) {
				t.Fatalf("pair %d (%d→%d): response %v, reference %v", i, srcs[i], dsts[i], routes[i], want)
			}
		}
	})
}

// FuzzDecodeBulkJSON: an accepted body carries between 1 and MaxBulk
// pairs, and the same pairs encoded as a binary frame decode to the
// same job, so the two lanes agree; a rejected body leaves the job
// empty.
func FuzzDecodeBulkJSON(f *testing.F) {
	svc, _ := newFuzzService(f)
	addBulkSeeds(f, true)
	f.Fuzz(func(t *testing.T, body []byte) {
		j := svc.b.NewJob()
		defer svc.b.Release(j)
		if err := decodeBulkJSON(bytes.NewReader(body), j, fuzzMaxBulk); err != nil {
			if j.Pairs() != 0 {
				t.Fatalf("rejected body (%v) left %d pairs in the job", err, j.Pairs())
			}
			return
		}
		if j.Pairs() == 0 || j.Pairs() > fuzzMaxBulk {
			t.Fatalf("accepted a body of %d pairs (MaxBulk %d)", j.Pairs(), fuzzMaxBulk)
		}
		bin := svc.b.NewJob()
		defer svc.b.Release(bin)
		if err := svc.decodeBulkBinary(bytes.NewReader(encodeBulkReq(j.srcs, j.dsts)), bin); err != nil {
			t.Fatalf("binary lane rejects the JSON lane's pairs: %v", err)
		}
		for i := range j.srcs {
			if bin.srcs[i] != j.srcs[i] || bin.dsts[i] != j.dsts[i] {
				t.Fatalf("pair %d: binary lane decodes (%d, %d), JSON lane (%d, %d)",
					i, bin.srcs[i], bin.dsts[i], j.srcs[i], j.dsts[i])
			}
		}
	})
}

package serve

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/concurrent"
	"repro/internal/kv"
)

// The data routes' answer shapes, as a client decodes them; the append
// encoders must write exactly what encoding/json writes for these.
type findResponse struct {
	Rank    int    `json:"rank"`
	Version uint64 `json:"version"`
}

type rangeResponse struct {
	LoRank  int    `json:"lo_rank"`
	HiRank  int    `json:"hi_rank"`
	Count   int    `json:"count"`
	Version uint64 `json:"version"`
}

type batchResponse struct {
	Ranks   []int  `json:"ranks"`
	Version uint64 `json:"version"`
}

func getJSON[T any](t *testing.T, h http.Handler, url string) (int, T) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out T
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, rec.Body.String(), err)
		}
	}
	return rec.Code, out
}

// coalescerIf is the co argument of NewHandler: a coalescer over ix,
// closed when t ends, when coalesce is set, and nil otherwise.
func coalescerIf[K kv.Key](t testing.TB, ix *concurrent.Index[K], coalesce bool) *Coalescer[K] {
	if !coalesce {
		return nil
	}
	co := NewCoalescer(ix, CoalescerConfig{})
	t.Cleanup(co.Close)
	return co
}

func TestHandlerFind(t *testing.T) {
	ix := newPrimary(t, 20_000)
	for _, mode := range []bool{false, true} {
		h := NewHandler(ix, coalescerIf(t, ix, mode), HandlerConfig{Coalesce: mode}, nil)
		for _, key := range []uint64{0, 1, 77, 139_993, 1 << 40} {
			code, res := getJSON[findResponse](t, h, fmt.Sprintf("/v1/find?key=%d", key))
			if code != http.StatusOK {
				t.Fatalf("coalesce=%v find(%d): status %d", mode, key, code)
			}
			if want := ix.Find(key); res.Rank != want {
				t.Errorf("coalesce=%v find(%d) = %d, want %d", mode, key, res.Rank, want)
			}
			if res.Version != ix.Tag() {
				t.Errorf("coalesce=%v find(%d): version %d, want %d", mode, key, res.Version, ix.Tag())
			}
		}
		if h.Served() == 0 {
			t.Errorf("coalesce=%v: served counter stuck at 0", mode)
		}
		for _, bad := range []string{"/v1/find", "/v1/find?key=", "/v1/find?key=xyz", "/v1/find?key=-1"} {
			if code, _ := getJSON[findResponse](t, h, bad); code != http.StatusBadRequest {
				t.Errorf("coalesce=%v GET %s: status %d, want 400", mode, bad, code)
			}
		}
	}
}

func TestHandlerRange(t *testing.T) {
	ix := newPrimary(t, 20_000) // keys i*7+1
	h := NewHandler(ix, nil, HandlerConfig{}, nil)

	code, res := getJSON[rangeResponse](t, h, "/v1/range?lo=1&hi=71")
	if code != http.StatusOK {
		t.Fatalf("range: status %d", code)
	}
	wantLo, wantHi := ix.Find(1), ix.Find(71)
	if res.LoRank != wantLo || res.HiRank != wantHi || res.Count != wantHi-wantLo {
		t.Errorf("range = %+v, want lo %d hi %d", res, wantLo, wantHi)
	}
	if res.Version != ix.Tag() {
		t.Errorf("range: version %d, want %d", res.Version, ix.Tag())
	}
	if code, _ := getJSON[rangeResponse](t, h, "/v1/range?lo=9&hi=3"); code != http.StatusBadRequest {
		t.Errorf("inverted range: status %d, want 400", code)
	}
	if code, _ := getJSON[rangeResponse](t, h, "/v1/range?lo=1"); code != http.StatusBadRequest {
		t.Errorf("missing hi: status %d, want 400", code)
	}
}

func postBatch(t *testing.T, h http.Handler, body string) (int, batchResponse) {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out batchResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("batch: bad JSON %q: %v", rec.Body.String(), err)
		}
	}
	return rec.Code, out
}

func TestHandlerBatch(t *testing.T) {
	ix := newPrimary(t, 20_000)
	h := NewHandler(ix, nil, HandlerConfig{MaxBatch: 3}, nil)

	code, res := postBatch(t, h, `{"keys":["1","500","999999999"]}`)
	if code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	for i, k := range []uint64{1, 500, 999999999} {
		if want := ix.Find(k); res.Ranks[i] != want {
			t.Errorf("batch[%d] = %d, want %d", i, res.Ranks[i], want)
		}
	}
	if res.Version != ix.Tag() {
		t.Errorf("batch: version %d, want %d", res.Version, ix.Tag())
	}
	if code, _ := postBatch(t, h, `{"keys":["1","2","3","4"]}`); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize batch: status %d, want 413", code)
	}
	if code, _ := postBatch(t, h, `{"keys":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", code)
	}
	if code, _ := postBatch(t, h, `{"keys":["nope"]}`); code != http.StatusBadRequest {
		t.Errorf("bad key batch: status %d, want 400", code)
	}
	if code, _ := postBatch(t, h, `{`); code != http.StatusBadRequest {
		t.Errorf("truncated body: status %d, want 400", code)
	}
}

// TestHandlerAdmission exercises the typed refusals: 429 with Retry-After
// when the inflight bound is hit, 503 everywhere once draining.
func TestHandlerAdmission(t *testing.T) {
	ix := newPrimary(t, 10_000)
	h := NewHandler(ix, nil, HandlerConfig{MaxInflight: 1}, nil)

	// White-box: occupy the single inflight slot so the next direct
	// request is refused.
	h.inflight <- struct{}{}
	req := httptest.NewRequest("GET", "/v1/find?key=5", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("saturated: missing Retry-After")
	}
	if h.Rejected() != 1 {
		t.Errorf("rejected = %d, want 1", h.Rejected())
	}
	<-h.inflight
	if code, _ := getJSON[findResponse](t, h, "/v1/find?key=5"); code != http.StatusOK {
		t.Fatalf("after release: status %d", code)
	}

	h.SetDraining(true)
	for _, url := range []string{"/v1/find?key=5", "/v1/range?lo=1&hi=9", "/healthz"} {
		req := httptest.NewRequest("GET", url, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("draining GET %s: status %d, want 503", url, rec.Code)
		}
	}
	h.SetDraining(false)
	if code, _ := getJSON[findResponse](t, h, "/v1/find?key=5"); code != http.StatusOK {
		t.Fatalf("drain cleared: status %d", code)
	}
}

// TestHandlerCoalescedAdmission maps coalescer refusals onto HTTP codes.
func TestHandlerCoalescedAdmission(t *testing.T) {
	ix := newPrimary(t, 10_000)
	co := NewCoalescer(ix, CoalescerConfig{Queue: 1})
	h := NewHandler(ix, co, HandlerConfig{Coalesce: true}, nil)

	co.combine.Lock()                                         // as if a wave were in flight
	co.reqs <- creq[uint64]{key: 1, done: make(chan cres, 1)} // fill the queue
	req := httptest.NewRequest("GET", "/v1/find?key=5", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("full coalescer queue: status %d, want 429", rec.Code)
	}
	co.combine.Unlock()

	co.Close()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("closed coalescer: status %d, want 503", rec.Code)
	}
}

func TestHandlerStatusz(t *testing.T) {
	ix := newPrimary(t, 10_000)
	h := NewHandler(ix, coalescerIf(t, ix, true), HandlerConfig{Coalesce: true}, func() map[string]any {
		return map[string]any{"replica_version": 42}
	})

	if code, _ := getJSON[findResponse](t, h, "/v1/find?key=5"); code != http.StatusOK {
		t.Fatal("warm-up find failed")
	}
	code, st := getJSON[map[string]any](t, h, "/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz: status %d", code)
	}
	for _, k := range []string{"version", "keys", "served", "rejected", "draining", "coalesce", "coalescer", "replica_version", "mmap"} {
		if _, ok := st[k]; !ok {
			t.Errorf("statusz missing %q (got %v)", k, st)
		}
	}
	mm, ok := st["mmap"].(map[string]any)
	if !ok {
		t.Fatalf("statusz mmap block is %T", st["mmap"])
	}
	for _, k := range []string{"supported", "mapped", "mapped_bytes", "minor_faults", "major_faults"} {
		if _, ok := mm[k]; !ok {
			t.Errorf("statusz mmap block missing %q (got %v)", k, mm)
		}
	}
	if mm["mapped"] != false {
		t.Errorf("heap-built primary reports mapped=%v", mm["mapped"])
	}
	if len(mm) != 5 {
		t.Errorf("statusz mmap block has %d keys, want the 5 above (got %v)", len(mm), mm)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ready"`) {
		t.Fatalf("healthz: status %d body %q", rec.Code, rec.Body.String())
	}
}

func TestParseKeyRange(t *testing.T) {
	if _, err := parseKey[uint32]("4294967296"); err == nil {
		t.Error("parseKey[uint32](2^32) accepted, want range error")
	}
	if k, err := parseKey[uint32]("4294967295"); err != nil || k != 1<<32-1 {
		t.Errorf("parseKey[uint32](2^32-1) = %d, %v", k, err)
	}
	if k, err := parseKey[uint64]("18446744073709551615"); err != nil || k != 1<<64-1 {
		t.Errorf("parseKey[uint64](max) = %d, %v", k, err)
	}
}

// TestHandlerHealthzStates walks the probe through its three states —
// starting (readiness gate not yet satisfied), ready, draining — and
// checks each answer is machine-readable JSON with the right status code
// (503 for anything a load balancer must route around).
func TestHandlerHealthzStates(t *testing.T) {
	ix := newPrimary(t, 1_000)
	ready := false
	h := NewHandler(ix, nil, HandlerConfig{Ready: func() bool { return ready }}, nil)

	probe := func() (int, healthzResponse) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		var out healthzResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("healthz body %q: %v", rec.Body.String(), err)
		}
		return rec.Code, out
	}

	if code, res := probe(); code != http.StatusServiceUnavailable || res.Status != "starting" || res.Reason == "" {
		t.Fatalf("before first install: %d %+v", code, res)
	}
	ready = true
	if code, res := probe(); code != http.StatusOK || res.Status != "ready" {
		t.Fatalf("after install: %d %+v", code, res)
	}
	h.SetDraining(true)
	if code, res := probe(); code != http.StatusServiceUnavailable || res.Status != "draining" || res.Reason == "" {
		t.Fatalf("draining: %d %+v", code, res)
	}
	h.SetDraining(false)
	if code, res := probe(); code != http.StatusOK || res.Status != "ready" {
		t.Fatalf("undrained: %d %+v", code, res)
	}
}

// TestHandlerAdminDrain exercises the fleet controller's lever: the
// admin endpoints flip drain mode (refusing data requests with 503),
// are idempotent, and do not exist unless enabled.
func TestHandlerAdminDrain(t *testing.T) {
	ix := newPrimary(t, 1_000)
	h := NewHandler(ix, nil, HandlerConfig{Admin: true}, nil)

	post := func(url string) int {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", url, nil))
		return rec.Code
	}

	if code := post("/admin/drain"); code != http.StatusOK {
		t.Fatalf("drain: status %d", code)
	}
	if code, _ := getJSON[findResponse](t, h, "/v1/find?key=5"); code != http.StatusServiceUnavailable {
		t.Fatalf("find while admin-drained: status %d, want 503", code)
	}
	if code := post("/admin/drain"); code != http.StatusOK {
		t.Fatalf("second drain: status %d", code)
	}
	if code := post("/admin/undrain"); code != http.StatusOK {
		t.Fatalf("undrain: status %d", code)
	}
	if code, _ := getJSON[findResponse](t, h, "/v1/find?key=5"); code != http.StatusOK {
		t.Fatalf("find after undrain: status %d", code)
	}

	// Admin off: the endpoints must not be routable.
	plain := NewHandler(ix, nil, HandlerConfig{}, nil)
	rec := httptest.NewRecorder()
	plain.ServeHTTP(rec, httptest.NewRequest("POST", "/admin/drain", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("admin endpoint routable without Admin: status %d", rec.Code)
	}
}

// wireCase is one request and the exact answer the handler must give:
// status, the whole header map, and the body bytes.
type wireCase struct {
	method, target, reqBody string
	code                    int
	header                  map[string]string
	body                    string
}

var (
	jsonHeader = map[string]string{"Content-Type": "application/json"}
	busyHeader = map[string]string{"Content-Type": "application/json", "Retry-After": "1"}
	textHeader = map[string]string{"Content-Type": "text/plain; charset=utf-8", "X-Content-Type-Options": "nosniff"}
)

func allowHeader(methods string) map[string]string {
	h := maps.Clone(textHeader)
	h["Allow"] = methods
	return h
}

// goldenIndex is newPrimary's 20,000 keys (i*7+1) installed as version 7,
// so every answer's version field is non-zero.
func goldenIndex(t *testing.T) *concurrent.Index[uint64] {
	t.Helper()
	path := filepath.Join(t.TempDir(), "full")
	if err := concurrent.SaveStateFile(path, newPrimary(t, 20_000).Published()); err != nil {
		t.Fatal(err)
	}
	st, err := concurrent.LoadStateFile[uint64](path)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := concurrent.New[uint64](nil, concurrent.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	if err := ix.InstallState(st, 7); err != nil {
		t.Fatal(err)
	}
	return ix
}

func checkWire(t *testing.T, h http.Handler, mode string, cases []wireCase) {
	t.Helper()
	for _, c := range cases {
		req := httptest.NewRequest(c.method, c.target, strings.NewReader(c.reqBody))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		got := map[string]string{}
		for k, v := range rec.Header() {
			got[k] = strings.Join(v, ",")
		}
		if rec.Code != c.code || !maps.Equal(got, c.header) || rec.Body.String() != c.body {
			t.Errorf("%s %s %s %s:\n got %d %v %q\nwant %d %v %q", mode, c.method, c.target, c.reqBody,
				rec.Code, got, rec.Body.String(), c.code, c.header, c.body)
		}
	}
}

// TestHandlerWireGolden pins the handler's wire format byte for byte:
// status, headers and body (trailing newline included) of every answer
// shape, in coalesced and direct mode.
func TestHandlerWireGolden(t *testing.T) {
	ix := goldenIndex(t)
	const (
		batch      = `{"keys":["1","500","999999999"]}`
		badKeyBody = `{"error":"bad key \"xyz\": strconv.ParseUint: parsing \"xyz\": invalid syntax"}` + "\n"
		missing    = `{"error":"missing key"}` + "\n"
		drainBody  = `{"error":"draining"}` + "\n"
	)
	data := []wireCase{
		{"GET", "/v1/find?key=77", "", 200, jsonHeader, `{"rank":11,"version":7}` + "\n"},
		{"GET", "/v1/find?key=0", "", 200, jsonHeader, `{"rank":0,"version":7}` + "\n"},
		{"GET", "/v1/find?key=18446744073709551615", "", 200, jsonHeader, `{"rank":20000,"version":7}` + "\n"},
		{"GET", "/v1/find?key=%37%37", "", 200, jsonHeader, `{"rank":11,"version":7}` + "\n"},
		{"GET", "/v1/find?key=77&key=5", "", 200, jsonHeader, `{"rank":11,"version":7}` + "\n"},
		{"GET", "/v1/find?x=1;key=5&key=77", "", 200, jsonHeader, `{"rank":11,"version":7}` + "\n"},
		{"HEAD", "/v1/find?key=77", "", 200, jsonHeader, `{"rank":11,"version":7}` + "\n"},
		{"GET", "/v1/range?lo=1&hi=71", "", 200, jsonHeader, `{"lo_rank":0,"hi_rank":10,"count":10,"version":7}` + "\n"},
		{"GET", "/v1/range?hi=500&lo=500", "", 200, jsonHeader, `{"lo_rank":72,"hi_rank":72,"count":0,"version":7}` + "\n"},
		{"HEAD", "/v1/range?lo=1&hi=71", "", 200, jsonHeader, `{"lo_rank":0,"hi_rank":10,"count":10,"version":7}` + "\n"},
		{"POST", "/v1/batch", batch, 200, jsonHeader, `{"ranks":[0,72,20000],"version":7}` + "\n"},
		{"POST", "/v1/batch", `{"keys":["77"]}`, 200, jsonHeader, `{"ranks":[11],"version":7}` + "\n"},
		{"GET", "/v1/find", "", 400, jsonHeader, missing},
		{"GET", "/v1/find?key=", "", 400, jsonHeader, missing},
		{"GET", "/v1/find?x=1;key=77", "", 400, jsonHeader, missing},
		{"GET", "/v1/find?key=%zz", "", 400, jsonHeader, missing},
		{"GET", "/v1/find?key=%zz&key=77", "", 200, jsonHeader, `{"rank":11,"version":7}` + "\n"},
		{"GET", "/v1/find?key=xyz", "", 400, jsonHeader, badKeyBody},
		{"GET", "/v1/find?key=-1", "", 400, jsonHeader, `{"error":"bad key \"-1\": strconv.ParseUint: parsing \"-1\": invalid syntax"}` + "\n"},
		{"GET", "/v1/find?key=1+2", "", 400, jsonHeader, `{"error":"bad key \"1 2\": strconv.ParseUint: parsing \"1 2\": invalid syntax"}` + "\n"},
		{"GET", "/v1/find?key=%3C%26%3E", "", 400, jsonHeader, `{"error":"bad key \"\u003c\u0026\u003e\": strconv.ParseUint: parsing \"\u003c\u0026\u003e\": invalid syntax"}` + "\n"},
		{"GET", "/v1/find?key=18446744073709551616", "", 400, jsonHeader, `{"error":"bad key \"18446744073709551616\": strconv.ParseUint: parsing \"18446744073709551616\": value out of range"}` + "\n"},
		{"GET", "/v1/range?lo=9&hi=3", "", 400, jsonHeader, `{"error":"empty range: hi \u003c lo"}` + "\n"},
		{"GET", "/v1/range?lo=1", "", 400, jsonHeader, `{"error":"hi: missing key"}` + "\n"},
		{"GET", "/v1/range?hi=1&lo=xyz", "", 400, jsonHeader, `{"error":"lo: bad key \"xyz\": strconv.ParseUint: parsing \"xyz\": invalid syntax"}` + "\n"},
		{"POST", "/v1/batch", `{"keys":[]}`, 400, jsonHeader, `{"error":"empty batch"}` + "\n"},
		{"POST", "/v1/batch", `{"keys":["1","2","3","4"]}`, 413, jsonHeader, `{"error":"batch of 4 exceeds limit 3"}` + "\n"},
		{"POST", "/v1/batch", `{"keys":["1","nope"]}`, 400, jsonHeader, `{"error":"keys[1]: bad key \"nope\": strconv.ParseUint: parsing \"nope\": invalid syntax"}` + "\n"},
		{"POST", "/v1/batch", `{`, 400, jsonHeader, `{"error":"bad batch body: unexpected EOF"}` + "\n"},
		{"GET", "/healthz", "", 200, jsonHeader, `{"status":"ready","version":7}` + "\n"},
		{"HEAD", "/healthz", "", 200, jsonHeader, `{"status":"ready","version":7}` + "\n"},
		{"POST", "/v1/find?key=1", "", 405, allowHeader("GET, HEAD"), "Method Not Allowed\n"},
		{"PUT", "/v1/range?lo=1&hi=2", "", 405, allowHeader("GET, HEAD"), "Method Not Allowed\n"},
		{"GET", "/v1/batch", "", 405, allowHeader("POST"), "Method Not Allowed\n"},
		{"HEAD", "/v1/batch", "", 405, allowHeader("POST"), "Method Not Allowed\n"},
		{"DELETE", "/healthz", "", 405, allowHeader("GET, HEAD"), "Method Not Allowed\n"},
		{"POST", "/statusz", "", 405, allowHeader("GET, HEAD"), "Method Not Allowed\n"},
		{"GET", "/", "", 404, textHeader, "404 page not found\n"},
		{"GET", "/v1/finds?key=1", "", 404, textHeader, "404 page not found\n"},
		{"GET", "/v1/find/", "", 404, textHeader, "404 page not found\n"},
		{"POST", "/admin/drain", "", 404, textHeader, "404 page not found\n"},
	}
	draining := []wireCase{
		{"GET", "/v1/find?key=77", "", 503, jsonHeader, drainBody},
		{"GET", "/v1/find?key=xyz", "", 400, jsonHeader, badKeyBody},
		{"GET", "/v1/range?lo=1&hi=71", "", 503, jsonHeader, drainBody},
		{"POST", "/v1/batch", batch, 503, jsonHeader, drainBody},
		{"GET", "/healthz", "", 503, jsonHeader, `{"status":"draining","reason":"refusing new work; in-flight requests finishing","version":7}` + "\n"},
	}
	for _, coalesce := range []bool{true, false} {
		mode := map[bool]string{true: "coalesced", false: "direct"}[coalesce]
		h := NewHandler(ix, coalescerIf(t, ix, coalesce), HandlerConfig{Coalesce: coalesce, MaxBatch: 3, MaxInflight: 1}, nil)
		checkWire(t, h, mode, data)
		for _, method := range []string{"GET", "HEAD"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, "/statusz", nil))
			var st struct{ Version uint64 }
			if err := json.Unmarshal(rec.Body.Bytes(), &st); rec.Code != 200 || rec.Header().Get("Content-Type") != "application/json" || err != nil || st.Version != 7 {
				t.Errorf("%s %s /statusz: %d %v %q", mode, method, rec.Code, rec.Header(), rec.Body.String())
			}
		}

		// Saturated: the one inflight slot is taken.
		h.inflight <- struct{}{}
		inflight := `{"error":"overloaded: inflight limit reached"}` + "\n"
		sat := []wireCase{
			{"GET", "/v1/range?lo=1&hi=71", "", 429, busyHeader, inflight},
			{"POST", "/v1/batch", batch, 429, busyHeader, inflight},
		}
		if !coalesce {
			sat = append(sat, wireCase{"GET", "/v1/find?key=77", "", 429, busyHeader, inflight})
		}
		checkWire(t, h, mode+" saturated", sat)
		<-h.inflight

		h.SetDraining(true)
		checkWire(t, h, mode+" draining", draining)
		h.SetDraining(false)
	}

	// The coalescer's own refusals: a full queue behind a busy combiner,
	// then a closed coalescer.
	co := NewCoalescer(ix, CoalescerConfig{Queue: 1})
	h := NewHandler(ix, co, HandlerConfig{Coalesce: true}, nil)
	co.combine.Lock()
	co.reqs <- creq[uint64]{key: 1, done: make(chan cres, 1)}
	checkWire(t, h, "queue full", []wireCase{
		{"GET", "/v1/find?key=77", "", 429, busyHeader, `{"error":"serve: overloaded: coalescer queue full"}` + "\n"},
	})
	co.combine.Unlock()
	co.Close()
	checkWire(t, h, "coalescer closed", []wireCase{
		{"GET", "/v1/find?key=77", "", 503, jsonHeader, `{"error":"serve: draining: server is shutting down"}` + "\n"},
	})

	admin := NewHandler(ix, nil, HandlerConfig{Admin: true}, nil)
	checkWire(t, admin, "admin", []wireCase{
		{"POST", "/admin/drain", "", 200, jsonHeader, `{"draining":true}` + "\n"},
		{"GET", "/v1/find?key=77", "", 503, jsonHeader, drainBody},
		{"GET", "/admin/drain", "", 405, allowHeader("POST"), "Method Not Allowed\n"},
		{"POST", "/admin/undrain", "", 200, jsonHeader, `{"draining":false}` + "\n"},
		{"GET", "/v1/find?key=77", "", 200, jsonHeader, `{"rank":11,"version":7}` + "\n"},
	})

	// A uint32-keyed index refuses a key that does not fit.
	small, err := concurrent.New([]uint32{1, 8, 15}, concurrent.Config{})
	if err != nil {
		t.Fatal(err)
	}
	small.Close()
	checkWire(t, NewHandler(small, nil, HandlerConfig{}, nil), "uint32", []wireCase{
		{"GET", "/v1/find?key=4294967296", "", 400, jsonHeader, `{"error":"key 4294967296 out of range for uint32"}` + "\n"},
		{"GET", "/v1/find?key=9", "", 200, jsonHeader, `{"rank":2,"version":0}` + "\n"},
	})
}

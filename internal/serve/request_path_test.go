package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/internal/concurrent"
	"repro/internal/dataset"
)

// FuzzQueryValue: for any raw query and any of the handler's parameter
// names, queryValue returns exactly url.ParseQuery(raw).Get(name).
func FuzzQueryValue(f *testing.F) {
	for _, raw := range []string{
		"", "key=77", "key=%37%37", "k%65y=5", "key=1+2", "key+=1&key =2&key=3",
		"x=1;key=77", "key=5;&key=77", "key=%zz&key=77", "key=%", "key=%4", "%=1&key=2",
		"key=1&key=2", "key&key=3", "=&key=", "&&key=9&&", "lo=1&hi=71", "hi=%2B9&lo=+",
		"lo=%00&hi=%ff", "key=%E2%82%AC", "key==1", "key=1=2",
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		want, _ := url.ParseQuery(raw)
		for _, name := range []string{"key", "lo", "hi"} {
			if got := queryValue(raw, name); got != want.Get(name) {
				t.Fatalf("queryValue(%q, %q) = %q, url.ParseQuery gives %q", raw, name, got, want.Get(name))
			}
		}
	})
}

// referenceFind is the /v1/find handler before scanFindKey and the shared
// Content-Type value, kept verbatim (its answer written as writeAnswer
// then wrote it) as the reference the scanner and its fallback must match
// byte for byte.
func (h *Handler[K]) referenceFind(w http.ResponseWriter, r *http.Request) {
	key, err := parseKey[K](queryValue(r.URL.RawQuery, "key"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	var (
		rank int
		tag  uint64
	)
	if h.co != nil && h.cfg.Coalesce {
		if h.draining.Load() {
			httpError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		rank, tag, err = h.co.Find(r.Context(), key)
		if err != nil {
			h.writeAdmissionErr(w, err)
			return
		}
	} else {
		if !h.admit(w) {
			return
		}
		rank, tag = h.ix.FindTagged(key)
		h.release()
	}
	h.served.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Write(appendFind(nil, rank, tag))
}

// FuzzFindQuery: for any raw query, GET /v1/find writes exactly what the
// queryValue + parseKey handler it replaced wrote (status, headers, body
// bytes), on a uint64 and a uint32 index.
func FuzzFindQuery(f *testing.F) {
	for _, raw := range []string{
		"key=", "key=0", "key=007", "key=18446744073709551615", "key=18446744073709551616", "key=4294967296",
		"key=1&key=2", "key=%31", "key=+1", "key=-1", "key=1;", "KEY=1",
		"", "key=77", "key=4294967295", "key=00000000000000000000001", "key=99999999999999999999",
		"key=1&", "&key=1", "k%65y=1", "key=1 ", "key=1#", "key==1", "key", "lo=1&hi=2",
	} {
		f.Add(raw)
	}
	h64, h32 := NewHandler(newPrimary(f, 20_000), nil, HandlerConfig{}, nil), NewHandler(newIndex32(f), nil, HandlerConfig{}, nil)
	pairs := map[string][2]http.HandlerFunc{
		"uint64": {h64.ServeHTTP, h64.referenceFind},
		"uint32": {h32.ServeHTTP, h32.referenceFind},
	}
	f.Fuzz(func(t *testing.T, raw string) {
		checkSame(t, pairs, raw, func() *http.Request {
			r := httptest.NewRequest(http.MethodGet, "/v1/find", nil)
			r.URL.RawQuery = raw
			return r
		})
	})
}

// TestAnswerEncodersMatchJSON: the append encoders write exactly the
// bytes json.Encoder writes for the answer shapes, at the edges of every
// field's range.
func TestAnswerEncodersMatchJSON(t *testing.T) {
	encode := func(v any) string {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	ints := []int{0, 1, 9, 10, 72, 20_000, math.MaxInt, -1, math.MinInt}
	tags := []uint64{0, 7, 1 << 32, math.MaxUint64}
	for _, tag := range tags {
		for _, lo := range ints {
			if got, want := string(appendFind(nil, lo, tag)), encode(findResponse{Rank: lo, Version: tag}); got != want {
				t.Errorf("appendFind(%d, %d) = %q, want %q", lo, tag, got, want)
			}
			for _, hi := range ints {
				want := encode(rangeResponse{LoRank: lo, HiRank: hi, Count: hi - lo, Version: tag})
				if got := string(appendRange(nil, lo, hi, tag)); got != want {
					t.Errorf("appendRange(%d, %d, %d) = %q, want %q", lo, hi, tag, got, want)
				}
			}
		}
		for _, ranks := range [][]int{{}, {5}, ints} {
			if got, want := string(appendBatch(nil, ranks, tag)), encode(batchResponse{Ranks: ranks, Version: tag}); got != want {
				t.Errorf("appendBatch(%v, %d) = %q, want %q", ranks, tag, got, want)
			}
		}
	}
}

// reusableWriter is an http.ResponseWriter that, once warm, allocates
// nothing per call, so an allocation count is the handler's own.
type reusableWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *reusableWriter) Header() http.Header { return w.header }

func (w *reusableWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *reusableWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

func (w *reusableWriter) reset() {
	clear(w.header)
	w.code = 0
	w.body.Reset()
}

// faceIndex is a closed index over n face64 keys, the key set of
// shiftbench's serve-* workloads, and top, the bound serve-* draws its
// queries under (QueryPool over the largest key + 2). Its keys, and so
// most queries, have 19 or 20 digits.
func faceIndex(t testing.TB, n int) (ix *concurrent.Index[uint64], top uint64) {
	t.Helper()
	keys, err := dataset.Generate(dataset.Face, 64, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ix, err = concurrent.New(keys, concurrent.Config{}); err != nil {
		t.Fatal(err)
	}
	ix.Close() // no background compaction: explicit Compact calls only
	return ix, keys[len(keys)-1] + 2
}

// findQueries is one GET /v1/find request and n raw queries under top,
// drawn as serve-* draws them, for it to cycle through, prepared so that a
// call allocates nothing of its own.
func findQueries(n int, top uint64) (*http.Request, []string) {
	qs := make([]string, n)
	for i, k := range QueryPool(2, n, top) {
		qs[i] = "key=" + strconv.FormatUint(k, 10)
	}
	return httptest.NewRequest(http.MethodGet, "/v1/find", nil), qs
}

// TestHandlerFindAllocs: a served /v1/find allocates nothing, coalesced
// and direct.
func TestHandlerFindAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers at random under the race detector")
	}
	ix, top := faceIndex(t, 20_000)
	for _, coalesce := range []bool{true, false} {
		h := NewHandler(ix, coalescerIf(t, ix, coalesce), HandlerConfig{Coalesce: coalesce}, nil)
		req, qs := findQueries(256, top)
		w := &reusableWriter{header: http.Header{}}
		i := 0
		call := func() {
			req.URL.RawQuery = qs[i%len(qs)]
			i++
			w.reset()
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				t.Fatalf("coalesce=%v %s: status %d %q", coalesce, req.URL.RawQuery, w.code, w.body.String())
			}
		}
		call() // warm the pools and the writer
		if n := testing.AllocsPerRun(1000, call); n != 0 {
			t.Errorf("coalesce=%v: %v allocations per /v1/find, want 0", coalesce, n)
		}
	}
}

// BenchmarkHandlerFind is one socketless /v1/find through the coalescing
// handler: routing, key reading, the lookup and the encoded answer.
func BenchmarkHandlerFind(b *testing.B) {
	ix, top := faceIndex(b, 1_000_000)
	h := NewHandler(ix, coalescerIf(b, ix, true), HandlerConfig{Coalesce: true}, nil)
	req, qs := findQueries(4096, top)
	w := &reusableWriter{header: http.Header{}}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		req.URL.RawQuery = qs[i%len(qs)]
		i++
		w.reset()
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d %q", w.code, w.body.String())
		}
	}
}

// batchCalls is one POST /v1/batch request and n canonical bodies of k
// keys under top each, drawn and written as shiftbench draws and writes
// them, for it to cycle through.
type batchCalls struct {
	req    *http.Request
	bodies []string
	rd     strings.Reader
	i      int
}

func newBatchCalls(n, k int, top uint64) *batchCalls {
	c := &batchCalls{req: httptest.NewRequest(http.MethodPost, "/v1/batch", nil), bodies: make([]string, n)}
	pool := QueryPool(3, n*k, top)
	for i := range c.bodies {
		keys := make([]string, k)
		for j := range keys {
			keys[j] = strconv.Quote(strconv.FormatUint(pool[i*k+j], 10))
		}
		c.bodies[i] = `{"keys":[` + strings.Join(keys, ",") + `]}`
	}
	return c
}

// next points the request at the next body.
func (c *batchCalls) next() *http.Request {
	body := c.bodies[c.i%len(c.bodies)]
	c.i++
	c.rd.Reset(body)
	c.req.Body, c.req.ContentLength = readCloser{&c.rd}, int64(len(body))
	return c.req
}

// TestHandlerBatchAllocs: a served 64-key /v1/batch allocates nothing, as
// /v1/find does.
func TestHandlerBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers at random under the race detector")
	}
	ix, top := faceIndex(t, 20_000)
	h := NewHandler(ix, nil, HandlerConfig{}, nil)
	calls := newBatchCalls(256, 64, top)
	w := &reusableWriter{header: http.Header{}}
	call := func() {
		w.reset()
		h.ServeHTTP(w, calls.next())
		if w.code != http.StatusOK {
			t.Fatalf("status %d %q", w.code, w.body.String())
		}
	}
	call() // warm the pools and the writer
	if n := testing.AllocsPerRun(1000, call); n != 0 {
		t.Errorf("%v allocations per 64-key /v1/batch, want 0", n)
	}
}

// BenchmarkHandlerBatch is one socketless POST /v1/batch of 16 and of 64
// keys (shiftbench's batch size): body scanning, the tagged batch lookup
// and the encoded answer.
func BenchmarkHandlerBatch(b *testing.B) {
	ix, top := faceIndex(b, 1_000_000)
	h := NewHandler(ix, nil, HandlerConfig{}, nil)
	for _, k := range []int{16, 64} {
		b.Run(fmt.Sprintf("keys=%d", k), func(b *testing.B) {
			calls := newBatchCalls(256, k, top)
			w := &reusableWriter{header: http.Header{}}
			b.ReportAllocs()
			for b.Loop() {
				w.reset()
				h.ServeHTTP(w, calls.next())
				if w.code != http.StatusOK {
					b.Fatalf("status %d %q", w.code, w.body.String())
				}
			}
		})
	}
}

type readCloser struct{ *strings.Reader }

func (readCloser) Close() error { return nil }

package serve

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/concurrent"
)

// referenceBatch is the /v1/batch handler before scanBatch, kept verbatim
// as the reference the scanner and its fallback must match byte for byte.
func (h *Handler[K]) referenceBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<24))
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad batch body: "+err.Error())
		return
	}
	if len(req.Keys) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Keys) > h.cfg.MaxBatch {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Keys), h.cfg.MaxBatch))
		return
	}
	keys := make([]K, len(req.Keys))
	for i, s := range req.Keys {
		k, err := parseKey[K](s)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("keys[%d]: %v", i, err))
			return
		}
		keys[i] = k
	}
	if !h.admit(w) {
		return
	}
	ranks, tag := h.ix.FindBatchTagged(keys, nil)
	h.release()
	h.served.Add(1)
	b := getAnswer()
	*b = appendBatch(*b, ranks, tag)
	writeAnswer(w, b)
}

// batchPairs is the grid the differential checks run on: a uint64 and a
// uint32 index, each at MaxBatch 3 and 4096, each handler paired with its
// reference.
func batchPairs(t testing.TB) map[string][2]http.HandlerFunc {
	t.Helper()
	ix32, ix64 := newIndex32(t), newPrimary(t, 20_000)
	pairs := map[string][2]http.HandlerFunc{}
	for _, max := range []int{3, 4096} {
		cfg := HandlerConfig{MaxBatch: max}
		h64, h32 := NewHandler(ix64, nil, cfg, nil), NewHandler(ix32, nil, cfg, nil)
		pairs[fmt.Sprintf("uint64/max=%d", max)] = [2]http.HandlerFunc{h64.ServeHTTP, h64.referenceBatch}
		pairs[fmt.Sprintf("uint32/max=%d", max)] = [2]http.HandlerFunc{h32.ServeHTTP, h32.referenceBatch}
	}
	return pairs
}

// newIndex32 is a closed 20,000-key uint32 index, for the differential
// checks' out-of-range keys.
func newIndex32(t testing.TB) *concurrent.Index[uint32] {
	t.Helper()
	keys := make([]uint32, 20_000)
	for i := range keys {
		keys[i] = uint32(i)*7 + 1
	}
	ix, err := concurrent.New(keys, concurrent.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	return ix
}

// postTo records one POST /v1/batch of body through serve.
func postTo(serve http.HandlerFunc, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	serve(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body)))
	return rec
}

// checkSame fails unless every pair answers the request newReq makes with
// the reference's status, headers and body bytes; what names the request
// in the failure.
func checkSame(t *testing.T, pairs map[string][2]http.HandlerFunc, what string, newReq func() *http.Request) {
	t.Helper()
	for name, p := range pairs {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		p[0](got, newReq())
		p[1](want, newReq())
		if got.Code != want.Code || !maps.EqualFunc(got.Header(), want.Header(), slices.Equal) || got.Body.String() != want.Body.String() {
			t.Fatalf("%s %.200q:\n got %d %v %q\nwant %d %v %q", name, what,
				got.Code, got.Header(), got.Body.String(), want.Code, want.Header(), want.Body.String())
		}
	}
}

// checkBatchBody is checkSame for one POST /v1/batch of body.
func checkBatchBody(t *testing.T, pairs map[string][2]http.HandlerFunc, body string) {
	t.Helper()
	checkSame(t, pairs, body, func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body))
	})
}

// FuzzBatchBody: for any body, the /v1/batch handler writes exactly what
// the encoding/json handler it replaced wrote, on a uint64 and a uint32
// index at MaxBatch 3 and 4096.
func FuzzBatchBody(f *testing.F) {
	for _, body := range []string{
		// TestHandlerWireGolden's bodies.
		`{"keys":["1","500","999999999"]}`, `{"keys":["77"]}`, `{"keys":[]}`, `{"keys":["1","2","3","4"]}`,
		`{"keys":["1","nope"]}`, `{`,
		// Valid but unusual: field-name folding (the Kelvin sign folds to
		// k), escapes, a duplicate field (the last wins), unknown fields,
		// null elements, trailing data.
		`{"KEYS":["1"]}`, `{"Keys":["1"]}`, "{\"\u212aeys\":[\"1\"]}", `{"k\u0065ys":["1"]}`, `{"keys":["\u0031\u0032"]}`,
		`{"keys":["1"],"keys":["2","3"]}`, `{"keys":["1","2","3","4"],"keys":["5"]}`, `{"x":[1,{"y":null}],"keys":["5"]}`,
		`{"keys":[null,"1"]}`, `{"keys":null}`, `{"keys":["1"]}xyz`, `{"keys":["1"]}{"keys":["2"]}`, `{"keys":["1"]}]`,
		// Digits at the edges of uint64 and uint32.
		`{"keys":["007","0"]}`, `{"keys":["00000000000000000000000000000000001"]}`, `{"keys":["18446744073709551615"]}`,
		`{"keys":["18446744073709551616"]}`, `{"keys":["99999999999999999999"]}`, `{"keys":["4294967295"]}`,
		`{"keys":["4294967296"]}`, `{"keys":["-1"]}`, `{"keys":["+1"]}`, `{"keys":[""]}`, `{"keys":["1 "]}`, `{"keys":[1]}`,
		// Other shapes; whitespace and tabs in every gap; 4 vs 3 keys.
		`[]`, `null`, `{}`, ``, " ", `{"keys":"1"}`, `{"keys":["1",]}`, `{"keys":["1""2"]}`, `{"keys":["1"]`,
		" \t{ \"keys\" :\t[ \"1\" ,\n\"2\"\t] }\r\n", "\t\n\r {\"keys\":[\"1\",\"2\"]} \t\r\n", `{"keys":["1","2","3"]}`,
		`{"keys":["1","2","3","4"]}`, `{"keys":["1","2","3","x"]}`, "{\"keys\":[\"1\xff\"]}", "\xef\xbb\xbf{\"keys\":[\"1\"]}",
	} {
		f.Add(body)
	}
	// A space or a tab put into each gap of a canonical body, and each of
	// its bytes replaced by a space.
	const canonical = `{"keys":["1","2"]}`
	for i := range len(canonical) + 1 {
		for _, ws := range []string{" ", "\t"} {
			f.Add(canonical[:i] + ws + canonical[i:])
		}
		if i < len(canonical) {
			f.Add(canonical[:i] + " " + canonical[i+1:])
		}
	}
	pairs := batchPairs(f)
	f.Fuzz(func(t *testing.T, body string) { checkBatchBody(t, pairs, body) })
}

// TestBatchBodyCap: json.Decoder stops at the end of the first value, so a
// complete value followed by padding past the 16 MiB cap is answered, as
// before; a value that itself runs past the cap is refused.
func TestBatchBodyCap(t *testing.T) {
	h := NewHandler(newPrimary(t, 20_000), nil, HandlerConfig{}, nil)
	pair := map[string][2]http.HandlerFunc{"uint64": {h.ServeHTTP, h.referenceBatch}}
	const (
		answer  = `{"ranks":[11,0],"version":0}` + "\n"
		tooMuch = `{"error":"bad batch body: http: request body too large"}` + "\n"
	)
	// inner is a body of n bytes whose padding sits inside the value.
	inner := func(n int) string {
		const head, tail = `{"keys":["77",`, `"1"]}`
		return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail
	}
	for _, c := range []struct {
		name string
		body string
		code int
		want string
	}{
		{"value then padding to the cap", `{"keys":["77","1"]}` + strings.Repeat(" ", maxBatchBody-19), 200, answer},
		{"value then padding past the cap", `{"keys":["77","1"]}` + strings.Repeat("x", maxBatchBody), 200, answer},
		{"value ending at the cap", inner(maxBatchBody), 200, answer},
		{"value ending past the cap", inner(maxBatchBody + 1), 400, tooMuch},
	} {
		rec := postTo(h.ServeHTTP, c.body)
		if rec.Code != c.code || rec.Body.String() != c.want {
			t.Errorf("%s: %d %q, want %d %q", c.name, rec.Code, rec.Body.String(), c.code, c.want)
		}
		checkBatchBody(t, pair, c.body)
	}
}

// TestScanBatchTakesMarshalled: json.Marshal of the request struct, the
// body every in-repo client sends, takes the scanner, not the fallback.
func TestScanBatchTakesMarshalled(t *testing.T) {
	for _, keys := range [][]string{{"0"}, {"1", "500", "18446744073709551615"}} {
		body, err := json.Marshal(batchRequest{Keys: keys})
		if err != nil {
			t.Fatal(err)
		}
		got, ok := scanBatch(body, []uint64(nil), 4096)
		if !ok || len(got) != len(keys) {
			t.Errorf("scanBatch(%s) = %v, %v; want the %d keys", body, got, ok, len(keys))
		}
	}
}

// TestHandlerBatchConcurrent: goroutines sharing one handler, and so its
// pooled scratch, each get the ranks of their own keys, on the scanner's
// path and the fallback's alike.
func TestHandlerBatchConcurrent(t *testing.T) {
	ix := newPrimary(t, 20_000)
	h := NewHandler(ix, nil, HandlerConfig{}, nil)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g)))
			for i := range 200 {
				keys := make([]uint64, 1+rnd.Intn(64))
				quoted := make([]string, len(keys))
				for j := range keys {
					keys[j] = uint64(rnd.Intn(150_000))
					quoted[j] = strconv.Quote(strconv.FormatUint(keys[j], 10))
				}
				sep := ","
				if i%2 == 1 {
					sep = ", " // not canonical: the encoding/json path
				}
				rec := postTo(h.ServeHTTP, `{"keys":[`+strings.Join(quoted, sep)+`]}`)
				var got batchResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusOK || err != nil {
					t.Errorf("goroutine %d call %d: %d %q", g, i, rec.Code, rec.Body.String())
					return
				}
				if want := ix.FindBatch(keys, nil); !slices.Equal(got.Ranks, want) {
					t.Errorf("goroutine %d call %d: ranks %v, want %v", g, i, got.Ranks, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/concurrent"
	"repro/internal/kv"
	"repro/internal/mapped"
)

// HandlerConfig parameterises NewHandler. The zero value gets the
// documented defaults.
type HandlerConfig struct {
	// Coalesce routes point lookups through the wave coalescer; false
	// answers each request with its own scalar tagged lookup,
	// Index.FindTagged (the per-request baseline, shiftserver -mode
	// direct).
	Coalesce bool
	// MaxBatch caps how many keys one POST /v1/batch may carry
	// (default 4096). Larger requests get 413.
	MaxBatch int
	// MaxInflight bounds how many uncoalesced requests (direct-mode
	// finds, ranges, explicit batches) execute concurrently
	// (default 256). Excess arrivals get 429 — the bounded-queue
	// admission control the coalescer provides for coalesced finds.
	MaxInflight int
	// Admin enables the POST /admin/drain and /admin/undrain endpoints,
	// letting a fleet controller take this backend out of (and back into)
	// rotation remotely during a rolling upgrade. Off by default: a
	// backend not managed by a fleet has no business exposing them.
	Admin bool
	// Ready, when set, gates /healthz readiness: until it returns true
	// the probe answers 503 {"status":"starting"} so load balancers keep
	// the backend out of rotation. A replica-backed server passes
	// "first version installed"; nil means ready from the start (a
	// primary serving its own index has no install to wait for).
	Ready func() bool
}

func (c HandlerConfig) withDefaults() HandlerConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	return c
}

type batchRequest struct {
	Keys []string `json:"keys"`
}

// Handler is the query front end: HTTP/JSON over the lock-free serving
// index, point lookups optionally coalesced into waves, everything
// admission-controlled (bounded queue/inflight, typed 429 on overload,
// 503 while draining).
//
// Routes: GET /v1/find?key=K · GET /v1/range?lo=A&hi=B ·
// POST /v1/batch {"keys":[...]} · GET /healthz · GET /statusz. Keys
// travel as decimal strings end to end (uint64 keys overflow JSON
// numbers), ranks and versions as numbers.
type Handler[K kv.Key] struct {
	ix  *concurrent.Index[K]
	co  *Coalescer[K]
	cfg HandlerConfig

	inflight chan struct{}
	draining atomic.Bool

	served   atomic.Uint64
	rejected atomic.Uint64

	// status, when non-nil, contributes extra fields to /statusz (the
	// replica's sync status, for shiftserver).
	status func() map[string]any

	// batches pools each /v1/batch call's *batchScratch[K].
	batches sync.Pool
}

// NewHandler builds the query handler over ix. With cfg.Coalesce set, co
// is the coalescer its finds go through, and the caller closes it;
// otherwise co may be nil. status (optional) adds fields to /statusz.
func NewHandler[K kv.Key](ix *concurrent.Index[K], co *Coalescer[K], cfg HandlerConfig, status func() map[string]any) *Handler[K] {
	if cfg.Coalesce && co == nil {
		panic("serve: NewHandler: Coalesce set without a coalescer")
	}
	cfg = cfg.withDefaults()
	h := &Handler[K]{
		ix:       ix,
		co:       co,
		cfg:      cfg,
		inflight: make(chan struct{}, cfg.MaxInflight),
		status:   status,
	}
	h.batches.New = func() any { return new(batchScratch[K]) }
	return h
}

// SetDraining flips the handler into drain mode: every data request is
// refused with 503 so load balancers fail over while http.Server's
// Shutdown lets in-flight requests finish. Run wires this as onDrain.
func (h *Handler[K]) SetDraining(v bool) { h.draining.Store(v) }

// Served and Rejected report the admission counters.
func (h *Handler[K]) Served() uint64   { return h.served.Load() }
func (h *Handler[K]) Rejected() uint64 { return h.rejected.Load() }

// ServeHTTP routes on the exact path: a GET route also answers HEAD, a
// known path with another method gets 405 with Allow, anything else 404.
// It reads r and never changes or keeps it.
func (h *Handler[K]) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	get := r.Method == http.MethodGet || r.Method == http.MethodHead
	post := r.Method == http.MethodPost
	allow := "GET, HEAD"
	switch r.URL.Path {
	case "/v1/find":
		if get {
			h.handleFind(w, r)
			return
		}
	case "/v1/range":
		if get {
			h.handleRange(w, r)
			return
		}
	case "/v1/batch":
		if post {
			h.handleBatch(w, r)
			return
		}
		allow = "POST"
	case "/healthz":
		if get {
			h.handleHealthz(w)
			return
		}
	case "/statusz":
		if get {
			h.handleStatusz(w)
			return
		}
	case "/admin/drain", "/admin/undrain":
		if !h.cfg.Admin {
			http.NotFound(w, r)
			return
		}
		if post {
			// An operator's lever before (and after) upgrading a
			// backend. Idempotent; the answer reports the resulting state.
			v := r.URL.Path == "/admin/drain"
			h.SetDraining(v)
			writeJSON(w, map[string]any{"draining": v})
			return
		}
		allow = "POST"
	default:
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Allow", allow)
	http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
}

// admit performs the bounded-inflight admission for uncoalesced work.
// It returns false after writing the refusal when the server is
// draining or saturated; on true the caller must call release.
func (h *Handler[K]) admit(w http.ResponseWriter) bool {
	if h.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return false
	}
	select {
	case h.inflight <- struct{}{}:
		return true
	default:
		h.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "overloaded: inflight limit reached")
		return false
	}
}

// release returns the inflight slot admit took.
func (h *Handler[K]) release() { <-h.inflight }

// handleFind answers GET /v1/find?key=K. scanFindKey reads the canonical
// query in one pass; any other query goes to queryValue and parseKey, the
// authority on every other shape.
func (h *Handler[K]) handleFind(w http.ResponseWriter, r *http.Request) {
	key, ok := scanFindKey[K](r.URL.RawQuery)
	var err error
	if !ok {
		if key, err = parseKey[K](queryValue(r.URL.RawQuery, "key")); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
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
	b := getAnswer()
	*b = appendFind(*b, rank, tag)
	writeAnswer(w, b)
}

func (h *Handler[K]) handleRange(w http.ResponseWriter, r *http.Request) {
	lo, err := parseKey[K](queryValue(r.URL.RawQuery, "lo"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "lo: "+err.Error())
		return
	}
	hi, err := parseKey[K](queryValue(r.URL.RawQuery, "hi"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "hi: "+err.Error())
		return
	}
	if hi < lo {
		httpError(w, http.StatusBadRequest, "empty range: hi < lo")
		return
	}
	if !h.admit(w) {
		return
	}
	// One tagged two-lane batch: both endpoint ranks come from the same
	// snapshot, so the half-open count is consistent even mid-install.
	qs := [2]K{lo, hi}
	var two [2]int
	ranks, tag := h.ix.FindBatchTagged(qs[:], two[:0])
	h.release()
	h.served.Add(1)
	b := getAnswer()
	*b = appendRange(*b, ranks[0], ranks[1], tag)
	writeAnswer(w, b)
}

// maxBatchBody caps how many bytes of a /v1/batch body are read.
const maxBatchBody = 1 << 24

// batchScratch is one /v1/batch call's working memory: the body as read,
// its keys and their ranks. Each Handler pools them; nothing in one
// outlives the call that took it.
type batchScratch[K kv.Key] struct {
	body  []byte
	keys  []K
	ranks []int
}

// maxPooledKeys caps the key and rank slices put back, as maxPooledAnswer
// caps the bytes; a batch of the default 4,096 keys fits.
const maxPooledKeys = maxPooledAnswer / 8

func (h *Handler[K]) putBatch(s *batchScratch[K]) {
	if cap(s.body) <= maxPooledAnswer && cap(s.keys) <= maxPooledKeys && cap(s.ranks) <= maxPooledKeys {
		h.batches.Put(s)
	}
}

// handleBatch reads the whole body (up to maxBatchBody bytes) into pooled
// scratch. scanBatch parses the canonical body in place; any other body
// goes to decodeBatch, encoding/json over the same bytes.
func (h *Handler[K]) handleBatch(w http.ResponseWriter, r *http.Request) {
	s := h.batches.Get().(*batchScratch[K])
	defer h.putBatch(s)
	rd := http.MaxBytesReader(w, r.Body, maxBatchBody)
	s.body = s.body[:0]
	var err error
	for err == nil { // io.ReadAll's loop, into the pooled slice
		if len(s.body) == cap(s.body) {
			s.body = append(s.body, 0)[:len(s.body)]
		}
		var n int
		n, err = rd.Read(s.body[len(s.body):cap(s.body)])
		s.body = s.body[:len(s.body)+n]
	}
	keys, ok := scanBatch(s.body, s.keys[:0], h.cfg.MaxBatch)
	if !ok {
		if keys, ok = h.decodeBatch(w, &readThenFail{s.body, err}, s.keys[:0]); !ok {
			return
		}
	}
	s.keys = keys
	if !h.admit(w) {
		return
	}
	var tag uint64
	s.ranks, tag = h.ix.FindBatchTagged(keys, s.ranks[:0])
	h.release()
	h.served.Add(1)
	b := getAnswer()
	*b = appendBatch(*b, s.ranks, tag)
	writeAnswer(w, b)
}

// scanBatch parses the canonical /v1/batch body: optional JSON whitespace,
// {"keys":[, then 1 to max strings of 1 to 20 ASCII digits separated by
// commas, each fitting uint64 and K (scanDigits), then ]}, then optional
// JSON whitespace. It appends the keys to keys and reports whether b had
// that shape. From such a body encoding/json plus parseKey get the same
// keys (json.Decoder stops at the end of the first value, so a read error
// after it is moot).
func scanBatch[K kv.Key](b []byte, keys []K, max int) ([]K, bool) {
	const head, tail = `{"keys":[`, `]}`
	b = trimJSONSpace(b)
	if len(b) < len(head)+len(tail) || string(b[:len(head)]) != head || string(b[len(b)-len(tail):]) != tail {
		return keys, false
	}
	b = b[len(head) : len(b)-len(tail)]
	for len(keys) < max && len(b) > 0 && b[0] == '"' {
		u, n := scanDigits(b[1:])
		k := K(u)
		if n == 0 || uint64(k) != u || n+1 == len(b) || b[n+1] != '"' {
			return keys, false
		}
		keys = append(keys, k)
		if b = b[n+2:]; len(b) == 0 {
			return keys, true
		}
		if b[0] != ',' {
			return keys, false
		}
		b = b[1:]
	}
	return keys, false
}

// trimJSONSpace cuts JSON's whitespace (space, tab, CR, LF) off both ends
// of b.
func trimJSONSpace(b []byte) []byte {
	for len(b) > 0 && isJSONSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isJSONSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

func isJSONSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// decodeBatch decodes every /v1/batch body scanBatch does not take with
// encoding/json and parseKey, appending the keys to keys. On false it
// has written the refusal.
func (h *Handler[K]) decodeBatch(w http.ResponseWriter, body io.Reader, keys []K) ([]K, bool) {
	var req batchRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad batch body: "+err.Error())
		return nil, false
	}
	if len(req.Keys) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return nil, false
	}
	if len(req.Keys) > h.cfg.MaxBatch {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Keys), h.cfg.MaxBatch))
		return nil, false
	}
	for i, s := range req.Keys {
		k, err := parseKey[K](s)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("keys[%d]: %v", i, err))
			return nil, false
		}
		keys = append(keys, k)
	}
	return keys, true
}

// readThenFail yields the bytes of a body already read, then the error
// that ended the read: the stream json.Decoder would have read itself.
type readThenFail struct {
	b   []byte
	err error
}

func (r *readThenFail) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, r.err
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// healthzResponse is the machine-readable probe answer the fleet tier
// parses: status is exactly one of "ready", "starting", "draining".
type healthzResponse struct {
	Status  string `json:"status"`
	Reason  string `json:"reason,omitempty"`
	Version uint64 `json:"version"`
}

func (h *Handler[K]) handleHealthz(w http.ResponseWriter) {
	resp := healthzResponse{Status: "ready", Version: h.ix.Tag()}
	switch {
	case h.draining.Load():
		resp.Status, resp.Reason = "draining", "refusing new work; in-flight requests finishing"
	case h.cfg.Ready != nil && !h.cfg.Ready():
		resp.Status, resp.Reason = "starting", "no version installed yet"
	default:
		writeJSON(w, resp)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(resp)
}

func (h *Handler[K]) handleStatusz(w http.ResponseWriter) {
	st := map[string]any{
		"version":  h.ix.Tag(),
		"keys":     h.ix.Len(),
		"index":    h.ix.Name(),
		"pending":  h.ix.Pending(),
		"served":   h.served.Load(),
		"rejected": h.rejected.Load(),
		"draining": h.draining.Load(),
		"coalesce": h.cfg.Coalesce,
	}
	minflt, majflt := mapped.OSFaults()
	mm := map[string]any{
		"supported":    mapped.Supported(),
		"mapped":       h.ix.Mapped(),
		"mapped_bytes": h.ix.MappedBytes(),
		"minor_faults": minflt,
		"major_faults": majflt,
	}
	st["mmap"] = mm
	if h.co != nil {
		cs := h.co.Stats()
		st["coalescer"] = map[string]any{
			"requests": cs.Requests,
			"rejected": cs.Rejected,
			"waves":    cs.Waves,
			"batched":  cs.Batched,
			"max_wave": cs.MaxWave,
			"queue":    h.co.QueueDepth(),
		}
	}
	if h.status != nil {
		for k, v := range h.status() {
			st[k] = v
		}
	}
	writeJSON(w, st)
}

// writeAdmissionErr maps coalescer admission errors onto status codes.
func (h *Handler[K]) writeAdmissionErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		h.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// Client went away; 499-style. Nothing useful to write, but be
		// explicit for middleboxes.
		httpError(w, http.StatusRequestTimeout, err.Error())
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// parseKey parses a decimal key, rejecting values that do not fit K
// (uint32-keyed indexes refuse 2^32 instead of silently wrapping).
func parseKey[K kv.Key](s string) (K, error) {
	if s == "" {
		return 0, errors.New("missing key")
	}
	u, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad key %q: %v", s, err)
	}
	k := K(u)
	if uint64(k) != u {
		return 0, fmt.Errorf("key %d out of range for %T", u, k)
	}
	return k, nil
}

// scanFindKey parses the canonical /v1/find query: key= then 1 to 20
// ASCII digits and nothing else, the value fitting uint64 and K
// (scanDigits). It reports whether raw had that shape. From such a query
// queryValue plus parseKey get the same key: no pair holds a ';', an
// escape or a '+', and the one pair is named key.
func scanFindKey[K kv.Key](raw string) (K, bool) {
	const name = "key="
	if len(raw) <= len(name) || raw[:len(name)] != name {
		return 0, false
	}
	u, n := scanDigits(raw[len(name):])
	k := K(u)
	return k, n == len(raw)-len(name) && uint64(k) == u
}

// queryValue is url.ParseQuery(raw).Get(name) without building the map:
// the value of the first pair named name. Like ParseQuery it skips empty
// pairs and pairs that hold a ';' or a bad escape, and unescapes '%XX'
// and '+' in names and values.
func queryValue(raw, name string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, ok := queryUnescape(k); !ok || k != name {
			continue
		}
		if v, ok := queryUnescape(v); ok {
			return v
		}
	}
	return ""
}

// queryUnescape is url.QueryUnescape, allocation-free when s holds
// nothing to unescape.
func queryUnescape(s string) (string, bool) {
	if !strings.ContainsAny(s, "%+") {
		return s, true
	}
	u, err := url.QueryUnescape(s)
	return u, err == nil
}

// The 200 answers of the three data routes are appended into pooled
// buffers, byte for byte what encoding/json's Encoder writes for
// {"rank","version"}, {"lo_rank","hi_rank","count","version"} and
// {"ranks","version"}, trailing newline included. Error bodies,
// /healthz and /statusz keep encoding/json.
var answers = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

// maxPooledAnswer caps the buffers put back: a 4,096-key batch answer
// fits, a larger one goes to the collector.
const maxPooledAnswer = 64 << 10

func getAnswer() *[]byte {
	b := answers.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// jsonContentType is the Content-Type value of every 200 answer.
// writeAnswer assigns it into the header map as is: the key is already
// canonical, so Header.Set's canonicalisation and its []string per call
// are skipped. Sharing the one slice is safe because nothing writes into
// a header value slice: net/http's server reads a handler's header,
// Clones it or deletes keys from it; Set replaces a key's slice; Add
// appends, which copies this len-1, cap-1 slice; and no code in this
// module writes into a value slice.
var jsonContentType = []string{"application/json"}

// writeAnswer writes the 200 answer in b and returns b to the pool. It
// allocates nothing.
func writeAnswer(w http.ResponseWriter, b *[]byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.Write(*b)
	if cap(*b) <= maxPooledAnswer {
		answers.Put(b)
	}
}

func appendFind(b []byte, rank int, tag uint64) []byte {
	b = append(b, `{"rank":`...)
	b = appendInt(b, rank)
	return appendVersion(b, tag)
}

func appendRange(b []byte, lo, hi int, tag uint64) []byte {
	b = append(b, `{"lo_rank":`...)
	b = appendInt(b, lo)
	b = append(b, `,"hi_rank":`...)
	b = appendInt(b, hi)
	b = append(b, `,"count":`...)
	b = appendInt(b, hi-lo)
	return appendVersion(b, tag)
}

func appendBatch(b []byte, ranks []int, tag uint64) []byte {
	b = append(b, `{"ranks":[`...)
	for i, r := range ranks {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendInt(b, r)
	}
	b = append(b, ']')
	return appendVersion(b, tag)
}

func appendVersion(b []byte, tag uint64) []byte {
	b = append(b, `,"version":`...)
	b = appendUint(b, tag)
	return append(b, "}\n"...)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing to do but note it via the server's
		// error log path (connection likely dead).
		_ = err
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

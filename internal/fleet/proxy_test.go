package fleet

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// bodyRecorder is a backend that answers /healthz ready and every other
// request with status, echoing the body on 200. It keeps the last body
// it received.
type bodyRecorder struct {
	status int

	mu   sync.Mutex
	last []byte
}

func (b *bodyRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		writeJSON(w, http.StatusOK, healthzBody{Status: "ready", Version: 1})
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	b.mu.Lock()
	b.last = body
	b.mu.Unlock()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(b.status)
	if b.status == http.StatusOK {
		w.Write(body)
	}
}

// take returns the last body received and forgets it.
func (b *bodyRecorder) take() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	last := b.last
	b.last = nil
	return last
}

// failoverPool is a ready pool over two recording backends: the first
// answers 503, as a backend that began draining does, the second echoes.
func failoverPool(t testing.TB) (*Pool, [2]*bodyRecorder) {
	t.Helper()
	bes := [2]*bodyRecorder{{status: http.StatusServiceUnavailable}, {status: http.StatusOK}}
	var urls []string
	for _, be := range bes {
		srv := httptest.NewServer(be)
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	p, err := NewPool(urls, PoolConfig{Probe: 50 * time.Millisecond, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	waitFleetReady(t, p, 2, 5*time.Second)
	return p, bes
}

// proxyOnce posts body through p with the 503 backend first in rotation.
func proxyOnce(p *Pool, body []byte) *httptest.ResponseRecorder {
	p.next.Store(uint64(len(p.bes)) - 1) // the next rotation starts at bes[0]
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
	return rec
}

// checkFailover fails unless the pool failed over once, both backends saw
// exactly body and the client got the echo.
func checkFailover(t *testing.T, p *Pool, bes [2]*bodyRecorder, body []byte) {
	t.Helper()
	retries := p.Retries()
	rec := proxyOnce(p, body)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), body) {
		t.Fatalf("%.200q: client got %d %.200q, want 200 and the echo", body, rec.Code, rec.Body.Bytes())
	}
	if n := p.Retries() - retries; n != 1 {
		t.Fatalf("%.200q: %d failover hops, want 1", body, n)
	}
	for i, be := range bes {
		if got := be.take(); !bytes.Equal(got, body) {
			t.Fatalf("%.200q: backend %d saw %.200q", body, i, got)
		}
	}
}

// FuzzProxyBody: for any request body, the pool replays exactly the
// client's bytes to each backend it tries, and relays the answer of the
// one that takes it.
func FuzzProxyBody(f *testing.F) {
	for _, body := range []string{
		"", `{"keys":["1","500","999999999"]}`, `{`, "\x00\xff\r\n", " \t{ \"keys\" :\t[ \"1\" ] }",
	} {
		f.Add([]byte(body))
	}
	p, bes := failoverPool(f)
	f.Fuzz(func(t *testing.T, body []byte) { checkFailover(t, p, bes, body) })
}

// TestProxyBodyCap: a body of exactly maxProxyBody bytes fails over and is
// answered; one byte more gets 413 and reaches no backend.
func TestProxyBodyCap(t *testing.T) {
	p, bes := failoverPool(t)
	body := bytes.Repeat([]byte("k"), maxProxyBody)
	checkFailover(t, p, bes, body)

	rec := proxyOnce(p, append(body, 'k'))
	if want := `{"error":"request body too large to proxy"}` + "\n"; rec.Code != http.StatusRequestEntityTooLarge || rec.Body.String() != want {
		t.Errorf("oversized body: %d %q, want 413 %q", rec.Code, rec.Body.String(), want)
	}
	for i, be := range bes {
		if got := be.take(); got != nil {
			t.Errorf("oversized body reached backend %d (%d bytes)", i, len(got))
		}
	}
}

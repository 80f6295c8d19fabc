// Package fleet is the front tier of a replica fleet: one Pool
// health-checks N shiftserver backends and routes queries around
// draining or dead ones, retrying transparently, so a client never sees
// a mid-upgrade backend (DESIGN.md §13).
//
// The pool knows nothing about snapshots or upgrades: an operator rolls
// a fleet with each backend's /admin/drain lever and a restart, and the
// pool follows through the /healthz ready/starting/draining protocol the
// serve handler exposes.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxProxyBody bounds how much of a request body the pool buffers for
// retry (matches the serve handler's own batch body cap).
const maxProxyBody = 1 << 24

// PoolConfig parameterises NewPool. The zero value gets the documented
// defaults.
type PoolConfig struct {
	// Probe is the health-check interval per backend (default 100ms).
	Probe time.Duration
	// FailAfter is how many consecutive probe failures mark a backend
	// unhealthy (default 2; the first success readmits immediately).
	FailAfter int
	// Timeout bounds each probe and each per-backend proxy attempt
	// (default 2s).
	Timeout time.Duration
	// Client overrides the HTTP client (default: a fresh one with the
	// configured timeout).
	Client *http.Client
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.Probe <= 0 {
		c.Probe = 100 * time.Millisecond
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	return c
}

// backend is the pool's view of one replica server.
type backend struct {
	url     string
	healthy atomic.Bool
	state   atomic.Value // string: last probe verdict
	version atomic.Uint64
	fails   int // consecutive probe failures; probe goroutine only
}

// BackendStatus is one backend's row in the pool's status report.
type BackendStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	State   string `json:"state"`   // ready | starting | draining | unreachable
	Version uint64 `json:"version"` // last version the probe saw
}

// Pool fronts N backends. It is an http.Handler: /v1/* proxies to an
// eligible backend with transparent failover, /healthz reports fleet
// health (200 iff at least one backend is eligible), /statusz the
// per-backend detail.
type Pool struct {
	cfg    PoolConfig
	client *http.Client
	bes    []*backend
	next   atomic.Uint64

	proxied  atomic.Uint64 // requests answered
	retries  atomic.Uint64 // failover hops taken
	failures atomic.Uint64 // requests no backend could answer

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewPool builds a pool over the backend base URLs and starts its
// health probes. Close stops them.
func NewPool(urls []string, cfg PoolConfig) (*Pool, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("fleet: no backends")
	}
	cfg = cfg.withDefaults()
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.Timeout}
	}
	p := &Pool{cfg: cfg, client: client, stop: make(chan struct{})}
	for _, u := range urls {
		u = strings.TrimRight(u, "/")
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("fleet: backend %q is not an http(s) URL", u)
		}
		be := &backend{url: u}
		be.state.Store("unprobed")
		p.bes = append(p.bes, be)
	}
	p.wg.Add(1)
	go p.probeLoop()
	return p, nil
}

// Close stops the health probes (in-flight proxied requests finish on
// their own).
func (p *Pool) Close() {
	close(p.stop)
	p.wg.Wait()
}

// Backends returns the per-backend status rows, in configuration order.
func (p *Pool) Backends() []BackendStatus {
	out := make([]BackendStatus, len(p.bes))
	for i, be := range p.bes {
		out[i] = BackendStatus{
			URL:     be.url,
			Healthy: be.healthy.Load(),
			State:   be.state.Load().(string),
			Version: be.version.Load(),
		}
	}
	return out
}

// Version is the fleet-wide serving version: the minimum version among
// eligible backends (0 when none is eligible). Every eligible backend
// serves at least this version, so a client keying verification off it
// — shiftload's /statusz preflight — is never ahead of the fleet.
func (p *Pool) Version() uint64 {
	var v uint64
	for _, be := range p.bes {
		if be.eligible() {
			if bv := be.version.Load(); v == 0 || bv < v {
				v = bv
			}
		}
	}
	return v
}

// Proxied, Retries, Failures report the routing counters.
func (p *Pool) Proxied() uint64  { return p.proxied.Load() }
func (p *Pool) Retries() uint64  { return p.retries.Load() }
func (p *Pool) Failures() uint64 { return p.failures.Load() }

// eligible reports whether a backend may receive traffic: its last
// probes found it ready. A drained backend answers /healthz with 503, so
// it leaves rotation after FailAfter probes, and the proxy fails over on
// the 503s it answers meanwhile.
func (be *backend) eligible() bool { return be.healthy.Load() }

func (p *Pool) eligibleCount() int {
	n := 0
	for _, be := range p.bes {
		if be.eligible() {
			n++
		}
	}
	return n
}

// probeLoop drives one health-check round per interval across all
// backends (concurrently — a hung backend must not starve the others'
// probes).
func (p *Pool) probeLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.Probe)
	defer t.Stop()
	p.probeAll() // first verdicts immediately, not one interval late
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.probeAll()
		}
	}
}

func (p *Pool) probeAll() {
	var wg sync.WaitGroup
	for _, be := range p.bes {
		wg.Add(1)
		go func(be *backend) {
			defer wg.Done()
			p.probe(be)
		}(be)
	}
	wg.Wait()
}

// healthzBody mirrors the serve handler's /healthz answer.
type healthzBody struct {
	Status  string `json:"status"`
	Version uint64 `json:"version"`
}

func (p *Pool) probe(be *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.Timeout)
	defer cancel()
	state, version := "unreachable", uint64(0)
	req, err := http.NewRequestWithContext(ctx, "GET", be.url+"/healthz", nil)
	if err == nil {
		if res, rerr := p.client.Do(req); rerr == nil {
			var body healthzBody
			if jerr := json.NewDecoder(io.LimitReader(res.Body, 1<<16)).Decode(&body); jerr == nil && body.Status != "" {
				state, version = body.Status, body.Version
			}
			res.Body.Close()
		}
	}
	be.state.Store(state)
	be.version.Store(version)
	if state == "ready" {
		be.fails = 0
		be.healthy.Store(true)
		return
	}
	be.fails++
	if be.fails >= p.cfg.FailAfter {
		be.healthy.Store(false)
	}
}

func (p *Pool) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case strings.HasPrefix(r.URL.Path, "/v1/"):
		p.proxy(w, r)
	case r.URL.Path == "/healthz" && r.Method == "GET":
		p.handleHealthz(w)
	case r.URL.Path == "/statusz" && r.Method == "GET":
		writeJSON(w, http.StatusOK, map[string]any{
			"backends": p.Backends(),
			"eligible": p.eligibleCount(),
			"version":  p.Version(),
			"proxied":  p.Proxied(),
			"retries":  p.Retries(),
			"failures": p.Failures(),
		})
	default:
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such route"})
	}
}

func (p *Pool) handleHealthz(w http.ResponseWriter) {
	if n := p.eligibleCount(); n > 0 {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "eligible": n})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining", "eligible": 0})
}

// proxy relays one data request, failing over across backends: a
// transport error or a 503 (draining/starting backend) moves to the
// next eligible backend; any other answer — including 4xx, which would
// fail identically everywhere — is relayed as-is. The request body is
// buffered so every attempt replays the same bytes.
func (p *Pool) proxy(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Body != nil {
		b, err := io.ReadAll(io.LimitReader(r.Body, maxProxyBody+1))
		if err != nil || len(b) > maxProxyBody {
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{"error": "request body too large to proxy"})
			return
		}
		body = b
	}
	// One rotation over the fleet starting at the round-robin cursor.
	// Ineligible backends are skipped up front, but an eligible-looking
	// backend that fails mid-request still burns its attempt and the
	// rotation continues — that in-flight failover is what makes a
	// mid-upgrade kill invisible to clients.
	start := p.next.Add(1)
	var lastErr string
	for i := 0; i < len(p.bes); i++ {
		be := p.bes[(start+uint64(i))%uint64(len(p.bes))]
		if !be.eligible() {
			continue
		}
		ctx, cancel := context.WithTimeout(r.Context(), p.cfg.Timeout)
		res, err := p.attempt(ctx, be, r, body)
		if err != nil {
			cancel()
			lastErr = err.Error()
			p.retries.Add(1)
			continue
		}
		if res.StatusCode == http.StatusServiceUnavailable {
			// The backend began draining between our eligibility check
			// and its admission gate. Not an answer — try the next one.
			io.Copy(io.Discard, io.LimitReader(res.Body, 1<<16))
			res.Body.Close()
			cancel()
			lastErr = "backend draining"
			p.retries.Add(1)
			continue
		}
		err = relay(w, res)
		res.Body.Close()
		cancel()
		if err != nil {
			// Headers are already written; the client connection is torn.
			// Nothing more the fleet can do for this request.
			return
		}
		p.proxied.Add(1)
		return
	}
	p.failures.Add(1)
	msg := "no eligible backend"
	if lastErr != "" {
		msg = "all backends failed: " + lastErr
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": msg})
}

func (p *Pool) attempt(ctx context.Context, be *backend, r *http.Request, body []byte) (*http.Response, error) {
	u := be.url + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	return p.client.Do(req)
}

// relay copies one backend response to the client.
func relay(w http.ResponseWriter, res *http.Response) error {
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := res.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(res.StatusCode)
	_, err := io.Copy(w, io.LimitReader(res.Body, maxProxyBody))
	return err
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

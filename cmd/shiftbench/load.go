package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Request kinds of the serve-* read mix.
const (
	kindFind = iota
	kindRange
	kindBatch
)

var kindNames = [...]string{"find", "range", "batch"}

// batchKeys is the size of each /v1/batch request.
const batchKeys = 64

// clients is the number of load goroutines, each with its own
// keep-alive connection.
const clients = 2

// reqHeader carries the request id from client to the handler wrapper,
// so a request's client and handler spans share it in the trace.
const reqHeader = "X-Shiftbench-Req"

// request is one planned request and, after it ran, what happened.
// Times are ns since the window start; a failed request has ok false.
type request struct {
	kind    uint8
	ok      bool
	status  int16
	a, b    int32 // pool indexes: find key, range ends, batch offset
	due     int64
	send    int64
	done    int64
	version uint64
	r0, r1  int // find rank, range lo/hi ranks
}

// plan is the open-loop schedule: request i is due at i/rate seconds.
// Batch requests draw their keys from batchIdx[a : a+batchKeys] and
// write their ranks to batchRank at the same offsets.
type plan struct {
	pool      []uint64
	reqs      []request
	batchIdx  []int32
	batchRank []int
}

// newPlan draws the 80/10/10 find/range/batch mix over the pool.
func newPlan(pool []uint64, rate float64, d time.Duration, seed int64) *plan {
	rng := rand.New(rand.NewSource(seed + 13))
	n := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	p := &plan{pool: pool, reqs: make([]request, n)}
	for i := range p.reqs {
		r := &p.reqs[i]
		r.due = int64(i) * int64(interval)
		switch x := rng.Intn(10); {
		case x < 8:
			r.kind, r.a = kindFind, int32(rng.Intn(len(pool)))
		case x < 9:
			r.kind, r.a, r.b = kindRange, int32(rng.Intn(len(pool))), int32(rng.Intn(len(pool)))
			if pool[r.a] > pool[r.b] {
				r.a, r.b = r.b, r.a
			}
		default:
			r.kind, r.a = kindBatch, int32(len(p.batchIdx))
			for range batchKeys {
				p.batchIdx = append(p.batchIdx, int32(rng.Intn(len(pool))))
			}
		}
	}
	p.batchRank = make([]int, len(p.batchIdx))
	return p
}

// loadgen sends a plan over clients keep-alive connections.
type loadgen struct {
	base   string
	client *http.Client
	tp     *http.Transport
	trace  *tracer
}

func newLoadgen(base string, tr *tracer) *loadgen {
	tp := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	return &loadgen{base: base, client: &http.Client{Transport: tp, Timeout: 10 * time.Second}, tp: tp, trace: tr}
}

func (g *loadgen) close() { g.tp.CloseIdleConnections() }

// run sends every request of p at its due time after start; client w
// owns requests i ≡ w (mod clients), and request i carries id idBase+i.
// A client that falls behind sends as soon as it can, and the wait is
// charged to the request's latency, which is measured from the due time.
func (g *loadgen) run(ctx context.Context, p *plan, start time.Time, idBase int64) {
	var wg sync.WaitGroup
	for w := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body bytes.Buffer
			for i := w; i < len(p.reqs); i += clients {
				r := &p.reqs[i]
				if sleepUntil(ctx, start.Add(time.Duration(r.due))) != nil {
					return
				}
				send := time.Now()
				g.do(ctx, p, r, idBase+int64(i), &body)
				done := time.Now()
				r.send, r.done = int64(send.Sub(start)), int64(done.Sub(start))
				g.trace.add(spanClient, spanNone, idBase+int64(i), send, done)
			}
		}()
	}
	wg.Wait()
}

// do sends one request and records its answer in r (and p.batchRank).
func (g *loadgen) do(ctx context.Context, p *plan, r *request, id int64, body *bytes.Buffer) {
	var (
		req *http.Request
		err error
	)
	switch r.kind {
	case kindFind:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			g.base+"/v1/find?key="+strconv.FormatUint(p.pool[r.a], 10), nil)
	case kindRange:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			g.base+"/v1/range?lo="+strconv.FormatUint(p.pool[r.a], 10)+"&hi="+strconv.FormatUint(p.pool[r.b], 10), nil)
	default:
		writeBatchBody(body, p.pool, p.batchIdx[r.a:r.a+batchKeys])
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, g.base+"/v1/batch", bytes.NewReader(body.Bytes()))
	}
	if err != nil {
		return
	}
	if g.trace != nil {
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	r.status = int16(resp.StatusCode)
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return
	}
	var ans struct {
		Rank    int    `json:"rank"`
		LoRank  int    `json:"lo_rank"`
		HiRank  int    `json:"hi_rank"`
		Ranks   []int  `json:"ranks"`
		Version uint64 `json:"version"`
	}
	if r.kind == kindBatch {
		ans.Ranks = p.batchRank[r.a : r.a : r.a+batchKeys]
	}
	if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
		return
	}
	switch r.kind {
	case kindFind:
		r.r0 = ans.Rank
	case kindRange:
		r.r0, r.r1 = ans.LoRank, ans.HiRank
	default:
		if len(ans.Ranks) != batchKeys {
			return
		}
	}
	r.version, r.ok = ans.Version, true
}

// writeBatchBody replaces body with a /v1/batch request for pool[idx[j]].
func writeBatchBody(body *bytes.Buffer, pool []uint64, idx []int32) {
	body.Reset()
	body.WriteString(`{"keys":[`)
	for j, ix := range idx {
		if j > 0 {
			body.WriteByte(',')
		}
		body.WriteByte('"')
		body.WriteString(strconv.FormatUint(pool[ix], 10))
		body.WriteByte('"')
	}
	body.WriteString(`]}`)
}

// latencyUs is r's latency from its due time in µs. A failed or refused
// request counts as lasting the whole run, runUs: every request that
// completed did so inside the run, so a failure sorts at or above all of
// them and misses every latency limit, yet stays a finite number.
func (r *request) latencyUs(runUs float64) float64 {
	if !r.ok {
		return runUs
	}
	return float64(r.done-r.due) / 1e3
}

// sleepUntil waits for t, checking ctx on every iteration and sleeping
// at most 10 ms at a time.
func sleepUntil(ctx context.Context, t time.Time) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		d := time.Until(t)
		if d <= 0 {
			return nil
		}
		sleepFor(min(d, 10*time.Millisecond))
	}
}

// traceHandler wraps h so each request's ServeHTTP is recorded as a
// span under the client's request id.
func traceHandler(tr *tracer) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			h.ServeHTTP(w, r)
			t1 := time.Now()
			id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
			if err != nil {
				id = -1
			}
			tr.add(spanHandler, spanClient, id, t0, t1)
		})
	}
}

// String describes a request for error messages.
func (r *request) String() string {
	return fmt.Sprintf("%s(%d,%d)@v%d", kindNames[r.kind], r.a, r.b, r.version)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"repro/internal/serve"
)

// openShare is the part of a serve-* window given to the open loop over
// loopback; the closed loop over the Handler, which the gated metrics
// come from, takes the rest.
const openShare = 1.0 / 3

// Calls timed together for one sample of the closed loop: 1,024 lookups
// either way.
const (
	segFinds   = 1024
	segBatches = 1024 / batchKeys
)

// oracles computes each served version's reference ranks once, from the
// state captured just before its Publish.
type oracles struct {
	s    *stack
	pool []uint64
	m    map[uint64][]int
}

func newOracles(s *stack, pool []uint64) *oracles {
	return &oracles{s: s, pool: pool, m: map[uint64][]int{}}
}

// ranks returns version v's reference ranks over the pool, or nil when v
// was never published.
func (o *oracles) ranks(v uint64) []int {
	if r, ok := o.m[v]; ok {
		return r
	}
	pub := o.s.publication(v)
	if pub == nil {
		return nil
	}
	r := serve.OracleRanks(pub.st, o.pool)
	o.m[v] = r
	return r
}

// closedLoop is what the closed loop over the Handler measured.
type closedLoop struct {
	find, batch []float64 // ns per lookup, one sample per segment
	calls       int64     // ServeHTTP calls made
	failed      int64     // calls without a 200 and a well-formed answer
	checked     int64     // ranks compared with an oracle
	bad         int64     // ranks that differed
}

// handlerPhase calls h directly, with no socket, in a closed loop on this
// goroutine for d. Segments of /v1/find, walking the pool in order,
// alternate with segments of /v1/batch of batchKeys random pool keys, so
// the two samples see the same moments of a shared host.
func handlerPhase(ctx context.Context, h http.Handler, o *oracles, d time.Duration, seed int64) (*closedLoop, error) {
	cl := &closedLoop{}
	pool := o.pool
	// A fixed cycle of random batches, drawn as the open loop draws them.
	rng := rand.New(rand.NewSource(seed + 17))
	draws := make([]int32, 1<<16)
	for i := range draws {
		draws[i] = int32(rng.Intn(len(pool)))
	}
	find := newTimedCalls(http.MethodGet, "/v1/find", segFinds)
	batch := newTimedCalls(http.MethodPost, "/v1/batch", segBatches)
	fi, bi := 0, 0
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fi = find.prepareFinds(pool, fi)
		busy, err := find.run(h, o.ranks, cl)
		if err != nil {
			return nil, err
		}
		cl.find = append(cl.find, float64(busy)/segFinds)

		for j, req := range batch.reqs {
			batch.keys[j] = draws[bi : bi+batchKeys]
			writeBatchBody(&batch.bodies[j], pool, batch.keys[j])
			req.Body = io.NopCloser(bytes.NewReader(batch.bodies[j].Bytes()))
			req.ContentLength = int64(batch.bodies[j].Len())
			if bi += batchKeys; bi == len(draws) {
				bi = 0
			}
		}
		if busy, err = batch.run(h, o.ranks, cl); err != nil {
			return nil, err
		}
		cl.batch = append(cl.batch, float64(busy)/(segBatches*batchKeys))
	}
	return cl, nil
}

// timedCalls is one sample of the closed loop: calls made back to back with
// only ServeHTTP timed. Requests are prepared before and answers decoded
// and checked after, so the timed calls run with the Handler's code and
// data warm, as under steady load, and the oracle scan for a version the
// replica installs mid-phase stays outside them.
type timedCalls struct {
	reqs   []*http.Request
	bodies []bytes.Buffer // request bodies, for POST
	keys   [][]int32      // the pool indexes each call asks for
	rec    recorder
	out    bytes.Buffer // the answers, back to back
	ends   []int        // where each answer ends in out; -1 for a failed call
}

func newTimedCalls(method, path string, calls int) *timedCalls {
	sg := &timedCalls{
		reqs: make([]*http.Request, calls), bodies: make([]bytes.Buffer, calls),
		keys: make([][]int32, calls), rec: recorder{header: http.Header{}},
	}
	for j := range sg.reqs {
		sg.reqs[j] = httptest.NewRequest(method, path, nil)
	}
	return sg
}

// prepareFinds readies a /v1/find for each of the pool's keys from at on,
// in order and wrapping, and returns where the next segment starts.
func (sg *timedCalls) prepareFinds(pool []uint64, at int) int {
	for j, req := range sg.reqs {
		req.URL.RawQuery = "key=" + strconv.FormatUint(pool[at], 10)
		sg.keys[j] = append(sg.keys[j][:0], int32(at))
		at = (at + 1) % len(pool)
	}
	return at
}

// run makes the prepared calls, checks their answers against the
// reference ranks of the version that served each, and returns the time
// spent inside ServeHTTP.
func (sg *timedCalls) run(h http.Handler, ranks func(version uint64) []int, cl *closedLoop) (time.Duration, error) {
	sg.out.Reset()
	sg.ends = sg.ends[:0]
	var busy time.Duration
	for _, req := range sg.reqs {
		sg.rec.reset()
		t0 := time.Now()
		h.ServeHTTP(&sg.rec, req)
		busy += time.Since(t0)
		end := -1
		if sg.rec.code == http.StatusOK {
			sg.out.Write(sg.rec.body.Bytes())
			end = sg.out.Len()
		}
		sg.ends = append(sg.ends, end)
	}
	cl.calls += int64(len(sg.reqs))

	var ans struct {
		Rank    int    `json:"rank"`
		Ranks   []int  `json:"ranks"`
		Version uint64 `json:"version"`
	}
	rank := []int{0}
	from := 0
	for j, end := range sg.ends {
		if end < 0 {
			cl.failed++
			continue
		}
		ans.Rank, ans.Ranks, ans.Version = -1, ans.Ranks[:0], 0
		err := json.Unmarshal(sg.out.Bytes()[from:end], &ans)
		from = end
		got := ans.Ranks
		if len(sg.keys[j]) == 1 {
			rank[0] = ans.Rank
			got = rank
		}
		if err != nil || len(got) != len(sg.keys[j]) {
			cl.failed++
			continue
		}
		if err := cl.check(ranks(ans.Version), ans.Version, sg.keys[j], got); err != nil {
			return 0, err
		}
	}
	return busy, nil
}

// recorder is a reusable http.ResponseWriter, the closed loop's stand-in
// for a connection. Unlike httptest.ResponseRecorder it allocates nothing
// per call, so the collector's work during the timed calls is the
// Handler's own.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *recorder) Header() http.Header { return w.header }

func (w *recorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *recorder) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

func (w *recorder) reset() {
	clear(w.header)
	w.code = 0
	w.body.Reset()
}

// check compares got[j], the rank of pool[keys[j]], with want, version
// v's reference ranks.
func (cl *closedLoop) check(want []int, v uint64, keys []int32, got []int) error {
	if want == nil {
		return fmt.Errorf("a Handler answer names version %d, which was never published", v)
	}
	for j, r := range got {
		cl.checked++
		if r != want[keys[j]] {
			cl.bad++
		}
	}
	return nil
}

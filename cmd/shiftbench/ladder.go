package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"strconv"
	"time"

	"repro/internal/concurrent"
	"repro/internal/kv"
	"repro/internal/serve"
	"repro/internal/updatable"
)

// rowTime is how long each ladder row measures.
const rowTime = 300 * time.Millisecond

// ladder times adjacent public calls on the same queries, outermost layer
// last, so a layer's self time is the difference between neighbouring
// rows. want holds the ranks of pool over keys; ws are pending writes for
// the generation row (8,192 derived writes when the workload has none).
// Every row checks its answers.
func ladder(ctx context.Context, keys []uint64, ws []write, pool []uint64, want []int, seed int64, m metricSet) error {
	bad, err := coreRows(keys, pool, want, m)
	if err != nil {
		return err
	}
	release()

	out := make([]int, 0, lane)
	check := func(got []int, at int) int { return mismatches(got, want[at:]) }
	ix, err := concurrent.New(keys, concurrent.Config{})
	if err != nil {
		return err
	}
	defer ix.Close()
	gen0, b := timeRow(len(pool), lane, func(at, w int) int {
		out, _ = ix.FindBatchTagged(pool[at:at+w], out[:0])
		return check(out, at)
	})
	m.put("concurrent.find_batch_ns", gen0)
	bad += b
	ns, b := timeRow(len(pool), 1, func(at, w int) int {
		out, _ = ix.FindBatchTagged(pool[at:at+w], out[:0])
		return check(out, at)
	})
	m.put("concurrent.find1_ns", ns)
	bad += b

	co := serve.NewCoalescer(ix, serve.CoalescerConfig{})
	defer co.Close()
	ns, b = timeRow(len(pool), 1, func(at, w int) int {
		r, _, err := co.Find(ctx, pool[at])
		if err != nil || r != want[at] {
			return 1
		}
		return 0
	})
	m.put("serve.coalescer_find_ns", ns)
	bad += b

	h := serve.NewHandler(ix, co, serve.HandlerConfig{Coalesce: true}, nil)
	ns, b, err = handlerRow(h, pool, want)
	if err != nil {
		return err
	}
	m.put("serve.handler_find_ns", ns)
	bad += b
	us, b, err := rttRow(ctx, h, pool, want)
	if err != nil {
		return err
	}
	m.put("http.rtt_us", us)
	bad += b

	if len(ws) == 0 {
		ws = makeWrites(keys, 8192, seed)
	}
	if err := applyWrites(ix, ws, nil, nil); err != nil {
		return err
	}
	want = shiftRanks(want, pool, ws)
	gens := ix.Published().Gens()
	gen8, b := timeRow(len(pool), lane, func(at, w int) int {
		out, _ = ix.FindBatchTagged(pool[at:at+w], out[:0])
		return check(out, at)
	})
	// A compaction that folded the writes in leaves no generation to
	// charge; the row then reads 0, like a layer the workload skips.
	if gens > 0 {
		m.put("concurrent.gen_ns", (gen8-gen0)/float64(gens))
	}
	bad += b
	if bad > 0 {
		return fmt.Errorf("ladder: %d incorrect answers", bad)
	}
	return nil
}

// coreRows times the rows below the concurrent layer on a fresh
// updatable index, which has no tombstones or inserts, so its base
// positions are the ranks. The index is garbage once it returns.
func coreRows(keys, pool []uint64, want []int, m metricSet) (int, error) {
	u, err := updatable.New(keys, updatable.Config{})
	if err != nil {
		return 0, err
	}
	v := u.View()
	t := v.Table()
	out := make([]int, 0, lane)
	ns, bad := timeRow(len(pool), 1, func(at, w int) int {
		if t.Find(pool[at]) != want[at] {
			return 1
		}
		return 0
	})
	m.put("core.find_ns", ns)
	ns, b := timeRow(len(pool), lane, func(at, w int) int {
		out = t.FindBatch(pool[at:at+w], out[:0])
		return mismatches(out, want[at:])
	})
	m.put("core.find_batch_ns", ns)
	bad += b
	ns, b = timeRow(len(pool), lane, func(at, w int) int {
		out = v.FindBatch(pool[at:at+w], out[:0])
		return mismatches(out, want[at:])
	})
	m.put("updatable.find_batch_ns", ns)
	bad += b
	var log2 float64
	for _, q := range pool {
		lo, hi := t.Window(q)
		log2 += math.Log2(float64(max(hi-lo+1, 1)))
	}
	m.put("core.window_log2", log2/float64(len(pool)))
	return bad, nil
}

// mismatches counts the positions where got differs from want.
func mismatches(got, want []int) int {
	bad := 0
	for i, r := range got {
		if r != want[i] {
			bad++
		}
	}
	return bad
}

// shiftRanks returns want moved by the writes: each insert below q adds
// one, each delete below q removes one.
func shiftRanks(want []int, pool []uint64, ws []write) []int {
	var ins, dels []uint64
	for _, w := range ws {
		if w.delete {
			dels = append(dels, w.key)
		} else {
			ins = append(ins, w.key)
		}
	}
	slices.Sort(ins)
	slices.Sort(dels)
	out := make([]int, len(want))
	for i, q := range pool {
		out[i] = want[i] + kv.LowerBound(ins, q) - kv.LowerBound(dels, q)
	}
	return out
}

// timeRow calls fn over the pool, w lookups at a time, for rowTime after
// one warm pass over its head, and returns ns per lookup and the number
// of wrong answers fn counted.
func timeRow(n, w int, fn func(at, w int) int) (float64, int) {
	for at := 0; at+w <= min(n, 1<<16); at += w {
		fn(at, w)
	}
	bad, done, at := 0, 0, 0
	t0 := time.Now()
	for deadline := t0.Add(rowTime); time.Now().Before(deadline); {
		for j := 0; j < 4096; j += w {
			if at+w > n {
				at = 0
			}
			bad += fn(at, w)
			at += w
			done += w
		}
	}
	return float64(time.Since(t0)) / float64(done), bad
}

// handlerRow times Handler.ServeHTTP alone on /v1/find with no socket,
// as the serve workloads' closed loop does, in ns per request.
func handlerRow(h http.Handler, pool []uint64, want []int) (float64, int, error) {
	tc := newTimedCalls(http.MethodGet, "/v1/find", segFinds)
	cl := &closedLoop{}
	ranks := func(uint64) []int { return want }
	var busy time.Duration
	at := 0
	for deadline := time.Now().Add(rowTime); time.Now().Before(deadline); {
		at = tc.prepareFinds(pool, at)
		b, err := tc.run(h, ranks, cl)
		if err != nil {
			return 0, 0, err
		}
		busy += b
	}
	return float64(busy) / float64(cl.calls), int(cl.failed + cl.bad), nil
}

// rttRow serves h on a loopback listener and times a closed loop of
// /v1/find over one keep-alive connection, in µs per request.
func rttRow(ctx context.Context, h http.Handler, pool []uint64, want []int) (float64, int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	sctx, cancel := context.WithCancel(ctx)
	srvDone := make(chan error, 1)
	go func() {
		srvDone <- serve.RunListener(sctx, serve.NewHTTPServer("", h, serve.ServerConfig{}), ln, time.Second, nil)
	}()
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	client := &http.Client{Transport: tp, Timeout: 10 * time.Second}
	base := "http://" + ln.Addr().String() + "/v1/find?key="
	bad, done := 0, 0
	t0 := time.Now()
	for deadline := t0.Add(rowTime); time.Now().Before(deadline); done++ {
		i := done % len(pool)
		resp, err := client.Get(base + strconv.FormatUint(pool[i], 10))
		if err != nil {
			bad++
			continue
		}
		r, err := decodeRank(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || r != want[i] {
			bad++
		}
	}
	us := float64(time.Since(t0)) / float64(time.Microsecond) / float64(done)
	tp.CloseIdleConnections()
	cancel()
	return us, bad, <-srvDone
}

// decodeRank reads a /v1/find answer's rank.
func decodeRank(r io.Reader) (int, error) {
	var fr struct {
		Rank int `json:"rank"`
	}
	err := json.NewDecoder(r).Decode(&fr)
	return fr.Rank, err
}

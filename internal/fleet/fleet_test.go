package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/replica"
	"repro/internal/serve"
)

// testBackend is one fleet member: a replica over a shared store, a
// serve.Handler with admin enabled, and an httptest server. "Upgrading"
// it swaps the replica for a fresh one over the same local dir — the
// state transition a binary rollout performs (old process exits, new
// process warm-restarts and resyncs).
type testBackend struct {
	t     *testing.T
	store replica.Store
	dir   string

	mu  sync.Mutex
	rep *replica.Replica[uint64]

	handler atomic.Pointer[serve.Handler[uint64]]
	srv     *httptest.Server
}

var testRetry = replica.RetryPolicy{
	Attempts: 4,
	Base:     time.Millisecond,
	Max:      5 * time.Millisecond,
	Timeout:  2 * time.Second,
}

func newTestBackend(t *testing.T, store replica.Store) *testBackend {
	t.Helper()
	b := &testBackend{t: t, store: store, dir: t.TempDir()}
	if err := b.install(); err != nil {
		t.Fatal(err)
	}
	b.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.handler.Load().ServeHTTP(w, r)
	}))
	t.Cleanup(b.srv.Close)
	t.Cleanup(func() { b.current().Close() })
	return b
}

// install replaces the backend's replica with a fresh one over the same
// dir, syncs it once, and swaps in a new handler over its index.
func (b *testBackend) install() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rep != nil {
		b.rep.Close()
	}
	rep, err := replica.NewReplica[uint64](b.store, b.dir, replica.ReplicaConfig{Retry: testRetry})
	if err != nil {
		return err
	}
	if err := rep.Sync(context.Background()); err != nil {
		rep.Close()
		return err
	}
	b.rep = rep
	h := serve.NewHandler(rep.Index(), nil, serve.HandlerConfig{
		Admin: true,
		Ready: func() bool { return rep.Index().Tag() != 0 },
	}, nil)
	b.handler.Store(h)
	return nil
}

func (b *testBackend) current() *replica.Replica[uint64] {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rep
}

// startSyncLoop keeps the backend's current replica converging until
// the returned stop function runs.
func (b *testBackend) startSyncLoop(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(interval):
			}
			_ = b.current().Sync(context.Background())
		}
	}()
	return func() { close(done); wg.Wait() }
}

type findResponse struct {
	Rank    int    `json:"rank"`
	Version uint64 `json:"version"`
}

// oracleBook maps published versions to reference ranks for the shared
// query pool. Record happens on the primary BEFORE each publish, so no
// served version can lack its oracle.
type oracleBook struct {
	mu    sync.Mutex
	pool  []uint64
	ranks map[uint64][]int
}

func newOracleBook(pool []uint64) *oracleBook {
	return &oracleBook{pool: pool, ranks: map[uint64][]int{}}
}

func (o *oracleBook) record(version uint64, st *concurrent.PublishedState[uint64]) {
	ranks := serve.OracleRanks(st, o.pool)
	o.mu.Lock()
	o.ranks[version] = ranks
	o.mu.Unlock()
}

func (o *oracleBook) check(version uint64, slot, rank int) error {
	o.mu.Lock()
	ranks, ok := o.ranks[version]
	o.mu.Unlock()
	if !ok {
		return fmt.Errorf("answer tagged unpublished version %d", version)
	}
	if ranks[slot] != rank {
		return fmt.Errorf("version %d slot %d: rank %d, oracle says %d", version, slot, rank, ranks[slot])
	}
	return nil
}

// TestRollingUpgradeZeroDrop is the fleet-level acceptance test: a
// 3-backend fleet is rolled, one backend at a time, onto reinstalled
// replicas — a binary rollout — while the publisher ships a delta before
// the roll and a full after it, and an open-loop client keeps querying
// the pool. Invariants: zero dropped requests (no non-200 from the
// pool), every (rank, version) answer oracle-verified, zero sync
// failures left on any backend, and the fleet ends fully eligible.
func TestRollingUpgradeZeroDrop(t *testing.T) {
	ctx := context.Background()
	store := replica.DirStore{Dir: t.TempDir()}

	keys := make([]uint64, 4000)
	for i := range keys {
		keys[i] = uint64(i+1) * 97
	}
	slices.Sort(keys)
	primary, err := concurrent.New(keys, concurrent.Config{})
	if err != nil {
		t.Fatal(err)
	}
	primary.Close() // no background compaction: explicit Compact calls only

	pool := serve.QueryPool(42, 64, 600_000)
	book := newOracleBook(pool)

	pub, err := replica.NewPublisher(ctx, store, primary, replica.PublisherConfig{Spool: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	book.record(1, primary.Published())
	if _, _, err := pub.Publish(ctx); err != nil {
		t.Fatal(err)
	}

	// Three backends, each syncing in the background.
	var backends []*testBackend
	var urls []string
	for i := 0; i < 3; i++ {
		b := newTestBackend(t, store)
		defer b.startSyncLoop(20 * time.Millisecond)()
		backends = append(backends, b)
		urls = append(urls, b.srv.URL)
	}

	fp, err := NewPool(urls, PoolConfig{Probe: 10 * time.Millisecond, FailAfter: 2, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()
	front := httptest.NewServer(fp)
	defer front.Close()

	waitFleetReady(t, fp, 3, 5*time.Second)

	// Open-loop load against the fleet for the whole upgrade.
	var (
		stopLoad  = make(chan struct{})
		loadWG    sync.WaitGroup
		served    atomic.Uint64
		dropped   atomic.Uint64
		wrongs    atomic.Uint64
		loadErrMu sync.Mutex
		loadErrs  []string
	)
	noteErr := func(s string) {
		loadErrMu.Lock()
		if len(loadErrs) < 10 {
			loadErrs = append(loadErrs, s)
		}
		loadErrMu.Unlock()
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for w := 0; w < 2; w++ {
		loadWG.Add(1)
		go func(worker int) {
			defer loadWG.Done()
			slot := worker
			for {
				select {
				case <-stopLoad:
					return
				default:
				}
				slot = (slot + 1) % len(pool)
				res, err := client.Get(fmt.Sprintf("%s/v1/find?key=%d", front.URL, pool[slot]))
				if err != nil {
					dropped.Add(1)
					noteErr(err.Error())
					continue
				}
				body, _ := io.ReadAll(io.LimitReader(res.Body, 1<<16))
				res.Body.Close()
				if res.StatusCode != http.StatusOK {
					dropped.Add(1)
					noteErr(fmt.Sprintf("status %d: %s", res.StatusCode, body))
					continue
				}
				var fr findResponse
				if err := json.Unmarshal(body, &fr); err != nil {
					wrongs.Add(1)
					noteErr(err.Error())
					continue
				}
				if err := book.check(fr.Version, slot, fr.Rank); err != nil {
					wrongs.Add(1)
					noteErr(err.Error())
					continue
				}
				served.Add(1)
			}
		}(w)
	}

	// Before the roll: writes ship as a delta every backend applies.
	for i := 0; i < 500; i++ {
		primary.Insert(uint64(i)*13 + 6)
	}
	book.record(2, primary.Published())
	if v, full, err := pub.Publish(ctx); err != nil || full || v != 2 {
		t.Fatalf("delta publish: v=%d full=%v err=%v", v, full, err)
	}

	// Roll the fleet the way an operator does, and as CI's real-process
	// fleet smoke does: drain a backend, wait until the pool's probes take
	// it out of rotation, reinstall it (a new process warm-restarting over
	// the same dir and resyncing), undrain, wait until the pool readmits
	// it, and verify its answers directly before the next backend goes.
	for i, b := range backends {
		postAdmin(t, client, b.srv.URL, "drain")
		waitEligible(t, fp, i, false, 5*time.Second)
		if err := b.install(); err != nil {
			t.Fatalf("backend %d: reinstall: %v", i, err)
		}
		postAdmin(t, client, b.srv.URL, "undrain")
		waitEligible(t, fp, i, true, 10*time.Second)
		for slot, q := range pool {
			res, err := client.Get(fmt.Sprintf("%s/v1/find?key=%d", b.srv.URL, q))
			if err != nil {
				t.Fatalf("backend %d: verify: %v", i, err)
			}
			var fr findResponse
			err = json.NewDecoder(res.Body).Decode(&fr)
			res.Body.Close()
			if err == nil {
				err = book.check(fr.Version, slot, fr.Rank)
			}
			if err != nil {
				t.Fatalf("backend %d: verify: %v", i, err)
			}
		}
	}

	// After the roll: a compaction, so the next publish is a full every
	// (now reinstalled) backend must follow.
	for i := 0; i < 400; i++ {
		primary.Insert(uint64(i)*29 + 17)
	}
	if err := primary.Compact(); err != nil {
		t.Fatal(err)
	}
	book.record(3, primary.Published())
	if v, full, err := pub.Publish(ctx); err != nil || !full || v != 3 {
		t.Fatalf("full publish: v=%d full=%v err=%v", v, full, err)
	}

	// Let the fleet converge on version 3 under load.
	deadline := time.Now().Add(10 * time.Second)
	for {
		all := true
		for _, b := range backends {
			if b.current().Status().Version != 3 {
				all = false
			}
		}
		if all || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	close(stopLoad)
	loadWG.Wait()

	if dropped.Load() != 0 || wrongs.Load() != 0 {
		t.Fatalf("load saw %d dropped, %d wrong of %d served; first errors: %v",
			dropped.Load(), wrongs.Load(), served.Load(), loadErrs)
	}
	if served.Load() == 0 {
		t.Fatal("load generator served nothing; the test proved nothing")
	}
	if fp.Failures() != 0 {
		t.Fatalf("pool recorded %d unanswerable requests", fp.Failures())
	}
	for i, b := range backends {
		st := b.current().Status()
		if st.Version != 3 || st.LastErr != nil {
			t.Fatalf("backend %d did not converge cleanly: %+v", i, st)
		}
	}
	if n := fp.eligibleCount(); n != 3 {
		t.Fatalf("fleet ends with %d eligible backends, want 3", n)
	}
	t.Logf("served %d requests across the rolling upgrade, %d failover retries", served.Load(), fp.Retries())
}

// waitFleetReady blocks until the pool reports want eligible backends.
func waitFleetReady(t testing.TB, p *Pool, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if p.eligibleCount() >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet stuck at %d eligible backends, want %d: %+v", p.eligibleCount(), want, p.Backends())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitEligible blocks until the pool's verdict on backend i is want.
func waitEligible(t testing.TB, p *Pool, i int, want bool, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for p.bes[i].eligible() != want {
		if time.Now().After(deadline) {
			t.Fatalf("backend %d still eligible=%v after %v: %+v", i, !want, timeout, p.Backends()[i])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// postAdmin pulls one of a backend's /admin levers.
func postAdmin(t testing.TB, c *http.Client, url, verb string) {
	t.Helper()
	res, err := c.Post(url+"/admin/"+verb, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("POST %s/admin/%s: status %d", url, verb, res.StatusCode)
	}
}

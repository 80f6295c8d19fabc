package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/concurrent"
)

func newPrimary(t testing.TB, n int) *concurrent.Index[uint64] {
	t.Helper()
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)*7 + 1
	}
	ix, err := concurrent.New(keys, concurrent.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close() // no background compaction: explicit Compact calls only
	return ix
}

// installOp is one pre-built snapshot install: a full state, or a delta
// over the identical loaded base state object (InstallDelta correlates
// views by identity, exactly as the replica does).
type installOp struct {
	tag  uint64
	st   *concurrent.State[uint64]
	d    *concurrent.Delta[uint64]
	base *concurrent.State[uint64]
}

// prepareVersions builds a version history off the primary: full states
// at v1 and after every compaction, generation deltas in between, plus
// the scan-derived oracle ranks for every version.
func prepareVersions(t testing.TB, primary *concurrent.Index[uint64], versions int, pool []uint64) ([]installOp, map[uint64][]int) {
	t.Helper()
	dir := t.TempDir()
	oracles := make(map[uint64][]int)
	var ops []installOp

	var base *concurrent.State[uint64]
	var baseVer uint64
	saveFull := func(v uint64) {
		path := filepath.Join(dir, fmt.Sprintf("full-%d", v))
		if err := concurrent.SaveStateFile(path, primary.Published()); err != nil {
			t.Fatal(err)
		}
		st, err := concurrent.LoadStateFile[uint64](path)
		if err != nil {
			t.Fatal(err)
		}
		base, baseVer = st, v
		ops = append(ops, installOp{tag: v, st: st})
	}

	oracles[1] = OracleRanks(primary.Published(), pool)
	saveFull(1)
	rnd := rand.New(rand.NewSource(31))
	for v := uint64(2); v <= uint64(versions); v++ {
		for i := 0; i < 400; i++ {
			if i%5 == 0 {
				primary.Delete(uint64(rnd.Intn(50_000))*7 + 1)
			} else {
				primary.Insert(rnd.Uint64() % 400_000)
			}
		}
		if v%4 == 0 {
			if err := primary.Compact(); err != nil {
				t.Fatal(err)
			}
			oracles[v] = OracleRanks(primary.Published(), pool)
			saveFull(v)
			continue
		}
		oracles[v] = OracleRanks(primary.Published(), pool)
		path := filepath.Join(dir, fmt.Sprintf("delta-%d", v))
		info := concurrent.DeltaInfo{Version: v, Base: baseVer}
		if err := concurrent.SaveDeltaFile(path, primary.Published(), info); err != nil {
			t.Fatal(err)
		}
		d, err := concurrent.LoadDeltaFile[uint64](path)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, installOp{tag: v, d: d, base: base})
	}
	return ops, oracles
}

// TestCoalescerMatchesScalarFind: on a quiescent index every coalesced
// answer is bit-identical to the scalar Find path, and the tag matches
// the installed version. Across the installs, the scalar FindTagged (the
// coalescer's one-caller fast path and direct-mode find) agrees with a
// one-lane FindBatchTagged on rank and tag.
func TestCoalescerMatchesScalarFind(t *testing.T) {
	primary := newPrimary(t, 60_000)
	pool := QueryPool(7, 512, 500_000)
	ops, _ := prepareVersions(t, primary, 6, pool)

	serving, err := concurrent.New[uint64](nil, concurrent.Config{})
	if err != nil {
		t.Fatal(err)
	}
	serving.Close() // no background compaction: explicit Compact calls only

	co := NewCoalescer(serving, CoalescerConfig{})
	defer co.Close()
	ctx := context.Background()

	// While versions install: a FindTagged bracketed by two one-lane
	// FindBatchTagged calls that name the same version read that version's
	// snapshot too (tags only grow), so all three ranks must agree.
	stop := make(chan struct{})
	var compared atomic.Int64
	var checker sync.WaitGroup
	checker.Add(1)
	go func() {
		defer checker.Done()
		var (
			out           []int
			before, after uint64
		)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			q := pool[i%len(pool)]
			out, before = serving.FindBatchTagged([]uint64{q}, out[:0])
			rank, tag := serving.FindTagged(q)
			want := out[0]
			out, after = serving.FindBatchTagged([]uint64{q}, out[:0])
			if tag < before || tag > after {
				t.Errorf("FindTagged(%d) tag %d outside the bracketing batch tags [%d, %d]", q, tag, before, after)
				return
			}
			if before == after {
				compared.Add(1)
				if rank != want || out[0] != want {
					t.Errorf("v%d: FindTagged(%d) = %d, one-lane FindBatchTagged = %d then %d", tag, q, rank, want, out[0])
					return
				}
			}
		}
	}()

	for _, op := range ops {
		if op.st != nil {
			err = serving.InstallState(op.st, op.tag)
		} else {
			err = serving.InstallDelta(op.base, op.d, op.tag)
		}
		if err != nil {
			t.Fatalf("install v%d: %v", op.tag, err)
		}
		// Concurrent clients so waves actually form; quiescent installs
		// so scalar Find is a stable oracle.
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(pool); i += 8 {
					rank, tag, err := co.Find(ctx, pool[i])
					if err != nil {
						t.Errorf("find(%d): %v", pool[i], err)
						return
					}
					if tag != op.tag {
						t.Errorf("find(%d): tag %d, installed %d", pool[i], tag, op.tag)
						return
					}
					if want := serving.Find(pool[i]); rank != want {
						t.Errorf("v%d find(%d) = %d, scalar Find = %d", op.tag, pool[i], rank, want)
						return
					}
					if r, tg := serving.FindTagged(pool[i]); r != rank || tg != tag {
						t.Errorf("v%d FindTagged(%d) = (%d, v%d), coalesced (%d, v%d)", op.tag, pool[i], r, tg, rank, tag)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
	// No install follows the last one, so the checker's next iteration is
	// bracketed by one version: wait for it before stopping the checker,
	// which nothing else makes run before stop closes.
	for deadline := time.Now().Add(10 * time.Second); compared.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	checker.Wait()
	if compared.Load() == 0 {
		t.Error("no FindTagged call was bracketed by one version")
	}
	if st := co.Stats(); st.Waves == 0 || st.Batched < st.Waves {
		t.Fatalf("implausible stats: %+v", st)
	}
}

// TestCoalescerStorm is the live-install race: N client goroutines
// hammer coalesced finds (with direct tagged-batch clients cross-checking)
// while fulls and deltas install under them. Every (rank, tag) pair —
// whichever side of a swap it lands on — must match the version's
// scan-derived oracle. Run under -race in CI.
func TestCoalescerStorm(t *testing.T) {
	primary := newPrimary(t, 50_000)
	pool := QueryPool(11, 384, 400_000)
	ops, oracles := prepareVersions(t, primary, 12, pool)

	serving, err := concurrent.New[uint64](nil, concurrent.Config{})
	if err != nil {
		t.Fatal(err)
	}
	serving.Close() // no background compaction: explicit Compact calls only
	// Install v1 before clients start so tag 0 (no oracle) never serves.
	if err := serving.InstallState(ops[0].st, ops[0].tag); err != nil {
		t.Fatal(err)
	}

	co := NewCoalescer(serving, CoalescerConfig{Queue: 4096})
	defer co.Close()
	ctx := context.Background()

	var done atomic.Bool
	var served, crossChecked atomic.Uint64
	var wg sync.WaitGroup
	clients := 8
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w) * 101))
			for !done.Load() {
				idx := rnd.Intn(len(pool))
				rank, tag, err := co.Find(ctx, pool[idx])
				if err != nil {
					if errors.Is(err, ErrOverloaded) {
						continue
					}
					t.Errorf("client %d: %v", w, err)
					return
				}
				want, ok := oracles[tag]
				if !ok {
					t.Errorf("client %d: answer at unexplained version %d", w, tag)
					return
				}
				if rank != want[idx] {
					t.Errorf("client %d: find(%d)@v%d = %d, oracle %d", w, pool[idx], tag, rank, want[idx])
					return
				}
				served.Add(1)
			}
		}(w)
	}
	// One direct tagged-batch client: coalesced and uncoalesced paths
	// must agree with the same oracle under the same installs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rnd := rand.New(rand.NewSource(997))
		out := make([]int, 0, 32)
		for !done.Load() {
			a := rnd.Intn(len(pool) - 32)
			qs := pool[a : a+32]
			var tag uint64
			out, tag = serving.FindBatchTagged(qs, out[:0])
			want, ok := oracles[tag]
			if !ok {
				t.Errorf("batch client: unexplained version %d", tag)
				return
			}
			for i := range qs {
				if out[i] != want[a+i] {
					t.Errorf("batch client: find(%d)@v%d = %d, oracle %d", qs[i], tag, out[i], want[a+i])
					return
				}
			}
			crossChecked.Add(1)
		}
	}()

	for _, op := range ops[1:] {
		time.Sleep(20 * time.Millisecond)
		if op.st != nil {
			err = serving.InstallState(op.st, op.tag)
		} else {
			err = serving.InstallDelta(op.base, op.d, op.tag)
		}
		if err != nil {
			t.Fatalf("install v%d: %v", op.tag, err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	done.Store(true)
	wg.Wait()

	if served.Load() == 0 || crossChecked.Load() == 0 {
		t.Fatalf("storm served nothing (coalesced %d, batch %d)", served.Load(), crossChecked.Load())
	}
	st := co.Stats()
	t.Logf("storm: %d coalesced answers in %d waves (mean %.1f, max %d), %d batch cross-checks",
		st.Requests, st.Waves, float64(st.Batched)/float64(st.Waves), st.MaxWave, crossChecked.Load())
}

// TestCoalescerAdmission: a full queue rejects with ErrOverloaded, a
// closed coalescer with ErrDraining, and queued work admitted before
// Close is still answered correctly.
func TestCoalescerAdmission(t *testing.T) {
	primary := newPrimary(t, 10_000)
	co := NewCoalescer(primary, CoalescerConfig{Queue: 2})
	ctx := context.Background()

	// White-box: pin the combiner lock (as if another request were mid-
	// wave) and stuff the queue so the next admission overflows.
	co.combine.Lock()
	ch1, ch2 := make(chan cres, 1), make(chan cres, 1)
	co.reqs <- creq[uint64]{key: 1, done: ch1}
	co.reqs <- creq[uint64]{key: 8, done: ch2}
	if _, _, err := co.Find(ctx, 15); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue: err = %v, want ErrOverloaded", err)
	}
	if st := co.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	co.combine.Unlock()

	// Close must answer the two stuffed requests (graceful drain
	// finishes admitted work) and then refuse new ones.
	co.Close()
	r1, r2 := <-ch1, <-ch2
	if want := primary.Find(1); r1.rank != want {
		t.Errorf("drained find(1) = %d, want %d", r1.rank, want)
	}
	if want := primary.Find(8); r2.rank != want {
		t.Errorf("drained find(8) = %d, want %d", r2.rank, want)
	}
	if _, _, err := co.Find(ctx, 1); !errors.Is(err, ErrDraining) {
		t.Fatalf("closed: err = %v, want ErrDraining", err)
	}
	co.Close() // idempotent
}

// TestCoalescerContextCancel: a cancelled waiter returns promptly and
// later waves still work.
func TestCoalescerContextCancel(t *testing.T) {
	primary := newPrimary(t, 10_000)
	co := NewCoalescer(primary, CoalescerConfig{})
	defer co.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The request may win the combiner lock and answer itself before
	// noticing the cancel — both outcomes are legal; what matters is it
	// returns and the coalescer stays usable.
	_, _, _ = co.Find(ctx, 5)

	rank, _, err := co.Find(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := primary.Find(5); rank != want {
		t.Fatalf("find(5) = %d, want %d", rank, want)
	}
}

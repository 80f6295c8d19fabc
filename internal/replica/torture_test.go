package replica

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/concurrent"
)

// Torture harness: a replica killed and restarted mid-fetch at
// randomized points must converge to the latest version with zero
// corrupt or partial reads served. Two layers:
//
//   - TestTortureInProcess: cancellations, replica restarts over the
//     same local dir, and injected stream faults, all in-process with
//     concurrent reader goroutines asserting every (results, tag) pair
//     against the oracle. This is what the CI -race torture job hammers.
//   - TestTortureKillRestart: the real thing — a child process running
//     the sync/serve loop is SIGKILLed at random delays ≥ 25 times and
//     restarted over the same dirs; every query result it ever logged
//     is checked against the parent's oracle.

// tortureQueries is the fixed query set both processes derive
// identically.
func tortureQueries() []uint64 {
	rnd := rand.New(rand.NewSource(42))
	qs := make([]uint64, 48)
	for i := range qs {
		qs[i] = rnd.Uint64() % 600_000
	}
	return qs
}

// hashRanks folds a result vector for compact logging/comparison.
func hashRanks(ranks []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range ranks {
		binary.LittleEndian.PutUint64(b[:], uint64(r))
		h.Write(b[:])
	}
	return h.Sum64()
}

// oracle maps version → expected result hash for tortureQueries.
type oracle struct {
	mu sync.Mutex
	m  map[uint64]uint64
}

func (o *oracle) put(v, h uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.m[v] = h
}

func (o *oracle) get(v uint64) (uint64, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	h, ok := o.m[v]
	return h, ok
}

// torturePrimary builds the primary and a publish function that records
// the oracle entry for each version before it becomes fetchable.
func torturePrimary(t testing.TB, store Store, orc *oracle) (*concurrent.Index[uint64], func(ctx context.Context, round int)) {
	keys := make([]uint64, 30_000)
	for i := range keys {
		keys[i] = uint64(i) * 17
	}
	primary, err := concurrent.New(keys, concurrent.Config{})
	if err != nil {
		t.Fatal(err)
	}
	primary.Close() // no background compaction: explicit Compact calls only
	pub, err := NewPublisher(context.Background(), store, primary, PublisherConfig{Spool: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	qs := tortureQueries()
	publish := func(ctx context.Context, round int) {
		rnd := rand.New(rand.NewSource(int64(round) * 31))
		for i := 0; i < 500; i++ {
			primary.Insert(rnd.Uint64() % 600_000)
		}
		for i := 0; i < 120; i++ {
			primary.Delete(uint64(rnd.Intn(30_000)) * 17)
		}
		if round%6 == 5 {
			if err := primary.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
		// Oracle first: the version must be explained before any replica
		// can fetch it.
		st := primary.Published()
		orc.put(pub.Version()+1, hashRanks(expectRanks(st, qs)))
		if _, _, err := pub.Publish(ctx); err != nil {
			t.Errorf("publish round %d: %v", round, err)
		}
	}
	// Version 1 (no writes yet).
	st := primary.Published()
	orc.put(1, hashRanks(expectRanks(st, qs)))
	if _, _, err := pub.Publish(context.Background()); err != nil {
		t.Fatal(err)
	}
	return primary, publish
}

func TestTortureInProcess(t *testing.T) {
	ctx := context.Background()
	orc := &oracle{m: map[uint64]uint64{}}
	fs := NewFaultStore(DirStore{Dir: t.TempDir()})
	_, publish := torturePrimary(t, fs, orc)
	replicaDir := t.TempDir()
	qs := tortureQueries()

	newRep := func() *Replica[uint64] {
		r, err := NewReplica[uint64](fs, replicaDir, ReplicaConfig{Retry: RetryPolicy{
			Attempts: 3, Base: time.Millisecond, Max: 4 * time.Millisecond, Timeout: 150 * time.Millisecond,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	var cur atomic.Pointer[Replica[uint64]]
	cur.Store(newRep())
	defer func() { cur.Load().Close() }()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Readers: every answered batch must match the oracle for its tag.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out []int
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, tag := cur.Load().Index().FindBatchTagged(qs, out)
				out = res
				if tag == 0 {
					continue // not yet installed anything
				}
				want, ok := orc.get(tag)
				if !ok {
					t.Errorf("served tag %d was never published", tag)
					return
				}
				if got := hashRanks(res); got != want {
					t.Errorf("version %d served wrong results: hash %x, oracle %x", tag, got, want)
					return
				}
			}
		}()
	}

	// Chaos: publish, sync under random cancellation, random faults,
	// random replica restarts over the same dir.
	rnd := rand.New(rand.NewSource(1234))
	for round := 0; round < 40 && !t.Failed(); round++ {
		publish(ctx, round)
		if rnd.Intn(3) == 0 {
			fs.Inject(Fault{Kind: FaultKind(rnd.Intn(5)), Offset: int64(rnd.Intn(4000)), Count: 1, Delay: time.Hour})
		}
		sctx, cancel := context.WithTimeout(ctx, time.Duration(rnd.Intn(12)+1)*time.Millisecond)
		_ = cur.Load().Sync(sctx) // mid-fetch aborts are the point
		cancel()
		if rnd.Intn(4) == 0 {
			// "Kill" and restart: the replaced replica warm-restarts from
			// whatever the aborted one left behind on disk.
			old := cur.Load()
			cur.Store(newRep())
			old.Close()
		}
	}
	// Converge: no more chaos.
	fs.Clear()
	if err := cur.Load().Sync(ctx); err != nil {
		t.Fatalf("final sync: %v", err)
	}
	close(stop)
	wg.Wait()
	st := cur.Load().Status()
	if st.Version == 0 || st.Stale {
		t.Fatalf("did not converge: %+v", st)
	}
}

// Environment keys for the child process.
const (
	envTortureChild = "SHIFT_REPLICA_TORTURE_CHILD"
	envTortureStore = "SHIFT_REPLICA_TORTURE_STORE"
	envTortureDir   = "SHIFT_REPLICA_TORTURE_DIR"
	envTortureLog   = "SHIFT_REPLICA_TORTURE_LOG"
)

// TestTortureChild is the subprocess body: sync continuously, query
// continuously, append every answered (version, result-hash) pair to
// the log with one O_APPEND write each (atomic on POSIX for these
// sizes). It never returns; the parent kills it.
func TestTortureChild(t *testing.T) {
	if os.Getenv(envTortureChild) != "1" {
		t.Skip("torture child entry point; spawned by TestTortureKillRestart")
	}
	store := DirStore{Dir: os.Getenv(envTortureStore)}
	r, err := NewReplica[uint64](store, os.Getenv(envTortureDir), ReplicaConfig{Retry: RetryPolicy{
		Attempts: 3, Base: time.Millisecond, Max: 5 * time.Millisecond, Timeout: 200 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	logf, err := os.OpenFile(os.Getenv(envTortureLog), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	qs := tortureQueries()
	ctx := context.Background()
	var out []int
	for {
		sctx, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
		_ = r.Sync(sctx)
		cancel()
		for i := 0; i < 20; i++ {
			res, tag := r.Index().FindBatchTagged(qs, out)
			out = res
			if tag != 0 {
				fmt.Fprintf(logf, "%d %016x\n", tag, hashRanks(res))
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestTortureKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess torture skipped in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skip("no test binary path available")
	}

	storeDir := t.TempDir()
	replicaDir := t.TempDir()
	logPath := filepath.Join(t.TempDir(), "served.log")
	orc := &oracle{m: map[uint64]uint64{}}
	store := DirStore{Dir: storeDir}
	_, publish := torturePrimary(t, store, orc)
	ctx := context.Background()

	spawn := func() *exec.Cmd {
		cmd := exec.Command(exe, "-test.run", "^TestTortureChild$")
		cmd.Env = append(os.Environ(),
			envTortureChild+"=1",
			envTortureStore+"="+storeDir,
			envTortureDir+"="+replicaDir,
			envTortureLog+"="+logPath,
		)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}

	// ≥25 SIGKILLs at randomized points mid-fetch/mid-restart, with the
	// primary publishing new versions the whole time.
	const kills = 28
	rnd := rand.New(rand.NewSource(5150))
	round := 0
	for k := 0; k < kills; k++ {
		cmd := spawn()
		publish(ctx, round)
		round++
		time.Sleep(time.Duration(rnd.Intn(45)+3) * time.Millisecond)
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		cmd.Wait()
	}

	// Convergence: a final child must reach the latest version.
	publish(ctx, round)
	final := spawn()
	defer func() {
		final.Process.Kill()
		final.Wait()
	}()
	var latest uint64
	for v := range orc.m {
		if v > latest {
			latest = v
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	converged := false
	for time.Now().Before(deadline) && !converged {
		time.Sleep(50 * time.Millisecond)
		data, err := os.ReadFile(logPath)
		if err != nil {
			continue
		}
		if strings.Contains(string(data), fmt.Sprintf("\n%d ", latest)) ||
			strings.HasPrefix(string(data), fmt.Sprintf("%d ", latest)) {
			converged = true
		}
	}
	if !converged {
		t.Fatalf("replica never served latest version %d after %d kills", latest, kills)
	}

	// The acceptance bar: every line ever logged — across every killed
	// incarnation — matches the oracle. Zero corrupt or partial reads.
	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lines, versions := 0, map[uint64]bool{}
	for sc.Scan() {
		text := sc.Text()
		if text == "" {
			continue
		}
		parts := strings.Fields(text)
		if len(parts) != 2 {
			t.Fatalf("malformed log line %q (torn append?)", text)
		}
		v, err := strconv.ParseUint(parts[0], 10, 64)
		if err != nil {
			t.Fatalf("log line %q: %v", text, err)
		}
		h, err := strconv.ParseUint(parts[1], 16, 64)
		if err != nil {
			t.Fatalf("log line %q: %v", text, err)
		}
		want, ok := orc.get(v)
		if !ok {
			t.Fatalf("replica served version %d which was never published", v)
		}
		if h != want {
			t.Fatalf("replica served corrupt results for version %d: hash %016x, oracle %016x", v, h, want)
		}
		lines++
		versions[v] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("replica logged no served queries at all")
	}
	t.Logf("torture: %d kills, %d verified query batches over %d distinct versions (latest %d)",
		kills, lines, len(versions), latest)
}

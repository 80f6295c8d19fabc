package replica

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/mapped"
)

// TestMappedInstallStorm is the lifetime regression test for mapped
// installs: readers hammer the replica's index while a storm of full
// installs swaps mapped states under them, captured old states keep
// serving after their artifact is superseded and gc has run, and the
// backing regions release — freeing their paths — only once the last
// reference drops. Run under -race this also proves the swap publishes
// the mapped view safely.
func TestMappedInstallStorm(t *testing.T) {
	ctx := context.Background()
	base := make([]uint64, 20000)
	for i := range base {
		base[i] = uint64(i) * 3
	}
	primary, err := concurrent.New(base, concurrent.Config{})
	if err != nil {
		t.Fatal(err)
	}
	primary.Close() // no background compaction: explicit Compact calls only

	store := DirStore{Dir: t.TempDir()}
	pub, err := NewPublisher(ctx, store, primary, PublisherConfig{Spool: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r, err := NewReplica[uint64](store, dir, ReplicaConfig{Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			qs := make([]uint64, 64)
			out := make([]int, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range qs {
					qs[i] = rnd.Uint64() % (20000 * 3)
				}
				slices.Sort(qs)
				ranks, _ := r.Index().FindBatchTagged(qs, out)
				prev := 0
				for i, rk := range ranks {
					// One tagged batch answers from one snapshot, so over
					// sorted queries the ranks must be non-decreasing and
					// non-negative no matter how many installs raced by.
					if rk < prev {
						t.Errorf("rank regressed at %d: %d after %d", i, rk, prev)
						return
					}
					prev = rk
				}
			}
		}(int64(g))
	}

	// Each round: write, compact (fresh view forces a full artifact),
	// publish, sync. Capture every installed state so superseded mapped
	// regions stay referenced past their artifact's gc eligibility.
	type capture struct {
		st  *concurrent.PublishedState[uint64]
		len int
	}
	var caps []capture
	const rounds = 6
	for round := 1; round <= rounds; round++ {
		for i := 0; i < 500; i++ {
			primary.Insert(uint64(1_000_000*round + i))
		}
		if err := primary.Compact(); err != nil {
			t.Fatal(err)
		}
		if _, full, err := pub.Publish(ctx); err != nil || !full {
			t.Fatalf("round %d: full=%v err=%v", round, full, err)
		}
		if err := r.Sync(ctx); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		caps = append(caps, capture{st: r.Index().Published(), len: r.Index().Len()})
	}
	close(stop)
	wg.Wait()

	st := r.Status()
	if st.Mapped != mapped.Supported() || st.Mapped && st.MappedBytes <= 0 {
		t.Fatalf("after %d installs: Mapped=%v MappedBytes=%d, want Mapped=%v", rounds, st.Mapped, st.MappedBytes, mapped.Supported())
	}

	// Superseded states must still answer correctly from their mapped
	// regions even though gc has run over their artifacts.
	for i, c := range caps {
		got := 0
		c.st.Scan(0, 1<<62, func(uint64) bool { got++; return true })
		if got != c.len {
			t.Fatalf("captured state %d scans %d live keys, had %d at install", i, got, c.len)
		}
	}

	// Every full artifact still on disk is either the serving one or
	// pinned by a live mapping — gc never deletes a file in use.
	serving := entryFile(t, dir, r.Status().Version)
	for _, n := range fullFiles(t, dir) {
		if n == serving {
			continue
		}
		if !mapped.PathInUse(filepath.Join(dir, n)) {
			t.Errorf("gc left unpinned stale artifact %s", n)
		}
	}

	// Drop every reference to the old states; their cleanups must
	// release the regions and free the paths.
	old := fullFiles(t, dir)
	caps = nil
	deadline := time.Now().Add(10 * time.Second)
	for {
		busy := 0
		for _, n := range old {
			if n != serving && mapped.PathInUse(filepath.Join(dir, n)) {
				busy++
			}
		}
		if busy == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d superseded regions still pinned after drop + GC", busy)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMappedWarmRestartReplica proves a process restart re-installs the
// recorded state (content-CRC over the container bytes, then an O(1)
// open) and serves answers identical to the primary's. The state is
// mapped where the platform maps files and a heap read elsewhere, as
// under -tags nommap.
func TestMappedWarmRestartReplica(t *testing.T) {
	ctx := context.Background()
	base := make([]uint64, 10000)
	for i := range base {
		base[i] = uint64(i)*7 + 1
	}
	primary, err := concurrent.New(base, concurrent.Config{})
	if err != nil {
		t.Fatal(err)
	}
	primary.Close() // no background compaction: explicit Compact calls only
	for i := 0; i < 300; i++ {
		primary.Insert(uint64(i) * 13)
	}

	store := DirStore{Dir: t.TempDir()}
	pub, err := NewPublisher(ctx, store, primary, PublisherConfig{Spool: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pub.Publish(ctx); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	r1, err := NewReplica[uint64](store, dir, ReplicaConfig{Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	ver := r1.Status().Version
	r1.Close()

	// Same dir, new process: warm restart (NewReplica never contacts the
	// store; the recorded local artifact alone must reproduce the state).
	r2, err := NewReplica[uint64](store, dir, ReplicaConfig{Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	s2 := r2.Status()
	if s2.Version != ver {
		t.Fatalf("warm restart at version %d, want %d", s2.Version, ver)
	}
	if s2.Mapped != mapped.Supported() {
		t.Fatalf("warm restart reports Mapped=%v, want %v", s2.Mapped, mapped.Supported())
	}

	qs := make([]uint64, 2048)
	rnd := rand.New(rand.NewSource(42))
	for i := range qs {
		qs[i] = rnd.Uint64() % 80000
	}
	want := primary.FindBatch(qs, nil)
	if got := r2.Index().FindBatch(qs, nil); !slices.Equal(got, want) {
		t.Fatalf("warm-restarted replica disagrees with primary")
	}
}

// fullFiles lists full-* artifacts in dir.
func fullFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "full-") {
			out = append(out, e.Name())
		}
	}
	return out
}

// entryFile reconstructs the artifact name the publisher gives version v.
func entryFile(t *testing.T, dir string, v uint64) string {
	t.Helper()
	name := ""
	for _, n := range fullFiles(t, dir) {
		if strings.Contains(n, versionTag(v)) {
			name = n
		}
	}
	if name == "" {
		t.Fatalf("no local artifact for serving version %d", v)
	}
	return name
}

func versionTag(v uint64) string {
	s := "00000000" + strconvU(v)
	return s[len(s)-8:]
}

func strconvU(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/dataset"
	"repro/internal/kv"
	"repro/internal/mapped"
	"repro/internal/snapshot"
)

// fastRetry keeps test-time backoff negligible while still exercising
// the real retry loop.
var fastRetry = RetryPolicy{
	Attempts: 4,
	Base:     time.Millisecond,
	Max:      5 * time.Millisecond,
	Timeout:  250 * time.Millisecond,
}

func newPrimary(t *testing.T, keys []uint64) *concurrent.Index[uint64] {
	t.Helper()
	slices.Sort(keys)
	ix, err := concurrent.New(keys, concurrent.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close() // no background compaction: explicit Compact calls only
	return ix
}

func seqKeys(n int, stride uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i+1) * stride
	}
	return keys
}

// expectRanks computes the oracle answer for qs over a quiescent index
// via its published-state scan (independent of the Find path under test).
func expectRanks(st *concurrent.PublishedState[uint64], qs []uint64) []int {
	var live []uint64
	st.Scan(0, ^uint64(0), func(k uint64) bool {
		live = append(live, k)
		return true
	})
	out := make([]int, len(qs))
	for i, q := range qs {
		out[i] = kv.LowerBound(live, q)
	}
	return out
}

func checkServing(t *testing.T, r *Replica[uint64], st *concurrent.PublishedState[uint64], wantTag uint64) {
	t.Helper()
	qs := make([]uint64, 64)
	rnd := rand.New(rand.NewSource(7))
	for i := range qs {
		qs[i] = rnd.Uint64() % 3_000_000
	}
	got, tag := r.Index().FindBatchTagged(qs, nil)
	if tag != wantTag {
		t.Fatalf("serving tag %d, want %d", tag, wantTag)
	}
	want := expectRanks(st, qs)
	for i := range qs {
		if got[i] != want[i] {
			t.Fatalf("Find(%d) = %d, want %d (version %d)", qs[i], got[i], want[i], wantTag)
		}
	}
}

// TestPublishFetchRoundTrip drives the full protocol over a DirStore:
// full publish, replica sync, writes + delta publishes, delta syncs,
// compaction + second full, pruning, and warm restart from local state.
func TestPublishFetchRoundTrip(t *testing.T) {
	ctx := context.Background()
	store := DirStore{Dir: t.TempDir()}
	primary := newPrimary(t, seqKeys(5000, 97))

	pub, err := NewPublisher(ctx, store, primary, PublisherConfig{Spool: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	v1, full, err := pub.Publish(ctx)
	if err != nil || !full || v1 != 1 {
		t.Fatalf("first publish: v=%d full=%v err=%v", v1, full, err)
	}

	dir := t.TempDir()
	r, err := NewReplica[uint64](store, dir, ReplicaConfig{Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	checkServing(t, r, primary.Published(), 1)

	// Writes without compaction → delta publishes.
	for i := 0; i < 3000; i++ {
		primary.Insert(uint64(i)*13 + 5)
	}
	for i := 0; i < 500; i++ {
		primary.Delete(uint64(i+1) * 97)
	}
	v2, full, err := pub.Publish(ctx)
	if err != nil || full || v2 != 2 {
		t.Fatalf("second publish: v=%d full=%v err=%v", v2, full, err)
	}
	if err := r.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	checkServing(t, r, primary.Published(), 2)

	// Compaction changes the view → next publish must be full.
	if err := primary.Compact(); err != nil {
		t.Fatal(err)
	}
	v3, full, err := pub.Publish(ctx)
	if err != nil || !full || v3 != 3 {
		t.Fatalf("post-compaction publish: v=%d full=%v err=%v", v3, full, err)
	}
	primary.Insert(42)
	v4, full, err := pub.Publish(ctx)
	if err != nil || full || v4 != 4 {
		t.Fatalf("fourth publish: v=%d full=%v err=%v", v4, full, err)
	}
	// Sync jumps 2 → 4 directly: new base full + latest delta.
	if err := r.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	checkServing(t, r, primary.Published(), 4)
	st := r.Status()
	if st.Version != 4 || st.Stale || st.Failures != 0 || st.LastErr != nil {
		t.Fatalf("status after convergence: %+v", st)
	}

	// Warm restart: a new replica over the same dir serves version 4
	// without touching the store.
	r.Close()
	r2, err := NewReplica[uint64](refuseStore{}, dir, ReplicaConfig{Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	checkServing(t, r2, primary.Published(), 4)

	// Idempotent sync when fresh: one manifest get, no artifact fetches.
	if err := r.Sync(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPRoundTrip runs publish → fetch over the HTTP store against
// the package's own handler.
func TestHTTPRoundTrip(t *testing.T) {
	ctx := context.Background()
	srv := httptest.NewServer(NewHandler(DirStore{Dir: t.TempDir()}))
	defer srv.Close()
	store := HTTPStore{Base: srv.URL}

	primary := newPrimary(t, seqKeys(2000, 31))
	pub, err := NewPublisher(ctx, store, primary, PublisherConfig{Spool: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pub.Publish(ctx); err != nil {
		t.Fatal(err)
	}
	primary.Insert(1)
	primary.Insert(2)
	if _, _, err := pub.Publish(ctx); err != nil {
		t.Fatal(err)
	}

	r, err := NewReplica[uint64](store, t.TempDir(), ReplicaConfig{Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	checkServing(t, r, primary.Published(), 2)
}

// TestPublisherResume rebuilds a publisher over an existing store: the
// version sequence continues and the first publish is forced full.
func TestPublisherResume(t *testing.T) {
	ctx := context.Background()
	store := DirStore{Dir: t.TempDir()}
	primary := newPrimary(t, seqKeys(1000, 11))
	pub, err := NewPublisher(ctx, store, primary, PublisherConfig{Spool: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		primary.Insert(uint64(i))
		if _, _, err := pub.Publish(ctx); err != nil {
			t.Fatal(err)
		}
	}

	pub2, err := NewPublisher(ctx, store, primary, PublisherConfig{Spool: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	v, full, err := pub2.Publish(ctx)
	if err != nil || !full || v != 4 {
		t.Fatalf("resumed publish: v=%d full=%v err=%v (want v=4 full)", v, full, err)
	}

	r, err := NewReplica[uint64](store, t.TempDir(), ReplicaConfig{Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	checkServing(t, r, primary.Published(), 4)
}

// TestPublisherManifestSkew: a publisher adopting a store whose manifest
// is checksum-valid but of a format version this build does not read —
// an earlier build's version 2, or a future one — must refuse typed
// rather than restart numbering at 1 beneath replicas that already serve
// a higher version. A torn manifest is still a fresh start.
func TestPublisherManifestSkew(t *testing.T) {
	ctx := context.Background()
	primary := newPrimary(t, seqKeys(1000, 11))
	for _, v := range []string{"2", "3"} {
		store := DirStore{Dir: t.TempDir()}
		skewed := reseal([]byte("shift-manifest " + v + "\nlatest 41\nfull 41 full-00000041.snap 10 00000001 0000000000000002 3\n"))
		if err := store.Put(ctx, ManifestName, bytes.NewReader(skewed)); err != nil {
			t.Fatal(err)
		}
		pub, err := NewPublisher(ctx, store, primary, PublisherConfig{Spool: t.TempDir()})
		if !errors.Is(err, snapshot.ErrVersionUnsupported) {
			t.Fatalf("manifest version %s: NewPublisher = %v, %v; want ErrVersionUnsupported", v, pub, err)
		}
	}

	store := DirStore{Dir: t.TempDir()}
	if err := store.Put(ctx, ManifestName, bytes.NewReader([]byte("shift-manifest 1\nlatest 41\ncrc32c 0"))); err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(ctx, store, primary, PublisherConfig{Spool: t.TempDir()})
	if err != nil {
		t.Fatalf("torn manifest: %v", err)
	}
	if v, full, err := pub.Publish(ctx); err != nil || !full || v != 1 {
		t.Fatalf("publish over a torn manifest: v=%d full=%v err=%v (want a fresh v=1 full)", v, full, err)
	}
}

// TestWarmRestartRefusesOtherRecordVersions: only the version 1 warm-
// restart record is read. A version 2 record, which an earlier build's
// format bridge wrote, means a cold start — the record's contract — and
// the next Sync repopulates the replica.
func TestWarmRestartRefusesOtherRecordVersions(t *testing.T) {
	ctx := context.Background()
	store := DirStore{Dir: t.TempDir()}
	primary := newPrimary(t, seqKeys(2000, 37))
	pub, err := NewPublisher(ctx, store, primary, PublisherConfig{Spool: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pub.Publish(ctx); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r, err := NewReplica[uint64](store, dir, ReplicaConfig{Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	r.Close()

	rec, err := os.ReadFile(filepath.Join(dir, stateName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(rec, []byte("shift-replica-state 1\n")) {
		t.Fatalf("warm-restart record header: %q", rec)
	}
	body := bytes.Replace(rec[:bytes.LastIndex(rec, []byte("crc32c "))], []byte("state 1\n"), []byte("state 2\n"), 1)
	body = append(body, []byte("local 00000000 2 0\n")...)
	if err := os.WriteFile(filepath.Join(dir, stateName), reseal(body), 0o644); err != nil {
		t.Fatal(err)
	}
	r2, err := NewReplica[uint64](refuseStore{}, dir, ReplicaConfig{Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if st := r2.Status(); st.Version != 0 {
		t.Fatalf("version 2 record warm-restarted to version %d, want a cold start", st.Version)
	}
}

// TestSyncV1FixtureStore syncs from a store an earlier build published: a
// version 1 manifest over a v1 concurrent full plus a delta
// (testdata/v1/store; see testdata/v1/README.md for how it was made).
// The full is a legacy full, so the replica refuses it with
// snapshot.ErrLegacy in Status.LastErr, after exactly one fetch of the
// artifact (a refusal is not retried), and keeps serving its last-good
// state. A publisher of this build then adopts the store: its next full
// is v2, and the replica serves it, mapped where the platform maps files.
func TestSyncV1FixtureStore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	src := filepath.Join("..", "..", "testdata", "v1", "store")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store := NewFaultStore(DirStore{Dir: dir})

	r, err := NewReplica[uint64](store, t.TempDir(), ReplicaConfig{Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Sync(ctx); !errors.Is(err, snapshot.ErrLegacy) {
		t.Fatalf("sync from the v1 store: %v, want snapshot.ErrLegacy", err)
	}
	if gets, _ := store.Ops(); gets != 2 {
		t.Fatalf("one Sync made %d store reads, want 2 (the manifest and the full, once)", gets)
	}
	st := r.Status()
	if !errors.Is(st.LastErr, snapshot.ErrLegacy) || st.Version != 0 || st.Latest != 2 || !st.Stale {
		t.Fatalf("after the refusal: %+v", st)
	}
	if n := r.Index().Len(); n != 0 {
		t.Fatalf("the refused full was served: %d keys, want the empty last-good state", n)
	}

	// The primary state the fixture store published, rebuilt: version 1
	// is the bare keys, version 2 the same keys after fixtureWrites.
	keys := dataset.MustGenerate(dataset.Face, 64, 2000, 12)
	primary := newPrimary(t, slices.Clone(keys))
	fixtureWrites(keys, 1500, primary)
	pub, err := NewPublisher(ctx, Store(store), primary, PublisherConfig{Spool: t.TempDir()})
	if err != nil {
		t.Fatalf("adopting the v1 store: %v", err)
	}
	v, full, err := pub.Publish(ctx)
	if err != nil || !full || v != 3 {
		t.Fatalf("first publish over the v1 store: v=%d full=%v err=%v (want v=3 full)", v, full, err)
	}
	if err := r.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	checkServing(t, r, primary.Published(), 3)
	if st := r.Status(); st.Mapped != mapped.Supported() || st.LastErr != nil {
		t.Fatalf("v2 full: %+v, want Mapped=%v and no error", st, mapped.Supported())
	}
}

// TestWarmRestartRefusesLegacyBase: a replica directory whose
// warm-restart record names a legacy full (a v1 full an earlier build
// fetched) cold-starts, and Status.LastErr reports the refusal.
func TestWarmRestartRefusesLegacyBase(t *testing.T) {
	full, err := os.ReadFile(filepath.Join("..", "..", "testdata", "v1", "store", "full-00000001.snap"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "full-00000001.snap"), full, 0o644); err != nil {
		t.Fatal(err)
	}
	rec := fmt.Sprintf("shift-replica-state 1\nversion 1\nbase 1 %08x full-00000001.snap\n", crc32.Checksum(full, castagnoli))
	if err := os.WriteFile(filepath.Join(dir, stateName), reseal([]byte(rec)), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := NewReplica[uint64](refuseStore{}, dir, ReplicaConfig{Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Status()
	r.Close()
	if st.Version != 0 || !errors.Is(st.LastErr, snapshot.ErrLegacy) {
		t.Fatalf("warm restart over a legacy base: %+v, want version 0 and snapshot.ErrLegacy", st)
	}
}

// fixtureWrites replays the write sequence the v1 fixtures were built
// with: every fourth write deletes a distinct base key, the rest insert
// near-copies of base keys.
func fixtureWrites(keys []uint64, n int, ix *concurrent.Index[uint64]) {
	for i := 0; i < n; i++ {
		if i%4 == 3 {
			ix.Delete(keys[(i/4*37)%len(keys)])
		} else {
			ix.Insert(keys[(i*13)%len(keys)] + uint64(i%5))
		}
	}
}

// TestFaultMatrix is the ISSUE's failure-class table: for every injected
// failure the fetcher retries with bounded backoff and either converges
// (transient fault) or keeps serving last-good with staleness reported
// (persistent fault). No panic, no partial swap, ever.
func TestFaultMatrix(t *testing.T) {
	ctx := context.Background()

	// Build one publish sequence the cases share shape with: v1 full,
	// then writes, then v2 delta.
	setup := func(t *testing.T) (*FaultStore, *concurrent.Index[uint64], *Publisher[uint64], *Replica[uint64]) {
		t.Helper()
		fs := NewFaultStore(DirStore{Dir: t.TempDir()})
		primary := newPrimary(t, seqKeys(4000, 61))
		pub, err := NewPublisher(ctx, Store(fs), primary, PublisherConfig{Spool: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := pub.Publish(ctx); err != nil {
			t.Fatal(err)
		}
		r, err := NewReplica[uint64](fs, t.TempDir(), ReplicaConfig{Retry: fastRetry})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		if err := r.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		return fs, primary, pub, r
	}

	// advance writes and publishes version 2 (a delta).
	advance := func(t *testing.T, primary *concurrent.Index[uint64], pub *Publisher[uint64]) {
		t.Helper()
		for i := 0; i < 800; i++ {
			primary.Insert(uint64(i)*7 + 3)
		}
		if v, full, err := pub.Publish(ctx); err != nil || full || v != 2 {
			t.Fatalf("delta publish: v=%d full=%v err=%v", v, full, err)
		}
	}

	transient := []struct {
		name  string
		fault Fault
	}{
		{"truncation", Fault{Name: "delta-00000002.snap", Kind: FaultTruncate, Offset: 40, Count: 2}},
		{"bit flip", Fault{Name: "delta-00000002.snap", Kind: FaultBitFlip, Offset: 33, Count: 2}},
		{"stall past timeout", Fault{Name: "delta-00000002.snap", Kind: FaultStall, Offset: 10, Delay: time.Hour, Count: 2}},
		{"transport error", Fault{Name: "delta-00000002.snap", Kind: FaultError, Offset: 21, Count: 2}},
		{"missing version", Fault{Name: "delta-00000002.snap", Kind: FaultNotFound, Count: 2}},
		{"manifest bit flip", Fault{Name: ManifestName, Kind: FaultBitFlip, Offset: 25, Count: 2}},
	}
	for _, tc := range transient {
		t.Run("transient/"+tc.name, func(t *testing.T) {
			fs, primary, pub, r := setup(t)
			advance(t, primary, pub)
			fs.Inject(tc.fault)
			if err := r.Sync(ctx); err != nil {
				t.Fatalf("sync with %d transient faults: %v", 2, err)
			}
			if fired := fs.Fired(); fired != 2 {
				t.Fatalf("faults fired %d times, want 2 (retry loop skipped?)", fired)
			}
			checkServing(t, r, primary.Published(), 2)
		})
	}

	for _, tc := range transient {
		t.Run("exhaustion/"+tc.name, func(t *testing.T) {
			fs, primary, pub, r := setup(t)
			stV1 := primary.Published() // last-good state the replica must keep serving
			advance(t, primary, pub)
			f := tc.fault
			f.Count = -1 // forever
			fs.Inject(f)
			err := r.Sync(ctx)
			if err == nil {
				t.Fatal("sync succeeded under a persistent fault")
			}
			// Last-good degradation: still serving version 1, correctly,
			// and the staleness is visible.
			checkServing(t, r, stV1, 1)
			st := r.Status()
			if st.Version != 1 || st.Failures == 0 || st.LastErr == nil {
				t.Fatalf("status after exhaustion: %+v", st)
			}
			if tc.fault.Name != ManifestName && !st.Stale {
				t.Fatalf("status not stale after failed artifact sync: %+v", st)
			}
			// Recovery: clear the fault and the same replica converges.
			fs.Clear()
			if err := r.Sync(ctx); err != nil {
				t.Fatal(err)
			}
			checkServing(t, r, primary.Published(), 2)
			if st := r.Status(); st.Version != 2 || st.Stale || st.Failures != 0 {
				t.Fatalf("status after recovery: %+v", st)
			}
		})
	}

	t.Run("version skew does not retry", func(t *testing.T) {
		fs, primary, _, r := setup(t)
		future := reseal([]byte("shift-manifest 99\nlatest 1\nfull 1 full-00000001.snap 10 00000001 0000000000000002 3\n"))
		if err := fs.Inner.Put(ctx, ManifestName, bytes.NewReader(future)); err != nil {
			t.Fatal(err)
		}
		gets0, _ := fs.Ops()
		err := r.Sync(ctx)
		if !errors.Is(err, snapshot.ErrVersionUnsupported) {
			t.Fatalf("future manifest: err = %v, want ErrVersionUnsupported", err)
		}
		gets1, _ := fs.Ops()
		if gets1-gets0 != 1 {
			t.Fatalf("version skew fetched %d times, want 1 (must not retry)", gets1-gets0)
		}
		checkServing(t, r, primary.Published(), 1) // still serving v1
	})

	t.Run("torn manifest put", func(t *testing.T) {
		fs, primary, pub, r := setup(t)
		stV1 := primary.Published()
		for i := 0; i < 100; i++ {
			primary.Insert(uint64(i))
		}
		fs.Inject(Fault{Name: ManifestName, Kind: FaultTornPut, Offset: 30, Count: 1})
		if _, _, err := pub.Publish(ctx); err == nil {
			t.Fatal("publish succeeded through a torn manifest put")
		}
		// The torn manifest is live in the store. The replica refuses it
		// and keeps serving last-good.
		if err := r.Sync(ctx); err == nil {
			t.Fatal("sync accepted a torn manifest")
		}
		checkServing(t, r, stV1, 1)
		// The publisher retries the same version; the world heals.
		if v, _, err := pub.Publish(ctx); err != nil || v != 2 {
			t.Fatalf("republish: v=%d err=%v", v, err)
		}
		if err := r.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		checkServing(t, r, primary.Published(), 2)
	})

	t.Run("cancellation aborts backoff", func(t *testing.T) {
		fs, primary, pub, r := setup(t)
		advance(t, primary, pub)
		fs.Inject(Fault{Kind: FaultError, Offset: 0, Count: -1})
		slow := fastRetry
		slow.Base, slow.Max = time.Hour, time.Hour
		r2, err := NewReplica[uint64](fs, t.TempDir(), ReplicaConfig{Retry: slow})
		if err != nil {
			t.Fatal(err)
		}
		defer r2.Close()
		cctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
		defer cancel()
		start := time.Now()
		if err := r2.Sync(cctx); err == nil {
			t.Fatal("sync succeeded under persistent faults")
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("cancelled sync took %v (backoff not cancellable)", d)
		}
		_ = r
	})
}

// countArtifacts reports how many final-named snapshot files sit in dir.
func countArtifacts(t *testing.T, dir string) (fulls, deltas, temps int) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		n := e.Name()
		switch {
		case strings.HasPrefix(n, "full-"):
			fulls++
		case strings.HasPrefix(n, "delta-"):
			deltas++
		case strings.HasPrefix(n, ".fetch-") || strings.Contains(n, ".tmp-"):
			temps++
		}
	}
	return
}

// TestSyncCancelDuringSpool: cancelling a Sync mid-artifact-copy must
// leave no .fetch- temporaries and no partial final-named files, and a
// fresh NewReplica over the same dir sweeps whatever a killed
// predecessor could have left.
func TestSyncCancelDuringSpool(t *testing.T) {
	ctx := context.Background()
	fs := NewFaultStore(DirStore{Dir: t.TempDir()})
	primary := newPrimary(t, seqKeys(4000, 61))
	pub, err := NewPublisher(ctx, Store(fs), primary, PublisherConfig{Spool: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pub.Publish(ctx); err != nil {
		t.Fatal(err)
	}

	// Stall the artifact stream mid-body forever; cancel the sync while
	// it hangs inside the spool copy.
	fs.Inject(Fault{Name: "full-00000001.snap", Kind: FaultStall, Offset: 4096, Delay: time.Hour, Count: -1})
	dir := t.TempDir()
	r, err := NewReplica[uint64](fs, dir, ReplicaConfig{Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := r.Sync(cctx); err == nil {
		t.Fatal("sync succeeded through a stalled transfer")
	}
	fulls, deltas, temps := countArtifacts(t, dir)
	if fulls != 0 || deltas != 0 || temps != 0 {
		t.Fatalf("cancelled spool left fulls=%d deltas=%d temps=%d in %s", fulls, deltas, temps, dir)
	}

	// A SIGKILLed predecessor cannot run cleanup deferreds: plant the
	// remnants one would leave and verify construction sweeps them.
	for _, n := range []string{".fetch-123456", ".REPLICA_STATE.tmp-42", ".put-7"} {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fs.Clear()
	r2, err := NewReplica[uint64](fs, dir, ReplicaConfig{Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, _, temps := countArtifacts(t, dir); temps != 0 {
		t.Fatalf("NewReplica left %d temp remnants", temps)
	}
	// And the swept replica still converges.
	if err := r2.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	checkServing(t, r2, primary.Published(), 1)
}

package concurrent

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/dataset"
	snap "repro/internal/snapshot"
)

// pending builds a concurrent index carrying un-compacted write
// generations (closed, so they stay pending).
func pending(t *testing.T, n int, seed int64) (*Index[uint64], []uint64) {
	t.Helper()
	keys := dataset.MustGenerate(dataset.Face, 64, n, seed)
	ix, err := New(keys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 2500; i++ { // > maxHeadLen: forces sealed generations
		ix.Insert(rng.Uint64() % (keys[len(keys)-1] + 2))
	}
	for i := 0; i < 600; i++ {
		ix.Delete(keys[rng.Intn(len(keys))])
	}
	return ix, keys
}

func collect(ix *Index[uint64]) []uint64 {
	var out []uint64
	ix.Scan(0, ^uint64(0), func(k uint64) bool { out = append(out, k); return true })
	return out
}

// TestConcurrentSnapshotRoundTrip: a warm restart reproduces the exact
// live multiset — base, tombstones, delta, and the pending generations
// replayed through the live write path — and the restored index keeps
// serving writes and compactions.
func TestConcurrentSnapshotRoundTrip(t *testing.T) {
	orig, keys := pending(t, 20_000, 5)
	defer orig.Close()
	if orig.Pending() == 0 {
		t.Fatal("no pending generations to persist")
	}

	var buf bytes.Buffer
	if err := Save(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load[uint64](bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()

	if got, want := loaded.Len(), orig.Len(); got != want {
		t.Fatalf("restored Len = %d, want %d", got, want)
	}
	want := collect(orig)
	got := collect(loaded)
	if len(got) != len(want) {
		t.Fatalf("restored scan %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5_000; i++ {
		q := rng.Uint64() % (keys[len(keys)-1] + 2)
		if gr, wr := loaded.Find(q), orig.Find(q); gr != wr {
			t.Fatalf("loaded Find(%d) = %d, want %d", q, gr, wr)
		}
		gr, gf := loaded.Lookup(q)
		wr, wf := orig.Lookup(q)
		if gr != wr || gf != wf {
			t.Fatalf("loaded Lookup(%d) = (%d,%v), want (%d,%v)", q, gr, gf, wr, wf)
		}
	}

	// Restored index is live: concurrent readers during a compaction.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				loaded.Find(keys[len(keys)/2])
			}
		}
	}()
	if err := loaded.Compact(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if loaded.Pending() != 0 {
		t.Errorf("pending %d after explicit compaction", loaded.Pending())
	}
	if got, want := loaded.Len(), len(want); got != want {
		t.Fatalf("post-compaction Len = %d, want %d", got, want)
	}
}

// TestConcurrentSnapshotWhileWriting: persistence races writers and a
// compaction without torn state — the snapshot is some consistent
// published state, and it must load cleanly.
func TestConcurrentSnapshotWhileWriting(t *testing.T) {
	orig, keys := pending(t, 10_000, 9)
	defer orig.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			orig.Insert(rng.Uint64())
			if i == 200 {
				go orig.Compact() //nolint:errcheck // racing on purpose
			}
		}
	}()
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		if err := Save(&buf, orig); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load[uint64](bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("snapshot taken mid-write failed to load: %v", err)
		}
		if loaded.Len() < len(keys)-700 {
			t.Errorf("snapshot lost keys: Len %d", loaded.Len())
		}
		loaded.Close()
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentSnapshotFile: file round trip, with the meta's reserved
// bytes written as zeros.
func TestConcurrentSnapshotFile(t *testing.T) {
	keys := dataset.MustGenerate(dataset.UDen, 64, 8_000, 3)
	orig, err := New(keys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	orig.Insert(42)
	path := filepath.Join(t.TempDir(), "con.snap")
	if err := SaveFile(path, orig); err != nil {
		t.Fatal(err)
	}
	m, err := snap.MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := m.Expect(secConMeta)
	if err != nil {
		t.Fatal(err)
	}
	if reserved := ms.Data[:metaReserved]; !bytes.Equal(reserved, make([]byte, metaReserved)) {
		t.Errorf("meta reserved bytes = %x, want zeros", reserved)
	}
	m.Close()
	loaded, err := LoadFile[uint64](path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if got, want := loaded.Len(), orig.Len(); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	rank, found := loaded.Lookup(42)
	if !found {
		t.Error("replayed insert lost")
	}
	_ = rank
}

// TestLegacyPolicyMetaIgnored: testdata/v1/concurrent.snap was written
// by an earlier build with a manual compaction policy in its meta. Both
// file entry points load it rank-identical to the recipe that made it
// (testdata/v1/README.md), without compacting on load; the stored policy
// is ignored, so the first write past the rule compacts it.
func TestLegacyPolicyMetaIgnored(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 2000, 12)
	want, err := New(keys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want.Close()
	for i := 0; i < 1500; i++ {
		if i%4 == 3 {
			want.Delete(keys[(i/4*37)%len(keys)])
		} else {
			want.Insert(keys[(i*13)%len(keys)] + uint64(i%5))
		}
	}
	sameRanks := func(t *testing.T, ix *Index[uint64]) {
		t.Helper()
		for _, k := range keys {
			for _, q := range []uint64{0, k - 1, k, k + 1, ^uint64(0)} {
				if g, w := ix.Find(q), want.Find(q); g != w {
					t.Fatalf("Find(%d) = %d, recipe says %d", q, g, w)
				}
			}
		}
	}
	path := filepath.Join("..", "..", "testdata", "v1", "concurrent.snap")
	restores := map[string]func() (*Index[uint64], error){
		"LoadFile": func() (*Index[uint64], error) { return LoadFile[uint64](path) },
		"MapFile": func() (*Index[uint64], error) {
			ix, _, err := MapFile[uint64](path)
			return ix, err
		},
	}
	for name, restore := range restores {
		t.Run(name, func(t *testing.T) {
			ix, err := restore()
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			if !due(ix.Pending(), ix.Len()) || ix.Rebuilds() != 0 {
				t.Fatalf("restored %d pending over %d live, %d rebuilds; want a due stack, not compacted",
					ix.Pending(), ix.Len(), ix.Rebuilds())
			}
			sameRanks(t, ix)
			ix.Insert(keys[0])
			waitForRebuild(t, ix)
			if err := ix.Err(); err != nil {
				t.Fatal(err)
			}
			ix.Delete(keys[0])
			sameRanks(t, ix)
		})
	}
}

// TestConcurrentSnapshotCorruption: stride byte flips must be rejected.
func TestConcurrentSnapshotCorruption(t *testing.T) {
	orig, _ := pending(t, 2_000, 11)
	defer orig.Close()
	var buf bytes.Buffer
	if err := Save(&buf, orig); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for i := 0; i < len(raw); i += 5 {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x02
		ix, err := Load[uint64](bytes.NewReader(bad), int64(len(bad)))
		if err == nil {
			ix.Close()
			t.Fatalf("flipped byte %d of %d went undetected", i, len(raw))
		}
	}
}

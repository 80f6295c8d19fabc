package concurrent

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/kv"
	"repro/internal/migrate"
	snap "repro/internal/snapshot"
	"repro/internal/updatable"
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

// fixtureWrites replays writes(n) from testdata/v1/README.md: every
// fourth write deletes a distinct base key, the rest insert near-copies
// of base keys.
func fixtureWrites(ix *Index[uint64], keys []uint64, n int) {
	for i := 0; i < n; i++ {
		if i%4 == 3 {
			ix.Delete(keys[(i/4*37)%len(keys)])
		} else {
			ix.Insert(keys[(i*13)%len(keys)] + uint64(i%5))
		}
	}
}

// loadBytes restores a concurrent index from container bytes through the
// registered loader (index.Load).
func loadBytes(data []byte) (*Index[uint64], error) {
	ix, err := index.Load[uint64](bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	return ix.(*Index[uint64]), nil
}

// mapFile restores a concurrent index by mapping path through the
// registered loader (index.LoadFileMapped).
func mapFile(path string) (*Index[uint64], error) {
	ix, err := index.LoadFileMapped[uint64](path)
	if err != nil {
		return nil, err
	}
	return ix.(*Index[uint64]), nil
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
	loaded, err := loadBytes(buf.Bytes())
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
		loaded, err := loadBytes(buf.Bytes())
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
// by an earlier build, stream-framed and with a manual compaction policy
// in its meta. Both file entry points refuse it with snapshot.ErrLegacy;
// its migration (internal/migrate) drops the policy, and both load the
// migrated file rank-identical to the recipe that made it
// (testdata/v1/README.md), without compacting on load, so the first
// write past the rule compacts it.
func TestLegacyPolicyMetaIgnored(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 2000, 12)
	want, err := New(keys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want.Close()
	fixtureWrites(want, keys, 1500)
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
	legacy := filepath.Join("..", "..", "testdata", "v1", "concurrent.snap")
	path := migrated(t, legacy)
	m, err := snap.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ms, err := m.Expect(secConMeta); err != nil || !bytes.Equal(ms.Data[:metaReserved], make([]byte, metaReserved)) {
		t.Fatalf("migrated meta: %v (%v), want zero reserved bytes", ms, err)
	}
	restores := map[string]func(string) (*Index[uint64], error){
		"LoadFile": LoadFile[uint64],
		"MapFile":  mapFile,
	}
	for name, restore := range restores {
		t.Run(name, func(t *testing.T) {
			if _, err := restore(legacy); !errors.Is(err, snap.ErrLegacy) {
				t.Fatalf("the v1 file: %v, want snapshot.ErrLegacy", err)
			}
			ix, err := restore(path)
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
		ix, err := loadBytes(bad)
		if err == nil {
			ix.Close()
			t.Fatalf("flipped byte %d of %d went undetected", i, len(raw))
		}
	}
}

// TestSaveFileGolden: testdata/golden.snap was written from the recipe in
// testdata/README.md. This build's SaveFile of the same index must
// reproduce it byte for byte, so the persisted format does not change
// unnoticed. testdata/golden-v2.snap, the same index as a build with v2
// layer blobs wrote it, must migrate byte for byte to what the golden
// file migrates to (the migration also folds the write head into the
// sealed run, so neither migrates to the golden file itself).
func TestSaveFileGolden(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 2000, 12)
	ix, err := New(keys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	fixtureWrites(ix, keys, 1500)
	path := filepath.Join(t.TempDir(), "golden.snap")
	if err := SaveFile(path, ix); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("SaveFile wrote %d bytes that differ from the %d-byte golden file", len(got), len(want))
	}
	legacy, err := os.ReadFile(filepath.Join("testdata", "golden-v2.snap"))
	if err != nil {
		t.Fatal(err)
	}
	current, err := migrate.Full(want)
	if err != nil {
		t.Fatal(err)
	}
	// The golden file's head is not empty, so Full folds it into the
	// sealed run: other bytes, the same ranks, and a fixed point.
	again, err := migrate.Full(current)
	if err != nil || !bytes.Equal(again, current) {
		t.Fatalf("Full of its own %d-byte output gave %d other bytes (%v)", len(current), len(again), err)
	}
	folded, err := loadBytes(current)
	if err != nil {
		t.Fatal(err)
	}
	if folded.Len() != ix.Len() {
		t.Fatalf("the migrated golden file holds %d keys, the index %d", folded.Len(), ix.Len())
	}
	for _, k := range keys {
		for _, q := range []uint64{k - 1, k, k + 1, k + 3} {
			if got, want := folded.Find(q), ix.Find(q); got != want {
				t.Fatalf("the migrated golden file ranks %d at %d, the index at %d", q, got, want)
			}
		}
	}
	if migrated, err := migrate.Full(legacy); err != nil || !bytes.Equal(migrated, current) {
		t.Fatalf("golden-v2.snap does not migrate to what the golden file does (%d vs %d bytes, %v)",
			len(migrated), len(current), err)
	}
}

// writeLegacyView writes a v2 concurrent container by hand whose view
// carries what earlier builds could persist inside it — tombstoned base
// slots and an insert buffer — under one persisted generation that
// deletes from both and inserts more. It returns the multiset the file
// holds.
func writeLegacyView(t *testing.T, path string, keys []uint64) []uint64 {
	t.Helper()
	base, err := updatable.New(keys, updatable.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref := &reference{keys: slices.Clone(keys)}
	bitmap := make([]byte, (len(keys)+7)/8)
	var dead uint64
	for p := 3; p < len(keys); p += 97 {
		bitmap[p/8] |= 1 << (p % 8)
		ref.delete(keys[p])
		dead++
	}
	var buffer []uint64
	for i := 0; i < 300; i++ {
		k := keys[(i*31)%len(keys)] + uint64(i%3)
		buffer = append(buffer, k)
		ref.insert(k)
	}
	slices.Sort(buffer)
	gen := &generation[uint64]{}
	for i := 0; i < 50; i++ {
		gen = gen.withInsert(keys[(i*7)%len(keys)] + 1)
		ref.insert(keys[(i*7)%len(keys)] + 1)
		for _, k := range []uint64{buffer[i*5], keys[i*11+1]} {
			if ref.delete(k) {
				gen = gen.withDelete(k)
			}
		}
	}
	err = snap.SaveFile(path, SnapshotKind, func(sw *snap.Writer) error {
		if err := sw.Bytes(secConMeta, binary.LittleEndian.AppendUint32(make([]byte, metaReserved), 1)); err != nil {
			return err
		}
		// The updatable section sequence (ids 10–12, DESIGN.md §9): meta
		// (range layer, default M and stride, the buffer threshold and
		// tombstone count earlier builds recorded), base table, bitmap,
		// insert buffer.
		meta := make([]byte, 20, 36)
		meta = binary.LittleEndian.AppendUint64(meta, 1<<20)
		meta = binary.LittleEndian.AppendUint64(meta, dead)
		if err := sw.Bytes(10, meta); err != nil {
			return err
		}
		if err := base.View().Table().PersistSnapshot(sw); err != nil {
			return err
		}
		dw, err := sw.SectionSized(11, int64(len(bitmap)))
		if err != nil {
			return err
		}
		if _, err := dw.Write(bitmap); err != nil {
			return err
		}
		if err := snap.WriteKeySection(sw, 12, buffer); err != nil {
			return err
		}
		if err := snap.WriteKeySection(sw, secConIns, gen.ins); err != nil {
			return err
		}
		return snap.WriteKeySection(sw, secConDels, gen.dels)
	})
	if err != nil {
		t.Fatal(err)
	}
	return ref.keys
}

// TestLegacyViewWritesLoad: a concurrent file whose view carries
// tombstones and an insert buffer is refused by the mapped and the heap
// entry points with snapshot.ErrLegacy. Its migration (internal/migrate)
// turns the view's pending writes into the oldest generation under the
// persisted one, and both entry points load the migrated file
// rank-identical to the multiset it holds; the restored index keeps
// serving writes and compacts them away.
func TestLegacyViewWritesLoad(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Wiki, 64, 2_000, 7)
	legacy := filepath.Join(t.TempDir(), "legacy-view.snap")
	ref := writeLegacyView(t, legacy, keys)
	path := migrated(t, legacy)
	s := &stream{ref: &reference{keys: ref}, rng: rand.New(rand.NewSource(3)), domain: keys[len(keys)-1] + 2}
	restores := map[string]func(string) (*Index[uint64], error){
		"LoadFile": LoadFile[uint64],
		"MapFile":  mapFile,
	}
	for name, restore := range restores {
		t.Run(name, func(t *testing.T) {
			if _, err := restore(legacy); !errors.Is(err, snap.ErrLegacy) {
				t.Fatalf("the legacy view: %v, want snapshot.ErrLegacy", err)
			}
			ix, err := restore(path)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			if wantMap := name == "MapFile"; ix.Mapped() != wantMap {
				t.Fatalf("Mapped() = %v, want %v", ix.Mapped(), wantMap)
			}
			checkReads(t, ix, ref, s.queries(512), true)
			ix.Close()
			ix.Insert(42)
			want := slices.Clone(ref)
			want = slices.Insert(want, kv.UpperBound(want, 42), 42)
			checkReads(t, ix, want, s.queries(256), true)
			if err := ix.Compact(); err != nil {
				t.Fatal(err)
			}
			if ix.Pending() != 0 || ix.Published().Gens() != 1 {
				t.Fatalf("after Compact: %d pending in %d generations", ix.Pending(), ix.Published().Gens())
			}
			checkReads(t, ix, want, s.queries(256), true)
		})
	}
}

// migrated writes the migration of the full at path (internal/migrate)
// next to a temporary copy and returns its path.
func migrated(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := migrate.Full(data)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "migrated.snap")
	if err := os.WriteFile(out, cur, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

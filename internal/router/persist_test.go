package router

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/snapshot"
)

func saveRouter(t *testing.T, r *Router[uint64]) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := index.Save[uint64](&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRouterSnapshotRoundTrip: the hybrid restores with the same routing
// decisions and bit-identical query results; Persister-capable shards
// load natively, the rest rebuild from the plan.
func TestRouterSnapshotRoundTrip(t *testing.T) {
	keys := dataset.Piecewise(60_000, 3)
	orig, err := New(keys, Config{Shards: 6})
	if err != nil {
		t.Fatal(err)
	}
	raw := saveRouter(t, orig)
	loadedIx, err := index.Load[uint64](bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	loaded, ok := loadedIx.(*Router[uint64])
	if !ok {
		t.Fatalf("router snapshot loaded as %T", loadedIx)
	}
	if loaded.Shards() != orig.Shards() || loaded.Len() != orig.Len() {
		t.Fatalf("restored %d shards/%d keys, want %d/%d",
			loaded.Shards(), loaded.Len(), orig.Shards(), orig.Len())
	}
	oc, lc := orig.Choices(), loaded.Choices()
	for i := range oc {
		if lc[i].Backend != oc[i].Backend || lc[i].Len != oc[i].Len || lc[i].FirstKey != oc[i].FirstKey {
			t.Fatalf("shard %d choice %+v restored as %+v", i, oc[i], lc[i])
		}
	}
	rng := rand.New(rand.NewSource(11))
	qs := make([]uint64, 8_000)
	for i := range qs {
		if i%2 == 0 {
			qs[i] = keys[rng.Intn(len(keys))]
		} else {
			qs[i] = rng.Uint64() % (keys[len(keys)-1] + 2)
		}
	}
	for _, q := range qs {
		if got, want := loaded.Find(q), orig.Find(q); got != want {
			t.Fatalf("loaded Find(%d) = %d, want %d", q, got, want)
		}
	}
	want := orig.FindBatch(qs, nil)
	got := loaded.FindBatch(qs, nil)
	for i := range qs {
		if got[i] != want[i] {
			t.Fatalf("loaded FindBatch[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestRouterSnapshotCorruption: byte flips anywhere — keys, plan, or a
// shard's model/layer sections — must be rejected, structurally or by
// the container checksum.
func TestRouterSnapshotCorruption(t *testing.T) {
	keys := dataset.Piecewise(4_000, 5)
	orig, err := New(keys, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	raw := saveRouter(t, orig)
	for i := 0; i < len(raw); i += 7 {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x10
		if _, err := index.Load[uint64](bytes.NewReader(bad), int64(len(bad))); err == nil {
			t.Fatalf("flipped byte %d of %d went undetected", i, len(raw))
		}
	}
	for cut := 0; cut < len(raw); cut += 101 {
		if _, err := index.Load[uint64](bytes.NewReader(raw[:cut]), int64(cut)); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", cut)
		}
	}
}

// TestRouterPlanOverflow: a crafted plan whose shard length is near 2^64
// must be rejected, not wrap the span check and panic on keys[lo:hi]
// (regression: the original check computed off+length in uint64 before
// bounding length, so 10+(2^64-5) wrapped to 5 and passed).
func TestRouterPlanOverflow(t *testing.T) {
	n := 100
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 7
	}
	evil := func(lens [][2]uint64) []byte {
		var buf bytes.Buffer
		sw, err := snapshot.NewWriter(&buf, SnapshotKind)
		if err != nil {
			t.Fatal(err)
		}
		if err := snapshot.WriteKeySection(sw, secRouterKeys, keys); err != nil {
			t.Fatal(err)
		}
		plan := binary.LittleEndian.AppendUint32(nil, uint32(len(lens)))
		for _, ol := range lens {
			off, length := ol[0], ol[1]
			if off < uint64(n) {
				plan = binary.LittleEndian.AppendUint64(plan, keys[off])
			} else {
				plan = binary.LittleEndian.AppendUint64(plan, 0)
			}
			plan = binary.LittleEndian.AppendUint64(plan, off)
			plan = binary.LittleEndian.AppendUint64(plan, length)
			plan = binary.LittleEndian.AppendUint64(plan, 0) // estNs
			plan = append(plan, 0, shardRebuild)
			plan = binary.LittleEndian.AppendUint32(plan, 2)
			plan = append(plan, "BS"...)
		}
		if err := sw.Bytes(secRouterPlan, plan); err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for name, lens := range map[string][][2]uint64{
		"wrapping-length":   {{0, 10}, {10, ^uint64(0) - 4}, {5, 95}},
		"max-length":        {{0, ^uint64(0)}},
		"length-beyond-n":   {{0, uint64(n) + 1}},
		"zero-length":       {{0, 0}, {0, 100}},
		"short-of-coverage": {{0, 50}},
	} {
		raw := evil(lens)
		ix, err := index.Load[uint64](bytes.NewReader(raw), int64(len(raw)))
		if err == nil {
			t.Errorf("%s: hostile plan accepted (loaded %s)", name, ix.Name())
		}
	}
}

// TestRouterSnapshotNoKeyDuplication: shards persist keylessly, so the
// file carries the keys exactly once — the snapshot stays within the raw
// key bytes plus layers and metadata, far under double.
func TestRouterSnapshotNoKeyDuplication(t *testing.T) {
	keys := dataset.Piecewise(40_000, 9)
	r, err := New(keys, Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	raw := saveRouter(t, r)
	keyBytes := 8 * len(keys)
	// Keys once (64 KB slack for plan, specs, layers at this N — layers
	// here are small; the point is the absence of a second key copy).
	if len(raw) > keyBytes+keyBytes/2 {
		t.Errorf("snapshot is %d bytes for %d bytes of keys: keys look duplicated", len(raw), keyBytes)
	}
}

// TestRouterSnapshotFile: SaveFile/LoadFile, empty router included.
func TestRouterSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	keys := dataset.Piecewise(20_000, 7)
	orig, err := New(keys, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "router.snap")
	if err := index.SaveFile[uint64](path, orig); err != nil {
		t.Fatal(err)
	}
	if m, err := snapshot.ReadFile(path); err != nil {
		t.Fatal(err)
	} else if m.Kind() != SnapshotKind {
		t.Fatalf("kind = %q, want %q", m.Kind(), SnapshotKind)
	}
	loaded, err := index.LoadFile[uint64](path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(keys); i += 97 {
		if got, want := loaded.Find(keys[i]), orig.Find(keys[i]); got != want {
			t.Fatalf("loaded Find(%d) = %d, want %d", keys[i], got, want)
		}
	}

	empty, err := New[uint64](nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	path2 := filepath.Join(dir, "empty.snap")
	if err := index.SaveFile[uint64](path2, empty); err != nil {
		t.Fatal(err)
	}
	le, err := index.LoadFile[uint64](path2)
	if err != nil {
		t.Fatal(err)
	}
	if le.Len() != 0 || le.Find(42) != 0 {
		t.Error("empty router round trip broken")
	}
}

package migrate

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cdfmodel"
	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/kv"
	"repro/internal/snapshot"
)

// legacyLayer renders a table's layer as the blob an earlier build wrote
// for it: version 1 or 2, from the table's v3 blob and, for what v3 no
// longer stores, its keys and model. Per partition the range bounds are
// lo[k] = minPos−pmax and hi[k] = endPos−pmin, empty partitions
// backfilled from the next non-empty one, over the same partition
// geometry (predRange); the counts are the keys per partition; the
// monotone flag is the model's declaration. Version 1 stores each drift
// half (range: lo, hi; midpoint: the shifts) as a width in bits and the
// entries at that half's narrowest width; version 2 a widths word and the
// halves interleaved at the wider width, zero-padded to 8 bytes. Both end
// with the int32 counts. width, when nonzero, packs every half at that
// width instead. Test-only: no build writes these blobs any more.
func legacyLayer[K kv.Key](tab layerTable[K], v3 []byte, version uint64, width int) []byte {
	n, m := int64(tab.Len()), int64(tab.M())
	keys, model := tab.Keys(), tab.Model()
	minPos, endPos, cnt := make([]int64, m), make([]int64, m), make([]int32, m)
	first := 0
	for i, x := range keys {
		if i > 0 && x != keys[i-1] {
			first = i
		}
		k := int64(model.Predict(x))
		if m != n {
			k = k * m / n
		}
		if cnt[k] == 0 || int64(first) < minPos[k] {
			minPos[k] = int64(first)
		}
		if cnt[k] == 0 || int64(i) > endPos[k] {
			endPos[k] = int64(i)
		}
		cnt[k]++
	}
	var halves [][]int64
	if le.Uint64(v3[16:]) == modeRange {
		lo, hi := make([]int64, m), make([]int64, m)
		next := n
		for k := m - 1; k >= 0; k-- {
			pmin, pmax := predRange(k, n, m)
			if cnt[k] > 0 {
				lo[k], hi[k], next = minPos[k]-pmax, endPos[k]-pmin, minPos[k]
			} else {
				lo[k], hi[k] = next-pmax, next-1-pmin
			}
		}
		halves = [][]int64{lo, hi}
	} else {
		halves = [][]int64{decodeDrifts(v3[layerHeadLen+8:], int(v3[layerHeadLen]), int(m), 1, 0)}
	}
	widths := make([]int, len(halves))
	common := 0
	for h, vals := range halves {
		widths[h] = width
		if width == 0 && m > 0 {
			var maxAbs int64
			for _, v := range vals {
				maxAbs = max(maxAbs, v, -v)
			}
			widths[h] = 1
			for widths[h] < 8 && maxAbs > int64(1)<<(8*widths[h]-1)-1 {
				widths[h] *= 2
			}
		}
		common = max(common, widths[h])
	}
	out := append([]byte(nil), v3[:layerHeadLen]...)
	le.PutUint64(out[8:], version)
	flag := uint64(0)
	if model.Monotone() {
		flag = 1
	}
	le.PutUint64(out[40:], flag)
	if version == 1 {
		for h, vals := range halves {
			out = le.AppendUint64(out, 8*uint64(widths[h]))
			for _, v := range vals {
				out = appendWord(out, uint64(v), widths[h])
			}
		}
	} else {
		word := uint64(common)
		if len(halves) == 2 {
			word |= uint64(widths[0])<<8 | uint64(widths[1])<<16
		}
		out = le.AppendUint64(out, word)
		for k := range m {
			for _, vals := range halves {
				out = appendWord(out, uint64(vals[k]), common)
			}
		}
		for len(out)%8 != 0 {
			out = append(out, 0)
		}
	}
	for _, c := range cnt {
		out = le.AppendUint32(out, uint32(c))
	}
	return out
}

// layerTable is what legacyLayer reads of a table: a *core.Table, or the
// registry backend that embeds one.
type layerTable[K kv.Key] interface {
	Len() int
	M() int
	Keys() []K
	Model() cdfmodel.Model[K]
}

// legacyOfTable renders the layer section of a current registry-kind
// container as the version-1 or version-2 blob (legacyLayer) of the table
// the container holds; a container without a layer comes back nil.
func legacyOfTable(tb testing.TB, current []byte, version uint64) []byte {
	tb.Helper()
	v3 := layerOf(tb, current)
	if v3 == nil {
		return nil
	}
	if ix, err := index.Load[uint64](bytes.NewReader(current), int64(len(current))); err == nil {
		return legacyLayer(ix.(layerTable[uint64]), v3, version, 0)
	}
	ix, err := index.Load[uint32](bytes.NewReader(current), int64(len(current)))
	if err != nil {
		tb.Fatal(err)
	}
	return legacyLayer(ix.(layerTable[uint32]), v3, version, 0)
}

// layerOf returns the layer section of a shift-table container, nil for
// any other kind.
func layerOf(tb testing.TB, current []byte) []byte {
	tb.Helper()
	m, err := snapshot.Open(current)
	if err != nil {
		tb.Fatal(err)
	}
	for {
		s, err := m.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			tb.Fatal(err)
		}
		if s.ID == layerIDs[m.Kind()] {
			return s.Data
		}
	}
}

// reversed declares itself monotone but predicts in reverse order: the
// build's coverage check, and the migration's, clear the monotone flag of
// its range layers.
type reversed struct {
	inner *cdfmodel.Interpolation[uint64]
	n     int
}

func (m reversed) Predict(k uint64) int { return max(m.n-1-m.inner.Predict(k), 0) }
func (m reversed) Monotone() bool       { return true }
func (m reversed) SizeBytes() int       { return m.inner.SizeBytes() }
func (m reversed) Name() string         { return "reversed" }

// layerBlob returns the v3 layer blob of tab, as a snapshot embeds it.
func layerBlob(t *testing.T, tab *core.Table[uint64]) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := index.Save[uint64](&buf, tab); err != nil {
		t.Fatal(err)
	}
	return layerOf(t, buf.Bytes())
}

// TestLayerV1RoundTrip: for built layers in both modes, the v1 and v2
// blobs an earlier build wrote for the same table — at the widths it
// chose, and with every entry widened to 8 bytes — migrate to the v3 blob
// this build writes, byte for byte, and a v3 blob migrates to itself.
// Builds choose 1-, 2- and 4-byte entries (the last from keys crowded
// under one outlier, whose drifts approach N). A model that declares
// itself monotone but predicts in reverse fails the coverage check in the
// build and in the migration alike.
func TestLayerV1RoundTrip(t *testing.T) {
	crowded := dataset.MustGenerate(dataset.UDen, 64, 40_000, 3)
	crowded = append(crowded, crowded[len(crowded)-1]|1<<62)
	corpora := map[string][]uint64{
		"dense":   dataset.MustGenerate(dataset.UDen, 64, 2_000, 3),
		"face":    dataset.MustGenerate(dataset.Face, 64, 20_000, 5),
		"crowded": crowded,
		"empty":   nil,
	}
	seen := map[string]bool{}
	for name, keys := range corpora {
		im := cdfmodel.NewInterpolation(keys)
		for _, c := range []struct {
			model cdfmodel.Model[uint64]
			cfg   core.Config
		}{
			{im, core.Config{Mode: core.ModeRange}},
			{im, core.Config{Mode: core.ModeRange, M: len(keys)/3 + 1}},
			{im, core.Config{Mode: core.ModeMidpoint}},
			{reversed{im, len(keys)}, core.Config{Mode: core.ModeRange}},
		} {
			tab, err := core.Build(keys, c.model, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			v3 := layerBlob(t, tab)
			if back, err := Layer(v3); err != nil || !bytes.Equal(back, v3) {
				t.Fatalf("%s %v: a v3 blob does not migrate to itself (%v)", name, c.cfg.Mode, err)
			}
			for _, version := range []uint64{1, 2} {
				for _, width := range []int{0, 8} {
					if width == 8 && tab.M() == 0 {
						continue
					}
					legacy := legacyLayer(tab, v3, version, width)
					got := width
					if got == 0 && tab.M() > 0 {
						got = tab.ComputeStats().EntryBits / 8
					}
					seen[fmt.Sprintf("%v/%d", c.cfg.Mode, got)] = true
					back, err := Layer(legacy)
					if err != nil {
						t.Fatalf("%s %s %v v%d width %d: %v", name, c.model.Name(), c.cfg.Mode, version, width, err)
					}
					if !bytes.Equal(back, v3) {
						t.Fatalf("%s %s %v M=%d v%d width %d: the migration differs from the build's v3 blob",
							name, c.model.Name(), c.cfg.Mode, tab.M(), version, width)
					}
				}
			}
		}
	}
	for _, mode := range []core.Mode{core.ModeRange, core.ModeMidpoint} {
		for _, width := range []int{0, 1, 2, 4, 8} {
			if !seen[fmt.Sprintf("%v/%d", mode, width)] {
				t.Errorf("no %v layer with %d-byte entries was migrated", mode, width)
			}
		}
	}
}

// TestLayerRejects: a v1 or v2 blob whose widths or lengths disagree
// with its header is refused before anything is sized by it.
func TestLayerRejects(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 3_000, 5)
	tab, err := core.Build(keys, cdfmodel.NewInterpolation(keys), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v3 := layerBlob(t, tab)
	for _, version := range []uint64{1, 2} {
		legacy := legacyLayer(tab, v3, version, 0)
		set := func(off int, v uint64) []byte {
			b := append([]byte(nil), legacy...)
			le.PutUint64(b[off:], v)
			return b
		}
		cases := map[string][]byte{
			"short header":      legacy[:40],
			"bad magic":         set(0, 1),
			"version 4":         set(8, 4),
			"bad mode":          set(16, 7),
			"bad monotone flag": set(40, 2),
			"m past the blob":   set(32, 1<<40),
			"zero width":        set(layerHeadLen, 0),
			"odd width":         set(layerHeadLen, 12),
			"truncated":         legacy[:len(legacy)-1],
			"trailing byte":     append(append([]byte(nil), legacy...), 0),
			"empty layer width": set(32, 0),
		}
		if version == 2 {
			cases["reserved width byte"] = set(layerHeadLen, le.Uint64(legacy[layerHeadLen:])|1<<24)
			cases["common width not the wider half's"] = set(layerHeadLen, le.Uint64(legacy[layerHeadLen:])&^0xFF|8)
		}
		for name, blob := range cases {
			if _, err := Layer(blob); err == nil {
				t.Errorf("v%d %s: accepted", version, name)
			}
		}
	}
	// A nonzero byte in the v2 padding (m = 3,000 two-byte pairs leave
	// none, so pad a three-partition layer).
	small, err := core.Build(keys[:3], cdfmodel.NewInterpolation(keys[:3]), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v2 := legacyLayer(small, layerBlob(t, small), 2, 0)
	v2[len(v2)-4*3-1] = 1
	if _, err := Layer(v2); err == nil {
		t.Error("v2 nonzero padding: accepted")
	}
}

// legacyOf writes a current registry-kind container the way earlier
// builds did — stream-framed, key sections without the alignment pad,
// layers as v1 blobs — into dir and returns its bytes.
func legacyOf(t testing.TB, dir string, current []byte) []byte {
	t.Helper()
	v1 := legacyOfTable(t, current, 1)
	m, err := snapshot.Open(current)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "legacy.snap")
	err = snapshot.SaveStreamFile(path, m.Kind(), func(sw *snapshot.Writer) error {
		for {
			s, err := m.Next()
			if errors.Is(err, io.EOF) {
				return nil
			}
			payload := s.Data
			switch s.ID {
			case secKeys:
				payload = append(append([]byte(nil), payload[:4]...), payload[8:]...)
			case layerIDs[m.Kind()]:
				payload = v1
			}
			if err := sw.Bytes(s.ID, payload); err != nil {
				return err
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFullInvertsLegacy: for every registry kind, in both layer modes
// and at both key widths, Full turns the stream-framed v1 rendition of a
// current container back into that container byte for byte, and leaves
// a current container as it is.
func TestFullInvertsLegacy(t *testing.T) {
	dir := t.TempDir()
	keys := dataset.MustGenerate(dataset.Face, 64, 3_000, 9)
	keys32 := dataset.MustGenerate(dataset.Face, 32, 3_000, 9)
	var currents [][]byte
	save := func(ix interface{ SnapshotKind() string }, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		switch ix := ix.(type) {
		case index.Index[uint64]:
			err = index.Save(&buf, ix)
		case index.Index[uint32]:
			err = index.Save(&buf, ix)
		}
		if err != nil {
			t.Fatal(err)
		}
		currents = append(currents, buf.Bytes())
	}
	for _, mode := range []core.Mode{core.ModeRange, core.ModeMidpoint} {
		save(core.Build(keys, cdfmodel.NewInterpolation(keys), core.Config{Mode: mode}))
		save(core.Build(keys32, cdfmodel.NewInterpolation(keys32), core.Config{Mode: mode, M: 700}))
	}
	save(core.NewModelIndex(keys, cdfmodel.NewInterpolation(keys)))
	for i, current := range currents {
		for name, in := range map[string][]byte{"legacy": legacyOf(t, dir, current), "current": current} {
			got, err := Full(in)
			if err != nil {
				t.Fatalf("container %d (%s): %v", i, name, err)
			}
			if !bytes.Equal(got, current) {
				t.Fatalf("container %d (%s): Full does not reproduce the current container", i, name)
			}
		}
	}
}

// TestFullRejects: inputs that are not a full this package can rewrite
// fail with an error: a delta, a kind it does not know, a broken
// checksum, a truncation.
func TestFullRejects(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 1_000, 2)
	c, err := concurrent.New(keys, concurrent.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Insert(7)
	dir := t.TempDir()
	delta := filepath.Join(dir, "delta.snap")
	if err := concurrent.SaveDeltaFile(delta, c.Published(), concurrent.DeltaInfo{Version: 2, Base: 1}); err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(dir, "other.snap")
	if err := snapshot.SaveFile(other, "no-such-kind", func(sw *snapshot.Writer) error { return sw.Bytes(1, nil) }); err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if err := concurrent.Save(&full, c); err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), full.Bytes()...)
	flipped[len(flipped)/2] ^= 1
	inputs := map[string][]byte{
		"delta":     readFile(t, delta),
		"kind":      readFile(t, other),
		"checksum":  flipped,
		"truncated": full.Bytes()[:full.Len()-1],
		"empty":     nil,
	}
	for name, data := range inputs {
		if _, err := Full(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzMigrate: any bytes either fail to migrate with an error, or
// migrate to a container that the verified heap load accepts and that
// migrates to itself. Seeded with every file under testdata/v1, the
// updatable and concurrent golden files and their v2-layer originals,
// and shift-tables with midpoint-mode v1 layers, stream-framed, and v1
// and v2 layers in a v2 container; the
// checksums the input must carry keep mutations at the container checks,
// which is where a migration meets a damaged file.
//
//	go test ./internal/migrate -run xxx -fuzz FuzzMigrate -fuzztime 60s
func FuzzMigrate(f *testing.F) {
	root := filepath.Join("..", "..")
	for _, p := range []string{
		"testdata/v1/shift-table.snap",
		"testdata/v1/model-index.snap",
		"testdata/v1/updatable.snap",
		"testdata/v1/concurrent.snap",
		"testdata/v1/store/MANIFEST",
		"testdata/v1/store/full-00000001.snap",
		"testdata/v1/store/delta-00000002.snap",
		"internal/updatable/testdata/tombstone-free.snap",
		"internal/updatable/testdata/tombstone-free-v2.snap",
		"internal/concurrent/testdata/golden.snap",
		"internal/concurrent/testdata/golden-v2.snap",
	} {
		f.Add(readFile(f, filepath.Join(root, filepath.FromSlash(p))))
	}
	keys := dataset.MustGenerate(dataset.Face, 64, 600, 12)
	for _, m := range []int{0, 150} {
		tab, err := core.Build(keys, cdfmodel.NewInterpolation(keys), core.Config{Mode: core.ModeMidpoint, M: m})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := index.Save[uint64](&buf, tab); err != nil {
			f.Fatal(err)
		}
		f.Add(legacyOf(f, f.TempDir(), buf.Bytes()))
		f.Add(withLayer(f, buf.Bytes(), 1))
		f.Add(withLayer(f, buf.Bytes(), 2))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := Full(data)
		if err != nil {
			return
		}
		ix, err := index.Load[uint64](bytes.NewReader(out), int64(len(out)))
		if err != nil {
			ix32, err32 := index.Load[uint32](bytes.NewReader(out), int64(len(out)))
			if err32 != nil {
				t.Fatalf("migrated container does not load: %v / %v", err, err32)
			}
			release(ix32)
		} else {
			release(ix)
		}
		if again, err := Full(out); err != nil || !bytes.Equal(again, out) {
			t.Fatalf("a migrated container does not migrate to itself (%v)", err)
		}
	})
}

// withLayer rewrites a shift-table v2 container with its layer blob in the
// given legacy version: v1 is the form the bug a mapped v1 layer caused
// lived in, v2 the form every full had before layers became v3.
func withLayer(tb testing.TB, current []byte, version uint64) []byte {
	tb.Helper()
	legacy := legacyOfTable(tb, current, version)
	m, err := snapshot.Open(current)
	if err != nil {
		tb.Fatal(err)
	}
	var out bytes.Buffer
	sw, err := snapshot.NewWriter(&out, m.Kind())
	if err != nil {
		tb.Fatal(err)
	}
	for {
		s, err := m.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		payload := s.Data
		if s.ID == secTableLayer {
			payload = legacy
		}
		if err := sw.Bytes(s.ID, payload); err != nil {
			tb.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// release stops a restored concurrent index's compactor.
func release(ix any) {
	if c, ok := ix.(interface{ Close() }); ok {
		c.Close()
	}
}

func readFile(tb testing.TB, path string) []byte {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

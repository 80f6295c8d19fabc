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
	"repro/internal/snapshot"
)

// v1Layer is the inverse of Layer: it writes a v2 layer blob as the
// split-array v1 blob earlier builds wrote (the header with version 1,
// then per drift half its width in bits and its entries at that width —
// range mode's lo and hi de-interleaved, each at its own recorded width —
// then the counts). Test-only: no build writes v1 blobs any more.
func v1Layer(v2 []byte) ([]byte, error) {
	if len(v2) < layerHeadLen+8 || le.Uint64(v2) != layerMagic || le.Uint64(v2[8:]) != 2 {
		return nil, fmt.Errorf("not a v2 layer blob")
	}
	m := int(le.Uint64(v2[32:]))
	widths := le.Uint64(v2[layerHeadLen:])
	width, lo, hi := int(byte(widths)), int(byte(widths>>8)), int(byte(widths>>16))
	data := v2[layerHeadLen+8:]
	out := append([]byte(nil), v2[:layerHeadLen]...)
	le.PutUint64(out[8:], 1)
	n := m * width
	if le.Uint64(v2[16:]) == modeRange {
		n *= 2
		for half, w := range []int{lo, hi} {
			out = le.AppendUint64(out, 8*uint64(w))
			for k := 0; k < m; k++ {
				out = appendWord(out, signed(word(data, 2*k+half, width), width), w)
			}
		}
	} else {
		out = le.AppendUint64(out, 8*uint64(width))
		out = append(out, data[:n]...)
	}
	return append(out, data[n+(8-n%8)%8:]...), nil
}

// widened re-packs a v2 layer blob with 8-byte entries (and 8-byte split
// widths in range mode): the widest entry width, which no build over
// fewer than 2³¹ keys chooses.
func widened(v2 []byte) []byte {
	m := int(le.Uint64(v2[32:]))
	width := int(v2[layerHeadLen])
	entries, widths := m, uint64(8)
	if le.Uint64(v2[16:]) == modeRange {
		entries, widths = 2*m, 8|8<<8|8<<16
	}
	data := v2[layerHeadLen+8:]
	out := le.AppendUint64(append([]byte(nil), v2[:layerHeadLen]...), widths)
	for i := 0; i < entries; i++ {
		out = appendWord(out, signed(word(data, i, width), width), 8)
	}
	n := entries * width
	return append(out, data[n+(8-n%8)%8:]...)
}

// layerBlob returns the v2 layer blob of tab, as a snapshot embeds it.
func layerBlob(t *testing.T, tab *core.Table[uint64]) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := index.Save[uint64](&buf, tab); err != nil {
		t.Fatal(err)
	}
	m, err := snapshot.Open(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for {
		s, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if s.ID == secTableLayer {
			return s.Data
		}
	}
}

// TestLayerV1RoundTrip: for built layers in both modes at every entry
// width, v1 → v2 → v1 and v2 → v1 → v2 are byte-identical, so Layer loses
// nothing and produces exactly what this build writes for the table.
// Builds choose 1-, 2- and 4-byte entries (the last from keys crowded
// under one outlier, whose drifts approach N); 8-byte entries are the
// 4-byte layers re-packed.
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
		for _, mode := range []core.Mode{core.ModeRange, core.ModeMidpoint} {
			tab, err := core.Build(keys, cdfmodel.NewInterpolation(keys), core.Config{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			blob := layerBlob(t, tab)
			blobs := [][]byte{blob}
			if tab.M() > 0 && tab.ComputeStats().EntryBits == 32 {
				blobs = append(blobs, widened(blob))
			}
			for _, v2 := range blobs {
				width := int(v2[layerHeadLen])
				seen[fmt.Sprintf("%v/%d", mode, width)] = true
				v1, err := v1Layer(v2)
				if err != nil {
					t.Fatal(err)
				}
				back, err := Layer(v1)
				if err != nil {
					t.Fatalf("%s %v width %d: %v", name, mode, width, err)
				}
				if !bytes.Equal(back, v2) {
					t.Fatalf("%s %v width %d: v2 → v1 → v2 is not byte-identical", name, mode, width)
				}
				again, err := v1Layer(back)
				if err != nil || !bytes.Equal(again, v1) {
					t.Fatalf("%s %v width %d: v1 → v2 → v1 is not byte-identical (%v)", name, mode, width, err)
				}
			}
		}
	}
	for _, mode := range []core.Mode{core.ModeRange, core.ModeMidpoint} {
		for _, width := range []int{0, 1, 2, 4, 8} {
			if !seen[fmt.Sprintf("%v/%d", mode, width)] {
				t.Errorf("no %v layer with %d-byte entries was round-tripped", mode, width)
			}
		}
	}
}

// TestLayerRejects: a v1 blob whose widths or lengths disagree with its
// header is refused before anything is sized by it.
func TestLayerRejects(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 3_000, 5)
	tab, err := core.Build(keys, cdfmodel.NewInterpolation(keys), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := v1Layer(layerBlob(t, tab))
	if err != nil {
		t.Fatal(err)
	}
	set := func(off int, v uint64) []byte {
		b := append([]byte(nil), v1...)
		le.PutUint64(b[off:], v)
		return b
	}
	cases := map[string][]byte{
		"short header":      v1[:40],
		"bad magic":         set(0, 1),
		"version 3":         set(8, 3),
		"bad mode":          set(16, 7),
		"m past the blob":   set(32, 1<<40),
		"zero-width lo":     set(layerHeadLen, 0),
		"odd width":         set(layerHeadLen, 12),
		"truncated":         v1[:len(v1)-1],
		"trailing byte":     append(append([]byte(nil), v1...), 0),
		"empty layer width": set(32, 0),
	}
	for name, blob := range cases {
		if _, err := Layer(blob); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// legacyOf writes a current registry-kind container the way earlier
// builds did — stream-framed, key sections without the alignment pad,
// layers as v1 blobs — into dir and returns its bytes.
func legacyOf(t testing.TB, dir string, current []byte) []byte {
	t.Helper()
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
				if payload, err = v1Layer(payload); err != nil {
					return err
				}
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
// updatable and concurrent golden files, and shift-tables with
// midpoint-mode v1 layers, stream-framed and in a v2 container; the
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
		"internal/concurrent/testdata/golden.snap",
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
		f.Add(withV1Layers(f, buf.Bytes()))
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

// withV1Layers rewrites a shift-table v2 container with its layer blob in
// the v1 form: the legacy form the bug a mapped v1 layer caused lived in.
func withV1Layers(tb testing.TB, current []byte) []byte {
	tb.Helper()
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
			if payload, err = v1Layer(payload); err != nil {
				tb.Fatal(err)
			}
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

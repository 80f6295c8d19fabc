package repro_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/concurrent"
	"repro/internal/index"
	"repro/internal/migrate"
	"repro/internal/snapshot"
	"repro/internal/updatable"
)

// FuzzDecode drives every snapshot decoder — the shift-table,
// model-index and concurrent kinds through the index registry,
// and generation deltas through concurrent.LoadDelta — with arbitrary
// bytes. Half the inputs are resealed first (every checksum recomputed),
// so a mutation reaches the section decoders instead of dying at a CRC.
// The property: whatever the verified heap load accepts, the unverified
// mapped open of the same bytes accepts too and answers identically;
// whatever the heap load refuses as a legacy full, the mapped open
// refuses as one too; whatever the mapped open accepts answers every
// rank in [0, Len] without panicking; deltas load or fail without
// panicking. The seeds include every full earlier builds wrote, which
// both entry points refuse (snapshot.ErrLegacy).
//
//	go test . -run xxx -fuzz FuzzDecode -fuzztime 60s
func FuzzDecode(f *testing.F) {
	for _, seed := range decodeSeeds(f) {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal {
			data = resealed(data)
		}
		checkDecode(t, dir, data)
	})
}

// decodeProbes are the queries every decoded index answers: the fixture
// keys, their neighbours, and the extremes.
var decodeProbes = func() []uint64 {
	qs := []uint64{0, 1, ^uint64(0)}
	keys := v1FixtureKeys()
	for i := 0; i < len(keys); i += 29 {
		qs = append(qs, keys[i]-1, keys[i], keys[i]+1)
	}
	return qs
}()

// answers is a decoded index's probe transcript: Len, then Find of
// every probe.
func answers(ix index.Index[uint64]) []int {
	out := []int{ix.Len()}
	for _, q := range decodeProbes {
		out = append(out, ix.Find(q))
	}
	return out
}

// closeIndex stops a restored concurrent index's compactor.
func closeIndex(ix index.Index[uint64]) {
	if c, ok := ix.(interface{ Close() }); ok {
		c.Close()
	}
}

// checkDecode runs both entry points over data and checks they agree.
func checkDecode(t *testing.T, dir string, data []byte) {
	t.Helper()
	var heap []int
	ix, heapErr := index.Load[uint64](bytes.NewReader(data), int64(len(data)))
	if heapErr == nil {
		heap = answers(ix)
		closeIndex(ix)
	}
	f, err := os.CreateTemp(dir, "decode-*.snap")
	if err != nil {
		t.Fatal(err)
	}
	path := f.Name()
	defer os.Remove(path)
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err = index.LoadFileMapped[uint64](path)
	switch {
	case err != nil && heap != nil:
		t.Fatalf("the verified heap load accepted what the mapped open rejects: %v", err)
	case errors.Is(heapErr, snapshot.ErrLegacy) && !errors.Is(err, snapshot.ErrLegacy):
		t.Fatalf("the heap load refused a legacy full (%v), the mapped open says %v", heapErr, err)
	case err == nil:
		got := answers(ix)
		closeIndex(ix)
		for i, r := range got[1:] {
			if r < 0 || r > got[0] {
				t.Fatalf("mapped open: Find(%d) = %d outside [0, %d]", decodeProbes[i], r, got[0])
			}
		}
		if heap != nil {
			for i := range heap {
				if heap[i] != got[i] {
					t.Fatalf("heap and mapped loads disagree at transcript entry %d: %d vs %d", i, heap[i], got[i])
				}
			}
		}
	}
	if d, err := concurrent.LoadDelta[uint64](bytes.NewReader(data), int64(len(data))); err == nil {
		if d.Info.Version <= d.Info.Base || d.Pending() < 0 {
			t.Fatalf("delta accepted with info %+v and %d pending", d.Info, d.Pending())
		}
	}
}

// decodeSeeds returns every committed snapshot fixture, a fresh v2 file
// of each kind and a fresh delta, plus truncations and byte flips of
// each.
func decodeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var files [][]byte
	for _, p := range []string{
		"testdata/v1/shift-table.snap",
		"testdata/v1/model-index.snap",
		"testdata/v1/updatable.snap",
		"testdata/v1/concurrent.snap",
		"testdata/v1/store/MANIFEST",
		"testdata/v1/store/full-00000001.snap",
		"testdata/v1/store/delta-00000002.snap",
		"internal/concurrent/testdata/golden.snap",
		"internal/concurrent/testdata/golden-v2.snap",
		"internal/updatable/testdata/tombstone-free.snap",
		"internal/updatable/testdata/tombstone-free-v2.snap",
	} {
		data, err := os.ReadFile(filepath.FromSlash(p))
		if err != nil {
			tb.Fatal(err)
		}
		files = append(files, data)
	}
	files = append(files, freshSnapshots(tb)...)
	seeds := append([][]byte(nil), files...)
	for _, data := range files {
		for _, cut := range []int{len(data) / 3, len(data) - 40, len(data) - 1} {
			if cut > 0 {
				seeds = append(seeds, data[:cut])
			}
		}
		for _, at := range []int{20, len(data) / 2, len(data) - 20} {
			if at > 0 && at < len(data) {
				flip := append([]byte(nil), data...)
				flip[at] ^= 0x5A
				seeds = append(seeds, flip)
			}
		}
	}
	return seeds
}

// freshSnapshots writes small v2 files of each kind this build writes —
// a Shift-Table over each model family that persists a spec, a bare
// model, a concurrent index with and without pending generations — and
// one delta.
func freshSnapshots(tb testing.TB) [][]byte {
	tb.Helper()
	dir := tb.TempDir()
	keys := v1FixtureKeys()[:400]
	var out [][]byte
	save := func(name string, ix index.Index[uint64]) {
		path := filepath.Join(dir, name)
		if err := index.SaveFile(path, ix); err != nil {
			tb.Fatal(err)
		}
		out = append(out, readFile(tb, path))
	}
	for _, name := range []string{"IM+ST", "RS+ST", "RMI+ST", "IM"} {
		ix, err := index.Build(name, keys)
		if err != nil {
			tb.Fatal(err)
		}
		save(name+".snap", ix)
	}
	c, err := concurrent.New(keys, concurrent.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	c.Close()
	save("concurrent-compacted.snap", c) // no generations
	for i := 0; i < 60; i++ {
		if i%4 == 3 {
			c.Delete(keys[i*5])
		} else {
			c.Insert(keys[(i*13)%len(keys)] + uint64(i%5))
		}
	}
	save("concurrent.snap", c)
	delta := filepath.Join(dir, "delta.snap")
	if err := concurrent.SaveDeltaFile(delta, c.Published(), concurrent.DeltaInfo{Version: 2, Base: 1, BaseCRC: 7}); err != nil {
		tb.Fatal(err)
	}
	return append(out, readFile(tb, delta))
}

func readFile(tb testing.TB, path string) []byte {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// resealed returns a copy of data with every checksum it can locate
// recomputed: a v1 container's trailing CRC after its end marker; a v2
// container's per-section CRCs in the TOC, the TOC CRC and the
// whole-container CRC. Anything it cannot locate is left as it is, and
// it never reads out of bounds, whatever the input.
func resealed(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) < 16 {
		return out
	}
	le := binary.LittleEndian
	switch string(out[:8]) {
	case "STSNAP01":
		pos := uint64(16) + uint64(le.Uint32(out[12:]))
		for pos+16 <= uint64(len(out)) {
			id, size := le.Uint32(out[pos:]), le.Uint64(out[pos+8:])
			pos += 16
			if id == 0 {
				if pos+8 <= uint64(len(out)) {
					le.PutUint64(out[pos:], uint64(crc32.Checksum(out[:pos], castagnoli)))
				}
				break
			}
			if size > uint64(len(out))-pos {
				break
			}
			pos += size
		}
	case "STSNAP02":
		const footer = 32
		if len(out) < footer {
			return out
		}
		foot := out[len(out)-footer:]
		tocOff, count := le.Uint64(foot), uint64(le.Uint32(foot[8:]))
		tocEnd := uint64(len(out) - footer)
		if tocOff > tocEnd || (tocEnd-tocOff)/24 < count {
			return out
		}
		for i := uint64(0); i < count; i++ {
			e := out[tocOff+24*i:]
			off, n := le.Uint64(e[8:]), le.Uint64(e[16:])
			if off <= tocEnd && n <= tocEnd-off {
				le.PutUint32(e[4:], crc32.Checksum(out[off:off+n], castagnoli))
			}
		}
		toc := crc32.New(castagnoli)
		toc.Write(out[tocOff:tocEnd])
		toc.Write(foot[:12])
		le.PutUint32(foot[12:], toc.Sum32())
		le.PutUint32(foot[16:], crc32.Checksum(out[:len(out)-16], castagnoli))
	}
	return out
}

// TestHeapLoadRejectsResealedInvalid: containers whose every checksum is
// valid but whose content breaks an O(n) invariant — keys out of order, a
// range layer's partitions starting outside the keys — are rejected by
// the verified heap load of every kind. The unverified mapped open of a v2 file does not
// run those checks (it stays O(sections)), so it accepts them. A v1
// full is refused as legacy, and its migration does not launder the
// damage: the heap load rejects the migrated container too.
func TestHeapLoadRejectsResealedInvalid(t *testing.T) {
	keys := v1FixtureKeys()
	dir := t.TempDir()
	v2 := func(ix index.Index[uint64]) []byte {
		path := filepath.Join(dir, ix.Name()+".snap")
		if err := index.SaveFile(path, ix); err != nil {
			t.Fatal(err)
		}
		return readFile(t, path)
	}
	shift, err := index.Build("IM+ST", keys)
	if err != nil {
		t.Fatal(err)
	}
	model, err := index.Build("IM", keys)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := concurrent.New(keys, concurrent.Config{})
	if err != nil {
		t.Fatal(err)
	}
	conc.Close()
	// layer marks the kinds whose section 3 is a v3 range-mode layer.
	cases := []struct {
		name      string
		data      []byte
		v1, layer bool
	}{
		{"shift-table", v2(shift), false, true},
		{"model-index", v2(model), false, false},
		{"concurrent", v2(conc), false, true},
		{"v1/shift-table", readFile(t, "testdata/v1/shift-table.snap"), true, false},
		{"v1/concurrent", readFile(t, "testdata/v1/concurrent.snap"), true, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			secs := sectionsOf(t, c.data, c.v1)
			// Swap the second and third keys of the first key section
			// (id 1 in every kind): positions the layer's strided key
			// fingerprint does not sample, so only the order check sees it.
			unsorted := append([]byte(nil), c.data...)
			k := secs[1][0] + 8
			if c.v1 {
				k = secs[1][0] + 4
			}
			a, b := unsorted[k+8:k+16], unsorted[k+16:k+24]
			if bytes.Equal(a, b) {
				t.Fatal("fixture keys 1 and 2 are equal")
			}
			tmp := append([]byte(nil), a...)
			copy(a, b)
			copy(b, tmp)
			mutants := map[string][]byte{"unsorted keys": resealed(unsorted)}
			// Partitions starting outside the keys: in the base layer
			// (section 3, a v3 blob whose widths word at byte 64 is followed
			// by the m+1 lower bounds) the sign bit of lo[0] set, so the
			// first partition starts before position 0, or the closing
			// entry lo[m] made nonzero.
			if c.layer {
				layer := secs[3]
				width := int(c.data[layer[0]+64])
				negative := append([]byte(nil), c.data...)
				negative[layer[0]+72+width-1] |= 0x80
				mutants["a partition starting before the keys"] = resealed(negative)
				closing := append([]byte(nil), c.data...)
				closing[layer[0]+layer[1]-width] ^= 1
				mutants["a nonzero closing bound"] = resealed(closing)
			}
			for what, data := range mutants {
				if c.v1 {
					if _, err := index.Load[uint64](bytes.NewReader(data), int64(len(data))); !errors.Is(err, snapshot.ErrLegacy) {
						t.Fatalf("%s: the heap load of a v1 full with %s: %v, want snapshot.ErrLegacy", c.name, what, err)
					}
					if data, err = migrate.Full(data); err != nil {
						continue
					}
				}
				if ix, err := index.Load[uint64](bytes.NewReader(data), int64(len(data))); err == nil {
					closeIndex(ix)
					t.Fatalf("%s: the heap load accepted a container with %s", c.name, what)
				}
				if c.v1 {
					continue
				}
				path := filepath.Join(dir, "mutant.snap")
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				ix, err := index.LoadFileMapped[uint64](path)
				if err != nil {
					t.Fatalf("%s: the unverified mapped open rejected %s: %v", c.name, what, err)
				}
				closeIndex(ix)
			}
		})
	}
}

// sectionsOf maps each section id to the [offset, length] of its first
// payload in a well-formed container.
func sectionsOf(t *testing.T, data []byte, v1 bool) map[uint32][2]int {
	t.Helper()
	le := binary.LittleEndian
	out := map[uint32][2]int{}
	if v1 {
		pos := 16 + int(le.Uint32(data[12:]))
		for {
			id, size := le.Uint32(data[pos:]), int(le.Uint64(data[pos+8:]))
			pos += 16
			if id == 0 {
				return out
			}
			if _, ok := out[id]; !ok {
				out[id] = [2]int{pos, size}
			}
			pos += size
		}
	}
	foot := data[len(data)-32:]
	toc, count := int(le.Uint64(foot)), int(le.Uint32(foot[8:]))
	for i := 0; i < count; i++ {
		e := data[toc+24*i:]
		if _, ok := out[le.Uint32(e)]; !ok {
			out[le.Uint32(e)] = [2]int{int(le.Uint64(e[8:])), int(le.Uint64(e[16:]))}
		}
	}
	return out
}

// TestMappedV1LayerOutlivesHandle: a v2 container whose layer section
// holds the split-array v1 blob earlier builds wrote once decoded that
// layer onto the heap while its keys viewed the mapping, and lost the
// mapping when the open's handle closed. Such a container is now a
// legacy full: every serving entry point refuses it with
// snapshot.ErrLegacy. Its migration opens mapped, and the restored index
// keeps the region alive after LoadFileMapped closes its own handle.
// The shift-table input is the committed corpus input
// testdata/fuzz/FuzzDecode/v2-with-v1-layer; the concurrent one splices
// its layer blob into a concurrent file over the same table. Both are
// answered against that table.
func TestMappedV1LayerOutlivesHandle(t *testing.T) {
	keys := v1FixtureKeys()[:400]
	base, err := updatable.New(keys, updatable.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := answers(base.View().Table())
	shift := corpusInput(t, "testdata/fuzz/FuzzDecode/v2-with-v1-layer")
	conc, err := concurrent.New(keys, concurrent.Config{})
	if err != nil {
		t.Fatal(err)
	}
	conc.Close()
	dir := t.TempDir()
	path := filepath.Join(dir, "concurrent.snap")
	if err := index.SaveFile(path, conc); err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		name string
		data []byte
		// entry points that take the kind (a shift-table is no
		// concurrent file, legacy or not)
		entry []string
	}{
		{"shift-table", shift, []string{"index."}},
		{"concurrent", withLayer(t, readFile(t, path), layerOf(t, shift)), []string{"index.", "concurrent."}},
	}
	for _, in := range inputs {
		name := in.name
		legacy := filepath.Join(dir, name+"-v1-layer.snap")
		if err := os.WriteFile(legacy, in.data, 0o644); err != nil {
			t.Fatal(err)
		}
		checkRefused(t, legacy, in.entry...)
		got, err := index.LoadFileMapped[uint64](migrateFixture(t, legacy))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runtime.GC()
		if a := answers(got); !slices.Equal(a, want) {
			t.Fatalf("%s: the migrated file answers %v, want %v", name, a[:8], want[:8])
		}
		closeIndex(got)
	}
}

// corpusInput reads the []byte argument of a committed fuzz corpus file.
func corpusInput(t *testing.T, path string) []byte {
	t.Helper()
	lines := strings.Split(string(readFile(t, filepath.FromSlash(path))), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[1], "[]byte(") {
		t.Fatalf("%s: not a []byte corpus input", path)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(data)
}

// layerOf returns the payload of a v2 container's layer section (id 3).
func layerOf(t *testing.T, data []byte) []byte {
	t.Helper()
	secs := sectionsOf(t, data, false)
	return data[secs[3][0] : secs[3][0]+secs[3][1]]
}

// withLayer rewrites a v2 container with its one layer section replaced
// by blob (every checksum written afresh).
func withLayer(t *testing.T, data, blob []byte) []byte {
	t.Helper()
	m, err := snapshot.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sw, err := snapshot.NewWriter(&out, m.Kind())
	if err != nil {
		t.Fatal(err)
	}
	for {
		s, err := m.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		payload := s.Data
		if s.ID == 3 {
			payload = blob
		}
		if err := sw.Bytes(s.ID, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

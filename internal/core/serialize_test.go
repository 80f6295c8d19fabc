package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cdfmodel"
	"repro/internal/dataset"
	"repro/internal/kv"
	"repro/internal/snapshot"
)

// layerBlob returns tab's v3 layer blob, as snapshots embed it.
func layerBlob[K kv.Key](tb testing.TB, tab *Table[K]) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := tab.writeLayer(&buf); err != nil {
		tb.Fatal(err)
	}
	if int64(buf.Len()) != tab.layerSize() {
		tb.Fatalf("writeLayer wrote %d bytes, layerSize says %d", buf.Len(), tab.layerSize())
	}
	return buf.Bytes()
}

func TestLayerRoundTrip(t *testing.T) {
	for _, name := range []dataset.Name{dataset.Face, dataset.Wiki, dataset.UDen} {
		keys := dataset.MustGenerate(name, 64, 20_000, 5)
		model := cdfmodel.NewInterpolation(keys)
		for _, cfg := range []Config{
			{Mode: ModeRange},
			{Mode: ModeMidpoint},
			{Mode: ModeRange, M: 777},
		} {
			orig, err := Build(keys, model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			blob := layerBlob(t, orig)
			loaded, err := viewLayer(blob, keys, model)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.M() != orig.M() || loaded.Mode() != orig.Mode() || loaded.Len() != orig.Len() {
				t.Fatal("round-trip metadata mismatch")
			}
			if again := layerBlob(t, loaded); !bytes.Equal(again, blob) {
				t.Fatalf("%s %v: a viewed layer does not write back byte for byte", name, cfg.Mode)
			}
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 3000; i++ {
				q := rng.Uint64() % (keys[len(keys)-1] + 3)
				if got, want := loaded.Find(q), orig.Find(q); got != want {
					t.Fatalf("%s %v: loaded Find(%d) = %d, want %d", name, cfg.Mode, q, got, want)
				}
			}
			if loaded.AvgError() != orig.AvgError() {
				t.Error("partition counts not preserved")
			}
		}
	}
}

func TestLoadRejectsMismatches(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 10_000, 5)
	model := cdfmodel.NewInterpolation(keys)
	tab, err := Build(keys, model, Config{})
	if err != nil {
		t.Fatal(err)
	}
	blob := layerBlob(t, tab)

	// Wrong data.
	other := dataset.MustGenerate(dataset.Face, 64, 10_000, 6)
	if _, err := viewLayer(blob, other, cdfmodel.NewInterpolation(other)); err == nil {
		t.Error("a layer built over different keys was accepted")
	}
	// Wrong length.
	if _, err := viewLayer(blob, keys[:500], model); err == nil {
		t.Error("a key-count mismatch was accepted")
	}
	// Wrong model family.
	if _, err := viewLayer(blob, keys, cdfmodel.NewLinear(keys)); err == nil {
		t.Error("a different model was accepted")
	}
	// Nil model.
	if _, err := viewLayer[uint64](blob, keys, nil); err == nil {
		t.Error("a nil model was accepted")
	}
	// Corrupted magic.
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xFF
	if _, err := viewLayer(bad, keys, model); err == nil {
		t.Error("a corrupted header was accepted")
	}
	// Truncated blob.
	if _, err := viewLayer(blob[:len(blob)/2], keys, model); err == nil {
		t.Error("a truncated blob was accepted")
	}
	// Empty blob.
	if _, err := viewLayer(nil, keys, model); err == nil {
		t.Error("an empty blob was accepted")
	}
	// Trailing bytes.
	if _, err := viewLayer(append(append([]byte(nil), blob...), 0), keys, model); err == nil {
		t.Error("bytes past the layer's geometry were accepted")
	}
	// The v1 and v2 blobs earlier builds wrote are legacy layers, refused
	// typed.
	for _, version := range []uint64{1, 2} {
		if _, err := viewLayer(legacyLayer(tab, version), keys, model); !errors.Is(err, snapshot.ErrLegacy) {
			t.Errorf("a version %d layer: %v, want snapshot.ErrLegacy", version, err)
		}
	}
}

// TestLoadCorruptHeader mutates every header field of a valid layer blob —
// magic, version, mode, n, m, monotone, both fingerprints — plus the
// widths word, and asserts each mutation is rejected with a descriptive
// error instead of a panic or a giant allocation.
func TestLoadCorruptHeader(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 8_000, 5)
	model := cdfmodel.NewInterpolation(keys)
	for _, cfg := range []Config{{Mode: ModeRange}, {Mode: ModeMidpoint}} {
		tab, err := Build(keys, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		valid := layerBlob(t, tab)

		mutate := func(name string, field int, val uint64) {
			bad := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint64(bad[field*8:], val)
			_, err := viewLayer(bad, keys, model)
			if err == nil {
				t.Errorf("%v/%s=%d: corrupt header accepted", cfg.Mode, name, val)
			} else if err.Error() == "" {
				t.Errorf("%v/%s: empty error message", cfg.Mode, name)
			}
		}
		mutate("magic", 0, 0xDEADBEEF)
		mutate("version", 1, 1)
		mutate("version", 1, 2)
		mutate("version", 1, 4)
		mutate("version", 1, ^uint64(0))
		mutate("mode", 2, 2)
		mutate("mode", 2, ^uint64(0))
		mutate("n", 3, uint64(len(keys)+1))
		mutate("n", 3, ^uint64(0))
		mutate("m", 4, 0)
		mutate("m", 4, uint64(len(keys))*maxLayerFactor+1) // beyond the sane-M bound
		mutate("m", 4, 1<<40)                              // would size a 1 TiB drift view
		mutate("m", 4, ^uint64(0))                         // would wrap negative
		mutate("m", 4, uint64(tab.M()+1))                  // sane-looking but wrong: geometry past the blob
		mutate("monotone", 5, 2)
		mutate("keys-fingerprint", 6, binary.LittleEndian.Uint64(valid[6*8:])^1)
		mutate("model-fingerprint", 7, binary.LittleEndian.Uint64(valid[7*8:])^1)

		// The widths word (the u64 after the 64-byte header): zero,
		// non-power-of-two, wider than stored, and reserved bytes set.
		word := binary.LittleEndian.Uint64(valid[8*8:])
		for _, w := range []uint64{0, 3, 12, word ^ 0x0F, word | 1<<40, ^uint64(0)} {
			mutate("widths", 8, w)
		}

		// Truncation at a stride of positions, including mid-header and
		// mid-array, must always error.
		for cut := 0; cut < len(valid); cut += 13 {
			if _, err := viewLayer(valid[:cut], keys, model); err == nil {
				t.Errorf("%v: truncation to %d of %d bytes accepted", cfg.Mode, cut, len(valid))
			}
		}
	}
}

// TestLoadHostileHeaderBoundedAllocation: a header claiming a gigantic
// layer over a blob that ends right after it must fail on its geometry,
// not size anything by the claim.
func TestLoadHostileHeaderBoundedAllocation(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 1_000_000, 5)
	model := cdfmodel.NewInterpolation(keys)
	head := make([]byte, 0, 80)
	for _, v := range []uint64{
		0x53485442, layerVersion3, uint64(ModeMidpoint), uint64(len(keys)),
		uint64(len(keys)) * 32, // m: sane relative to n, far beyond the bytes that follow
		1, keysFingerprint(keys), modelFingerprint(model),
		8, // widths word: 64-bit entries ⇒ the claimed array is 256 MiB
	} {
		head = binary.LittleEndian.AppendUint64(head, v)
	}
	before := allocatedBytes()
	if _, err := viewLayer(head, keys, model); err == nil {
		t.Fatal("hostile header accepted")
	}
	if grew := allocatedBytes() - before; grew > 16<<20 {
		t.Errorf("hostile header allocated %d MiB before failing", grew>>20)
	}
}

func allocatedBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func TestFingerprintSensitivity(t *testing.T) {
	keys := dataset.MustGenerate(dataset.USpr, 64, 5_000, 5)
	fp := keysFingerprint(keys)
	mutated := append([]uint64(nil), keys...)
	mutated[len(mutated)-1]++
	if keysFingerprint(mutated) == fp {
		t.Error("fingerprint must change when the last key changes")
	}
	if keysFingerprint(keys[:4999]) == fp {
		t.Error("fingerprint must change with the length")
	}
	if keysFingerprint([]uint64{}) == fp {
		t.Error("empty fingerprint must differ")
	}
	_ = kv.LowerBound(keys, 0) // keep kv imported for the test's package shape
}

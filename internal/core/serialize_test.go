package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cdfmodel"
	"repro/internal/dataset"
	"repro/internal/kv"
)

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
			var buf bytes.Buffer
			n, err := orig.WriteTo(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(buf.Len()) {
				t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
			}
			loaded, err := Load(buf.Bytes(), keys, model)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.M() != orig.M() || loaded.Mode() != orig.Mode() || loaded.N() != orig.N() {
				t.Fatal("round-trip metadata mismatch")
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
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	// Wrong data.
	other := dataset.MustGenerate(dataset.Face, 64, 10_000, 6)
	if _, err := Load(buf.Bytes(), other, cdfmodel.NewInterpolation(other)); err == nil {
		t.Error("Load must reject a layer built over different keys")
	}
	// Wrong length.
	if _, err := Load(buf.Bytes(), keys[:500], model); err == nil {
		t.Error("Load must reject a key-count mismatch")
	}
	// Wrong model family.
	if _, err := Load(buf.Bytes(), keys, cdfmodel.NewLinear(keys)); err == nil {
		t.Error("Load must reject a different model")
	}
	// Nil model.
	if _, err := Load[uint64](buf.Bytes(), keys, nil); err == nil {
		t.Error("Load must reject a nil model")
	}
	// Corrupted magic.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[0] ^= 0xFF
	if _, err := Load(bad, keys, model); err == nil {
		t.Error("Load must reject a corrupted header")
	}
	// Truncated stream.
	if _, err := Load(buf.Bytes()[:buf.Len()/2], keys, model); err == nil {
		t.Error("Load must reject a truncated stream")
	}
	// Empty stream.
	if _, err := Load(nil, keys, model); err == nil {
		t.Error("Load must reject an empty stream")
	}
	// Trailing bytes.
	if _, err := Load(append(append([]byte(nil), buf.Bytes()...), 0), keys, model); err == nil {
		t.Error("Load must reject bytes past the layer's geometry")
	}
}

// TestLoadCorruptHeader mutates every header field of a valid layer file —
// magic, version, mode, n, m, monotone, both fingerprints — plus the drift
// width fields and the partition counts, and asserts each mutation is
// rejected with a descriptive error instead of a panic or a giant
// allocation. This is the regression suite for the hardened loader: the
// old code fed head[4] straight into make([]int32, m).
func TestLoadCorruptHeader(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 8_000, 5)
	model := cdfmodel.NewInterpolation(keys)
	for _, cfg := range []Config{{Mode: ModeRange}, {Mode: ModeMidpoint}} {
		tab, err := Build(keys, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := tab.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		valid := buf.Bytes()

		mutate := func(name string, field int, val uint64) {
			bad := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint64(bad[field*8:], val)
			_, err := Load(bad, keys, model)
			if err == nil {
				t.Errorf("%v/%s=%d: corrupt header accepted", cfg.Mode, name, val)
			} else if err.Error() == "" {
				t.Errorf("%v/%s: empty error message", cfg.Mode, name)
			}
		}
		mutate("magic", 0, 0xDEADBEEF)
		mutate("version", 1, 2)
		mutate("version", 1, ^uint64(0))
		mutate("mode", 2, 2)
		mutate("mode", 2, ^uint64(0))
		mutate("n", 3, uint64(len(keys)+1))
		mutate("n", 3, ^uint64(0))
		mutate("m", 4, 0)
		mutate("m", 4, uint64(len(keys))*maxLayerFactor+1) // beyond the sane-M bound
		mutate("m", 4, 1<<40)                              // would have been a 1 TiB counts allocation
		mutate("m", 4, ^uint64(0))                         // would have wrapped negative
		mutate("m", 4, uint64(tab.M()+1))                  // sane-looking but wrong: drift reads run past the stream
		mutate("monotone", 5, 2)
		mutate("keys-fingerprint", 6, binary.LittleEndian.Uint64(valid[6*8:])^1)
		mutate("model-fingerprint", 7, binary.LittleEndian.Uint64(valid[7*8:])^1)

		// Drift width field (first u64 after the 64-byte header): zero,
		// non-power-of-two, and absurd widths must all be rejected before
		// any entry allocation.
		for _, bits := range []uint64{0, 7, 12, 128, ^uint64(0)} {
			mutate("drift-width", 8, bits)
		}

		// Partition counts: a negative cardinality (high bit set) must be
		// rejected; counts live after the drift arrays, so locate them from
		// the end.
		bad := append([]byte(nil), valid...)
		countOff := len(bad) - 4*tab.M()
		bad[countOff+3] |= 0x80
		if _, err := Load(bad, keys, model); err == nil {
			t.Errorf("%v: negative partition count accepted", cfg.Mode)
		}

		// Truncation at a stride of positions, including mid-header and
		// mid-array, must always error.
		for cut := 0; cut < len(valid); cut += 13 {
			if _, err := Load(valid[:cut], keys, model); err == nil {
				t.Errorf("%v: truncation to %d of %d bytes accepted", cfg.Mode, cut, len(valid))
			}
		}
	}
}

// TestLoadHostileHeaderBoundedAllocation: a 64-byte header claiming a
// gigantic layer over a stream that ends right after it must fail after
// at most one incremental chunk, not try to allocate the claimed size.
func TestLoadHostileHeaderBoundedAllocation(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 1_000_000, 5)
	model := cdfmodel.NewInterpolation(keys)
	head := make([]byte, 0, 80)
	for _, v := range []uint64{
		0x53485442, 1, uint64(ModeMidpoint), uint64(len(keys)),
		uint64(len(keys)) * 32, // m: sane relative to n, far beyond the 72 bytes that follow
		1, keysFingerprint(keys), modelFingerprint(model),
		64, // drift width: 64-bit entries ⇒ claimed array is 256 MiB
	} {
		head = binary.LittleEndian.AppendUint64(head, v)
	}
	before := allocatedBytes()
	if _, err := Load(head, keys, model); err == nil {
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

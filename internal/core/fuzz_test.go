package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"

	"repro/internal/cdfmodel"
	"repro/internal/kv"
	"repro/internal/migrate"
	"repro/internal/snapshot"
)

// fuzzKeys deterministically expands the fuzz parameters into a sorted key
// slice. dup controls duplicate-run length (the paper's §3.2 duplicate
// handling), drift controls gap burstiness — high drift produces the
// clustered, heavy-tailed spacing that makes the IM model's error (and
// hence the Shift-Table's correction) adversarial.
func fuzzKeys(seed uint64, n int, dup, drift uint8) []uint64 {
	keys := make([]uint64, n)
	x := seed
	cur := seed % (1 << 20)
	run := 0
	for i := range keys {
		if run > 0 {
			run--
		} else {
			x = x*0x9E3779B97F4A7C15 + 1
			gap := (x >> 33) & (uint64(drift)<<8 | 0xF)
			if drift > 128 && x%97 == 0 {
				gap <<= 20 // rare huge jump: adversarial cluster boundary
			}
			cur += gap
			run = int(x>>56) % (int(dup)/8 + 1)
		}
		keys[i] = cur
	}
	return keys
}

// FuzzFindLookup drives core.Find, Lookup and the batch engine over fuzzed
// datasets and configurations, with kv.LowerBound as the rank oracle and
// batch ≡ scalar as the pipeline oracle. modeBits&16 scales the key count
// 64-fold and crowds it under one outlier, so the layer packs 32-bit
// drifts and the batch probe meets windows wider than 2^15.
func FuzzFindLookup(f *testing.F) {
	f.Add(uint64(7), uint16(500), uint8(0), uint8(3), uint8(0), uint64(12345))
	f.Add(uint64(3), uint16(800), uint8(255), uint8(1), uint8(1), uint64(99))      // duplicate-heavy
	f.Add(uint64(11), uint16(1000), uint8(8), uint8(255), uint8(2), uint64(1<<40)) // adversarially drifted
	f.Add(uint64(1), uint16(0), uint8(0), uint8(0), uint8(0), uint64(0))           // empty keys
	f.Add(uint64(5), uint16(64), uint8(32), uint8(200), uint8(7), uint64(1))       // sampled midpoint, reduced M
	f.Add(uint64(13), uint16(1500), uint8(0), uint8(40), uint8(16), uint64(777))   // 96,001 crowded keys: 32-bit drifts

	f.Fuzz(func(t *testing.T, seed uint64, n uint16, dup, drift, modeBits uint8, q uint64) {
		nk := int(n) % 2048
		if modeBits&16 != 0 {
			nk *= 64
		}
		keys := fuzzKeys(seed, nk, dup, drift)
		if modeBits&16 != 0 && len(keys) > 0 {
			// One outlier far above the rest: the model crowds every other
			// key into the first partitions, so drifts approach n and need
			// 32-bit entries once n passes 2^15.
			keys = append(keys, keys[len(keys)-1]|1<<62)
		}
		cfg := Config{}
		if modeBits&1 != 0 {
			cfg.Mode = ModeMidpoint
		}
		if modeBits&2 != 0 && len(keys) > 8 {
			cfg.M = len(keys) / 8
		}
		if modeBits&4 != 0 {
			cfg.SampleStride = 3 // ignored in range mode, lossy in midpoint
		}
		table, err := Build(keys, cdfmodel.NewInterpolation(keys), cfg)
		if err != nil {
			t.Fatalf("Build(%d keys, %+v): %v", len(keys), cfg, err)
		}

		// Probe q itself plus the structurally interesting neighbours.
		qs := []uint64{q, 0, ^uint64(0)}
		if len(keys) > 0 {
			mid := keys[len(keys)/2]
			qs = append(qs, keys[0], keys[len(keys)-1], mid, mid+1, mid-1,
				keys[len(keys)-1]+1, keys[0]-1)
		}
		x := seed
		for i := 0; i < 64; i++ {
			x = x*0xD1342543DE82EF95 + 29
			qs = append(qs, q+x%(1<<(x%40+1)))
		}
		for _, qq := range qs {
			want := kv.LowerBound(keys, qq)
			if got := table.Find(qq); got != want {
				t.Fatalf("Find(%d) = %d, want %d (n=%d cfg=%+v)", qq, got, want, len(keys), cfg)
			}
			pos, found := table.Lookup(qq)
			if pos != want || found != (want < len(keys) && keys[want] == qq) {
				t.Fatalf("Lookup(%d) = (%d,%v), want (%d,%v)", qq, pos, found,
					want, want < len(keys) && keys[want] == qq)
			}
		}
		// Batch ≡ scalar, through the staged pipeline.
		out := table.FindBatch(qs, nil)
		for i, qq := range qs {
			if want := kv.LowerBound(keys, qq); out[i] != want {
				t.Fatalf("FindBatch[%d]=%d for q=%d, want %d", i, out[i], qq, want)
			}
		}
	})
}

// FuzzLoad drives the two untrusted-input paths a layer blob meets — a
// bare blob through the migration's layer converter (migrate.Layer, which
// turns the v1 and v2 blobs earlier builds wrote into the v3 blob) and
// then the v3 view, and the snapshot-container loader
// (MapTableSnapshot over snapshot.Open) — over mutated and truncated
// byte corpora seeded from valid files. The property is absolute: any
// input either loads (and then answers in bounds) or returns an error.
// No panics, no unbounded allocation (the converter checks every array's
// byte length against the blob before sizing anything by it; Open
// bounds every length by the bytes present).
func FuzzLoad(f *testing.F) {
	keys := fuzzKeys(7, 700, 16, 40)
	model := cdfmodel.NewInterpolation(keys)

	// Seed with valid layer blobs of every version in both modes, and
	// containers, plus mutated and truncated variants so the fuzzer starts
	// at the interesting boundaries.
	for _, cfg := range []Config{{Mode: ModeRange}, {Mode: ModeMidpoint}, {Mode: ModeRange, M: 77}} {
		tab, err := Build(keys, model, cfg)
		if err != nil {
			f.Fatal(err)
		}
		layer := legacyLayer(tab, 1)
		f.Add(layer)
		f.Add(layer[:len(layer)/2])
		mut := append([]byte(nil), layer...)
		mut[35] ^= 0x81 // inside the m field
		f.Add(mut)
		f.Add(legacyLayer(tab, 2))
		f.Add(layerBlob(f, tab))

		// The v2 (page-aligned, mappable) container of the v3 layer: full, truncated
		// mid-section and mid-footer, and with a flipped byte in the first
		// page (header/padding territory) so the fuzzer starts at the
		// geometry validators.
		var cont2 bytes.Buffer
		sw2, err := snapshot.NewWriter(&cont2, tab.SnapshotKind())
		if err != nil {
			f.Fatal(err)
		}
		if err := tab.PersistSnapshot(sw2); err != nil {
			f.Fatal(err)
		}
		if err := sw2.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(cont2.Bytes())
		f.Add(cont2.Bytes()[:2*cont2.Len()/3])
		f.Add(cont2.Bytes()[:cont2.Len()-17])
		mut3 := append([]byte(nil), cont2.Bytes()...)
		mut3[40] ^= 0x10
		f.Add(mut3)
		// A flipped byte at the end of the layer payload, which only its
		// section CRC covers, and one inside the table of contents.
		tocOff := int(binary.LittleEndian.Uint64(cont2.Bytes()[cont2.Len()-32:]))
		mut4 := append([]byte(nil), cont2.Bytes()...)
		mut4[tocOff-16-1] ^= 0x01
		f.Add(mut4)
		mut5 := append([]byte(nil), cont2.Bytes()...)
		mut5[tocOff+8] ^= 0x08
		f.Add(mut5)
	}
	// A v1 stream-framed container, as earlier builds wrote every full:
	// every entry point refuses it.
	cont, err := os.ReadFile("../../testdata/v1/shift-table.snap")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(cont)
	f.Add(cont[:2*len(cont)/3])
	mut2 := append([]byte(nil), cont...)
	mut2[20] ^= 0x04
	f.Add(mut2)
	f.Add([]byte{})
	f.Add([]byte("STSNAP01"))
	f.Add([]byte("STSNAP02"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Bare layer blob, converted, against the real keys and model.
		if blob, err := migrate.Layer(data); err == nil {
			if tab, err := viewLayer(blob, keys, model); err == nil {
				// Whatever loaded claims to be a layer over these keys;
				// probing it must at least never step out of bounds.
				for _, q := range []uint64{0, keys[0], keys[len(keys)/2], keys[len(keys)-1], ^uint64(0)} {
					r := tab.Find(q)
					if r < 0 || r > tab.Len() {
						t.Fatalf("converted layer Find(%d) = %d out of [0, %d]", q, r, tab.Len())
					}
				}
			}
		}
		// Snapshot container through the one decoder, at both trust levels:
		// the verified heap read (every checksum, then the loader's O(n)
		// checks) and the unverified open (geometry only — the trust level
		// a hostile mapped file meets). Whatever either accepts must be
		// memory-safe to query: mis-answers are allowed, faults and
		// out-of-range ranks are not.
		probe := func(m *snapshot.Mapped) {
			if m.Kind() != SnapshotKindTable {
				return
			}
			tab, err := MapTableSnapshot[uint64](m)
			if err != nil {
				return
			}
			for _, q := range []uint64{0, 1 << 30, ^uint64(0)} {
				r := tab.Find(q)
				if r < 0 || r > tab.Len() {
					t.Fatalf("snapshot table (verified=%v) Find(%d) = %d out of [0, %d]",
						m.Verified(), q, r, tab.Len())
				}
			}
		}
		if m, err := snapshot.Read(bytes.NewReader(data), -1); err == nil {
			probe(m)
		}
		if m, err := snapshot.Open(data); err == nil {
			probe(m)
		}
	})
}

// FuzzBuildLayout is the build-pipeline and layer-blob oracle: for a
// fuzzed corpus and configuration it checks (1) the build at 2–17 workers
// is bit-identical to the build at one — widths, drifts and the monotone
// flag — and the stream's layer equals the accumulator's, width and
// every entry; (2) writing the layer blob, viewing it and writing the view again
// is byte-identical, and the view answers queries identically; (3) the
// migration of the v1 and v2 blobs earlier builds wrote for the same
// table is that blob, byte for byte.
func FuzzBuildLayout(f *testing.F) {
	f.Add(uint64(7), uint16(5000), uint8(0), uint8(3), uint8(0), uint8(3))
	f.Add(uint64(3), uint16(6000), uint8(255), uint8(1), uint8(1), uint8(8))  // duplicate-heavy
	f.Add(uint64(11), uint16(7000), uint8(8), uint8(255), uint8(2), uint8(5)) // adversarially drifted
	f.Add(uint64(1), uint16(0), uint8(0), uint8(0), uint8(0), uint8(2))       // empty keys
	f.Add(uint64(9), uint16(4200), uint8(64), uint8(40), uint8(3), uint8(16)) // midpoint, reduced M
	f.Add(uint64(5), uint16(6500), uint8(16), uint8(9), uint8(7), uint8(4))   // sampled midpoint, reduced M

	f.Fuzz(func(t *testing.T, seed uint64, n uint16, dup, drift, modeBits, workers uint8) {
		keys := fuzzKeys(seed, int(n)%8192, dup, drift)
		cfg := Config{}
		if modeBits&1 != 0 {
			cfg.Mode = ModeMidpoint
		}
		if modeBits&2 != 0 && len(keys) > 8 {
			cfg.M = len(keys) / 8
		}
		if modeBits&4 != 0 {
			cfg.SampleStride = int(drift)%7 + 2 // §3.4 sampling; midpoint mode only
		}
		w := int(workers)%16 + 2
		model := cdfmodel.NewInterpolation(keys)
		serial, err := buildPipeline(keys, model, cfg, 1)
		if err != nil {
			t.Fatalf("buildPipeline(%d keys, %+v, 1): %v", len(keys), cfg, err)
		}
		par, err := buildPipeline(keys, model, cfg, w)
		if err != nil {
			t.Fatalf("buildPipeline(%d keys, %+v, %d): %v", len(keys), cfg, w, err)
		}
		if d := diffLayer(serial, par); d != "" {
			t.Fatalf("%d workers differ from 1 (n=%d cfg=%+v): %s", w, len(keys), cfg, d)
		}
		if d := diffEntries(accumulated(t, keys, model, cfg), par); d != "" {
			t.Fatalf("the stream differs from the accumulator (n=%d cfg=%+v): %s", len(keys), cfg, d)
		}

		// writeLayer → viewLayer → writeLayer: byte-identical blobs,
		// identical answers.
		if serial.n > 0 {
			blob := layerBlob(t, par)
			loaded, err := viewLayer(blob, keys, model)
			if err != nil {
				t.Fatalf("viewLayer: %v", err)
			}
			if !bytes.Equal(layerBlob(t, loaded), blob) {
				t.Fatal("write/view/write not byte-identical")
			}
			for _, version := range []uint64{1, 2} {
				if got, err := migrate.Layer(legacyLayer(par, version)); err != nil || !bytes.Equal(got, blob) {
					t.Fatalf("the migrated v%d blob differs from the build's (%v)", version, err)
				}
			}
			x := seed
			for i := 0; i < 32; i++ {
				x = x*0xD1342543DE82EF95 + 29
				q := x % (keys[len(keys)-1] + 3)
				want := kv.LowerBound(keys, q)
				if got := loaded.Find(q); got != want {
					t.Fatalf("loaded.Find(%d) = %d, want %d", q, got, want)
				}
				if got := par.Find(q); got != want {
					t.Fatalf("par.Find(%d) = %d, want %d", q, got, want)
				}
			}
		}
	})
}

// legacyLayer writes tab's layer as an earlier build wrote it for the
// same table, the input migrate.Layer converts. Both legacy versions open
// with the eight header words (version 1 or 2, and the monotone flag as
// the model declares it) and end with the m int32 partition counts.
// Version 1 holds, per drift half (range mode: lo, then hi; midpoint: the
// shifts), its width in bits and its entries at that width. Version 2
// holds one widths word (the common width, then range mode's lo and hi
// widths) and the halves interleaved at the common width, zero-padded to
// 8 bytes. Bounds and counts come from storedBounds.
func legacyLayer[K kv.Key](tab *Table[K], version uint64) []byte {
	le := binary.LittleEndian
	var out []byte
	for _, v := range []uint64{layerMagic, version, uint64(tab.mode), uint64(tab.n), uint64(tab.m),
		boolU64(tab.model.Monotone()), keysFingerprint(tab.keys), modelFingerprint(tab.model)} {
		out = le.AppendUint64(out, v)
	}
	lo, hi, cnt := storedBounds(tab)
	halves := [][]int64{lo, hi}
	if tab.mode == ModeMidpoint {
		shifts := make([]int64, tab.m)
		for k := range shifts {
			shifts[k] = int64(tab.drift.get(k))
		}
		halves = [][]int64{shifts}
	}
	widths := make([]uint8, len(halves))
	var common uint8
	for h, vals := range halves {
		var maxAbs int64
		for _, v := range vals {
			maxAbs = max(maxAbs, v, -v)
		}
		if tab.m > 0 {
			widths[h] = driftWidth(maxAbs)
		}
		common = max(common, widths[h])
	}
	put := func(v int64, width uint8) {
		for j := uint8(0); j < width; j++ {
			out = append(out, byte(v>>(8*j)))
		}
	}
	if version == 1 {
		for h, vals := range halves {
			out = le.AppendUint64(out, 8*uint64(widths[h]))
			for _, v := range vals {
				put(v, widths[h])
			}
		}
	} else {
		word := uint64(common)
		if tab.mode == ModeRange {
			word |= uint64(widths[0])<<8 | uint64(widths[1])<<16
		}
		out = le.AppendUint64(out, word)
		for k := 0; k < tab.m; k++ {
			for _, vals := range halves {
				put(vals[k], common)
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

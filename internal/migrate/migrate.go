// Package migrate rewrites a full snapshot that an earlier build wrote
// into the form this build writes and serves (DESIGN.md §13): a v2
// container of v3 layer blobs, of kind "concurrent" or a registry kind,
// whose embedded view stores no pending writes. The serving packages
// refuse every other full with snapshot.ErrLegacy; only cmd/shifttool
// (`-load OLD -save NEW`) and tests import this package. It works on
// bytes and knows the section layouts itself, so it links none of the
// serving loaders. Every checksum of the input is verified first; the
// loaders' O(n) checks are not repeated, so a caller loads the output
// through a verified entry point before trusting it.
package migrate

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/snapshot"
)

var le = binary.LittleEndian

// Section ids of the kinds this package rewrites (the owning packages
// document them: internal/core, internal/updatable, internal/concurrent).
const (
	secKeys       = 1  // every kind: the sorted key section
	secModel      = 2  // shift-table, and the view's embedded table
	secTableLayer = 3  // shift-table, and the view's embedded table
	secViewMeta   = 10 // the view's layer configuration
	secViewDead   = 11 // the view's tombstone bitmap
	secViewBuffer = 12 // the view's insert buffer
	secConMeta    = 20 // concurrent: reserved bytes and the generation count
	secGenIns     = 21 // concurrent: one per generation
	secGenDels    = 22 // concurrent: paired with secGenIns

	layerMagic   = 0x53485442 // "SHTB"
	layerHeadLen = 8 * 8
	modeRange    = 0
	modeMidpoint = 1
)

// layerIDs names, per registry kind, the sections that hold a layer
// blob; every other section but the keys passes through verbatim.
var layerIDs = map[string]uint32{
	"shift-table": secTableLayer,
	"model-index": 0,
}

// Full rewrites one full snapshot container into the current form and
// returns the new container's bytes. A registry-kind container already
// in that form comes back byte for byte. A view kind's pending writes
// come back as one sealed run under an empty write head, however many
// generations held them, so a current "concurrent" full whose head is
// not empty is rewritten: the output answers the same ranks, and Full of
// an output returns it byte for byte.
func Full(data []byte) ([]byte, error) {
	m, err := snapshot.Open(data)
	stream := errors.Is(err, snapshot.ErrLegacy)
	switch {
	case stream:
		m, err = snapshot.OpenStream(data)
	case err == nil:
		err = m.VerifyAll()
	}
	if err != nil {
		return nil, fmt.Errorf("migrate: %w", err)
	}
	layerID, registry := layerIDs[m.Kind()]
	kind := m.Kind()
	if !registry {
		kind = "concurrent" // the view kinds; rewriteView refuses any other
	}
	var out bytes.Buffer
	sw, err := snapshot.NewWriter(&out, kind)
	if err != nil {
		return nil, err
	}
	if registry {
		err = copySections(sw, m, stream, layerID)
	} else {
		err = rewriteView(sw, m, stream)
	}
	if err == nil {
		err = sw.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("migrate: %q container: %w", m.Kind(), err)
	}
	return out.Bytes(), nil
}

// copySections passes a registry kind's sections through, re-framing the
// key section and converting layer blobs.
func copySections(sw *snapshot.Writer, m *snapshot.Mapped, stream bool, layerID uint32) error {
	for s, err := m.Next(); err == nil; s, err = m.Next() {
		payload := s.Data
		switch s.ID {
		case secKeys:
			width, body, err := keySection(s, stream)
			if err != nil {
				return err
			}
			payload = keyPayload(width, body)
		case layerID:
			if payload, err = Layer(payload); err != nil {
				return fmt.Errorf("section %d: %w", s.ID, err)
			}
		}
		if err := sw.Bytes(s.ID, payload); err != nil {
			return err
		}
	}
	return nil
}

// rewriteView rewrites the "updatable" and "concurrent" kinds: the view's
// base passes through (keys re-framed, layer converted), and its stored
// pending writes join the container's generations in one sealed run.
func rewriteView(sw *snapshot.Writer, m *snapshot.Mapped, stream bool) error {
	// The section sequence: [meta,] the view (meta, keys, model, layer,
	// tombstone bitmap, insert buffer), then ins/dels per generation.
	want := []uint32{secViewMeta, secKeys, secModel, secTableLayer, secViewDead, secViewBuffer}
	switch m.Kind() {
	case "concurrent":
		want = append([]uint32{secConMeta}, want...)
	case "updatable":
	default:
		return fmt.Errorf("unknown snapshot kind")
	}
	var secs []*snapshot.MappedSection
	for s, err := m.Next(); err == nil; s, err = m.Next() {
		id := uint32(secGenIns + (len(secs)-len(want))%2)
		if len(secs) < len(want) {
			id = want[len(secs)]
		}
		if s.ID != id {
			return fmt.Errorf("section %d: id %d, want %d", len(secs), s.ID, id)
		}
		secs = append(secs, s)
	}
	if len(secs) < len(want) || (len(secs)-len(want))%2 != 0 {
		return fmt.Errorf("%d sections, want the view and whole generations", len(secs))
	}
	gens := (len(secs) - len(want)) / 2
	if m.Kind() == "concurrent" {
		// 20 reserved bytes, then the generation count.
		if meta := secs[0].Data; len(meta) != 24 || int(le.Uint32(meta[20:])) != gens {
			return fmt.Errorf("meta section does not describe %d generations", gens)
		}
		secs = secs[1:]
	}
	// The view meta: mode u32, M u64 and stride u64 (the configuration),
	// then an insert-buffer threshold and a tombstone count, both retired.
	vm, model := secs[0].Data, secs[2].Data
	if len(vm) != 36 {
		return fmt.Errorf("view meta section is %d bytes, want 36", len(vm))
	}
	width, base, err := keySection(secs[1], stream)
	if err != nil {
		return err
	}
	layer, err := Layer(secs[3].Data)
	if err != nil {
		return fmt.Errorf("section %d: %w", secTableLayer, err)
	}
	n, bitmap := len(base)/width, secs[4].Data
	if len(bitmap) != (n+7)/8 || n%8 != 0 && bitmap[len(bitmap)-1]>>(n%8) != 0 {
		return fmt.Errorf("tombstone bitmap of %d bytes does not cover exactly %d keys", len(bitmap), n)
	}
	// The oldest pending writes: the buffer's inserts, and a delete of
	// each tombstoned base key (a tombstone cancels its value wherever the
	// occurrence lies, so the state answers rank for rank as the writer's
	// did).
	var ins, dels []uint64
	for i, b := range bitmap {
		for ; b != 0; b &= b - 1 {
			dels = append(dels, word(base, 8*i+bits.TrailingZeros8(b), width))
		}
	}
	if dead := le.Uint64(vm[28:]); dead != uint64(len(dels)) {
		return fmt.Errorf("tombstone bitmap holds %d tombstones, the view meta records %d", len(dels), dead)
	}
	for _, s := range secs[5:] { // the insert buffer, then ins/dels per generation
		w, body, err := keySection(s, stream)
		if err != nil {
			return err
		}
		keys := decodeKeys(body, w, len(body)/w)
		if w != width || !slices.IsSorted(keys) {
			return fmt.Errorf("section %d: pending writes are not sorted %d-byte keys", s.ID, width)
		}
		if s.ID == secGenDels {
			dels = append(dels, keys...)
		} else {
			ins = append(ins, keys...)
		}
	}
	slices.Sort(ins)
	slices.Sort(dels)
	for _, s := range []struct {
		id   uint32
		data []byte
	}{
		{secConMeta, le.AppendUint32(make([]byte, 20), 2)},
		{secViewMeta, append(slices.Clone(vm[:20]), make([]byte, 16)...)},
		{secKeys, keyPayload(width, base)},
		{secModel, model},
		{secTableLayer, layer},
		{secViewDead, make([]byte, len(bitmap))},
		{secViewBuffer, keyPayload(width, nil)},
		{secGenIns, keyPayload(width, encodeKeys(ins, width))},
		{secGenDels, keyPayload(width, encodeKeys(dels, width))},
		{secGenIns, keyPayload(width, nil)},
		{secGenDels, keyPayload(width, nil)},
	} {
		if err := sw.Bytes(s.id, s.data); err != nil {
			return err
		}
	}
	return nil
}

// keySection validates a key section's prefix — the key width, plus the
// zero alignment pad of the v2 framing — and returns the width and the
// little-endian key bytes.
func keySection(s *snapshot.MappedSection, stream bool) (int, []byte, error) {
	prefix := 8
	if stream {
		prefix = 4
	}
	if len(s.Data) < prefix {
		return 0, nil, fmt.Errorf("key section %d too short (%d bytes)", s.ID, len(s.Data))
	}
	width := int(le.Uint32(s.Data))
	if width != 4 && width != 8 {
		return 0, nil, fmt.Errorf("key section %d has %d-byte keys", s.ID, width)
	}
	if !stream && le.Uint32(s.Data[4:]) != 0 {
		return 0, nil, fmt.Errorf("key section %d has a nonzero alignment pad", s.ID)
	}
	body := s.Data[prefix:]
	if len(body)%width != 0 {
		return 0, nil, fmt.Errorf("key section %d payload %d bytes is not a multiple of its %d-byte keys", s.ID, len(body), width)
	}
	return width, body, nil
}

// keyPayload frames key bytes as a v2 key section: the width, a zero
// alignment pad, the keys.
func keyPayload(width int, body []byte) []byte {
	prefix := le.AppendUint32(le.AppendUint32(nil, uint32(width)), 0)
	return append(prefix, body...)
}

// decodeKeys reads n keys of the given width from b.
func decodeKeys(b []byte, width, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = word(b, i, width)
	}
	return out
}

// encodeKeys writes keys at the given width.
func encodeKeys(keys []uint64, width int) []byte {
	var out []byte
	for _, k := range keys {
		out = appendWord(out, k, width)
	}
	return out
}

// word reads entry i of a packed little-endian array of w-byte words.
func word(b []byte, i, w int) uint64 {
	var v uint64
	for j := w - 1; j >= 0; j-- {
		v = v<<8 | uint64(b[i*w+j])
	}
	return v
}

// appendWord appends the low w bytes of v, little-endian.
func appendWord(out []byte, v uint64, w int) []byte {
	for j := 0; j < w; j++ {
		out = append(out, byte(v>>(8*j)))
	}
	return out
}

// Layer converts a layer blob an earlier build wrote into the v3 blob,
// byte for byte what this build writes for the same table. A v3 blob
// comes back unchanged. All three open with eight u64 header words
// (magic, version, mode, n, m, monotone flag, key and model
// fingerprints). v1 then holds, per drift half (range mode: lo, then hi;
// midpoint: one shift array), a width in bits and m entries at that
// width; v2 holds one widths word and the halves interleaved at the wider
// width, padded to 8 bytes. The m int32 partition counts end both, and
// are dropped. v3 holds one widths word and the entries at the narrowest
// width that holds them: range mode's m lower bounds and a closing 0,
// midpoint mode's m shifts. Range mode keeps its monotone flag only if
// every partition's window derived from the next lower bound covers its
// stored hi bound, the check a fresh build makes. The input is untrusted:
// every width and length is checked against the bytes present before
// anything is sized by it.
func Layer(blob []byte) ([]byte, error) {
	if len(blob) < layerHeadLen {
		return nil, fmt.Errorf("layer blob is %d bytes, its header is %d", len(blob), layerHeadLen)
	}
	if le.Uint64(blob) != layerMagic {
		return nil, fmt.Errorf("not a Shift-Table layer blob")
	}
	version := le.Uint64(blob[8:])
	switch version {
	case 3:
		return blob, nil
	case 1, 2:
	default:
		return nil, fmt.Errorf("layer version %d", version)
	}
	mode, n, m, monotone := le.Uint64(blob[16:]), le.Uint64(blob[24:]), le.Uint64(blob[32:]), le.Uint64(blob[40:])
	if mode > modeMidpoint || monotone > 1 {
		return nil, fmt.Errorf("invalid layer mode %d or monotone flag %d", mode, monotone)
	}
	halves := 2 - int(mode) // range mode: lo and hi; midpoint: the shifts
	body := blob[layerHeadLen:]
	var drifts [2][]int64
	var err error
	if version == 1 {
		body, err = splitHalves(body, halves, m, &drifts)
	} else {
		body, err = fusedHalves(body, halves, m, &drifts)
	}
	if err != nil {
		return nil, err
	}
	if uint64(len(body)) != 4*m {
		return nil, fmt.Errorf("%d bytes of partition counts, want %d", len(body), 4*m)
	}
	entries := drifts[0]
	if halves == 2 && m > 0 {
		if !covered(drifts[0], drifts[1], int64(n), int64(m)) {
			monotone = 0
		}
		entries = append(entries, 0) // partition m: answer n, predicted at n
	}
	// The narrowest width whose positive range holds every |entry|, as
	// internal/core's driftWidth packs.
	var maxAbs int64
	for _, v := range entries {
		maxAbs = max(maxAbs, v, -v)
	}
	width := 0
	if m > 0 {
		width = 1
	}
	for width > 0 && width < 8 && maxAbs > int64(1)<<(8*width-1)-1 {
		width *= 2
	}
	out := make([]byte, 0, layerHeadLen+8+len(entries)*width)
	out = append(out, blob[:layerHeadLen]...)
	le.PutUint64(out[8:], 3)
	le.PutUint64(out[40:], monotone)
	out = le.AppendUint64(out, uint64(width))
	for _, v := range entries {
		out = appendWord(out, uint64(v), width)
	}
	return out, nil
}

// splitHalves decodes a v1 body's drift halves into drifts and returns
// the bytes after them.
func splitHalves(body []byte, halves int, m uint64, drifts *[2][]int64) ([]byte, error) {
	for h := 0; h < halves; h++ {
		if len(body) < 8 {
			return nil, fmt.Errorf("drift array %d: %d bytes left, want its 8-byte width", h, len(body))
		}
		// 0 bits exactly for an empty layer, else 8, 16, 32 or 64.
		bits := le.Uint64(body)
		w := int(bits / 8)
		if bits > 64 || bits%8 != 0 || w&(w-1) != 0 || (w == 0) != (m == 0) {
			return nil, fmt.Errorf("drift array %d: entry width %d bits for %d partitions", h, bits, m)
		}
		body = body[8:]
		if w > 0 && m > uint64(len(body)/w) {
			return nil, fmt.Errorf("drift array %d: %d entries of %d bytes, %d bytes left", h, m, w, len(body))
		}
		drifts[h] = decodeDrifts(body, w, int(m), 1, 0)
		body = body[int(m)*w:]
	}
	return body, nil
}

// fusedHalves decodes a v2 body — the widths word (byte 0 the common
// width; in range mode bytes 1 and 2 the lo and hi widths, whose maximum
// it is), the interleaved halves and their zero padding — into drifts
// and returns the bytes after them.
func fusedHalves(body []byte, halves int, m uint64, drifts *[2][]int64) ([]byte, error) {
	if len(body) < 8 {
		return nil, fmt.Errorf("%d bytes left, want the 8-byte widths word", len(body))
	}
	word := le.Uint64(body)
	w, lo, hi := int(byte(word)), int(byte(word>>8)), int(byte(word>>16))
	valid := word>>24 == 0 && w <= 8 && w&(w-1) == 0 && (w == 0) == (m == 0)
	if halves == 2 && m > 0 {
		valid = valid && lo > 0 && hi > 0 && max(lo, hi) == w
	}
	if !valid || halves == 1 && word>>8 != 0 {
		return nil, fmt.Errorf("widths word %#x for %d partitions", word, m)
	}
	body = body[8:]
	if w > 0 && m > uint64(len(body)/(w*halves)) {
		return nil, fmt.Errorf("%d entries of %d bytes, %d bytes left", uint64(halves)*m, w, len(body))
	}
	data := int(m) * halves * w
	pad := (8 - data%8) % 8
	if len(body) < data+pad || !bytes.Equal(body[data:data+pad], make([]byte, pad)) {
		return nil, fmt.Errorf("drift padding is missing or nonzero")
	}
	for h := 0; h < halves; h++ {
		drifts[h] = decodeDrifts(body, w, int(m), halves, h)
	}
	return body[data+pad:], nil
}

// decodeDrifts sign-extends entries at, at+stride, … of a packed array of
// w-byte words: m of them.
func decodeDrifts(b []byte, w, m, stride, at int) []int64 {
	out := make([]int64, m)
	for k := range out {
		out[k] = int64(signed(word(b, stride*k+at, w), w))
	}
	return out
}

// covered reports whether every partition k's window derived from the
// next lower bound, lo[k+1] + span(k) (lo[m] = 0), reaches its stored hi
// bound — the coverage check of DESIGN.md §8, over internal/core's
// partition geometry (predRange).
func covered(lo, hi []int64, n, m int64) bool {
	nextLo, nextPmax := int64(0), n
	for k := m - 1; k >= 0; k-- {
		pmin, pmax := predRange(k, n, m)
		if nextLo+nextPmax-pmin-1 < hi[k] {
			return false
		}
		nextLo, nextPmax = lo[k], pmax
	}
	return true
}

// predRange is internal/core's partition geometry: the inclusive range of
// predictions that map to partition k of m over n keys, partition m
// predicted only at n.
func predRange(k, n, m int64) (pmin, pmax int64) {
	if m == n {
		return k, k
	}
	pmin = (k*n + m - 1) / m
	pmax = ((k+1)*n+m-1)/m - 1
	if pmax > n {
		pmax = n
	}
	if pmin > pmax {
		pmin = pmax
	}
	return pmin, pmax
}

// signed sign-extends a w-byte two's-complement word to 64 bits.
func signed(v uint64, w int) uint64 {
	shift := 64 - 8*w
	return uint64(int64(v<<shift) >> shift)
}

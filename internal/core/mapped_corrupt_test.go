package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"

	"repro/internal/cdfmodel"
	"repro/internal/snapshot"
)

// These tests are the deterministic, exhaustive companions to FuzzLoad's
// v2 coverage: instead of hoping the fuzzer finds the interesting
// corruptions, they enumerate them — every single-byte flip, every
// truncation, plus the targeted mutations (nonzero padding, a mismatched
// section CRC hidden behind a recomputed TOC CRC, a misaligned payload
// offset) that each exercise one specific validator in the v2 parse.

const (
	v2FooterSize   = 32
	v2TocEntrySize = 24
)

var castagnoliTest = crc32.MakeTable(crc32.Castagnoli)

// v2TableContainer builds a small shift-table and returns its v2
// container bytes plus the keys it indexes.
func v2TableContainer(tb testing.TB) ([]byte, []uint64) {
	tb.Helper()
	keys := fuzzKeys(11, 300, 16, 40)
	tab, err := Build(keys, cdfmodel.NewInterpolation(keys), Config{})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	sw, err := snapshot.NewWriter(&buf, tab.SnapshotKind())
	if err != nil {
		tb.Fatal(err)
	}
	if err := tab.PersistSnapshot(sw); err != nil {
		tb.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), keys
}

// loadHeap is the heap load: read, verify every checksum (each section
// and the whole container), then view the table with its O(n) checks.
func loadHeap(data []byte) error {
	m, err := snapshot.Read(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return err
	}
	if m.Kind() != SnapshotKindTable {
		return fmt.Errorf("kind %q", m.Kind())
	}
	_, err = MapTableSnapshot[uint64](m)
	return err
}

// TestV2EveryByteFlip inverts each byte of a valid v2 container in turn.
// Every flip must be rejected by the heap load — the footer's
// whole-container CRC word included, which VerifyAll checks.
func TestV2EveryByteFlip(t *testing.T) {
	data, _ := v2TableContainer(t)
	if err := loadHeap(data); err != nil {
		t.Fatalf("pristine container rejected: %v", err)
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xFF
		if err := loadHeap(mut); err == nil {
			t.Fatalf("flip at offset %d/%d accepted by the heap load", i, len(data))
		}
	}
}

// TestV2EveryTruncation feeds every strict prefix of a valid container
// to the heap load and to the unverified open; all must error (the
// footer anchors the parse, so no prefix can masquerade as complete).
func TestV2EveryTruncation(t *testing.T) {
	data, _ := v2TableContainer(t)
	for i := 0; i < len(data); i++ {
		if err := loadHeap(data[:i]); err == nil {
			t.Fatalf("heap load accepted a %d/%d-byte prefix", i, len(data))
		}
		if _, err := snapshot.Open(data[:i]); err == nil {
			t.Fatalf("open accepted a %d/%d-byte prefix", i, len(data))
		}
	}
}

// v2Footer decodes the pieces of the footer the mutation tests edit.
func v2Footer(data []byte) (tocOff uint64, tocCount uint32) {
	foot := data[len(data)-v2FooterSize:]
	return binary.LittleEndian.Uint64(foot[0:8]), binary.LittleEndian.Uint32(foot[8:12])
}

// restampTocCRC recomputes the stored TOC checksum after a TOC edit, so
// the mutation under test is reachable (otherwise the TOC CRC masks it).
func restampTocCRC(data []byte) {
	tocOff, _ := v2Footer(data)
	foot := data[len(data)-v2FooterSize:]
	crc := crc32.New(castagnoliTest)
	crc.Write(data[tocOff : len(data)-v2FooterSize])
	crc.Write(foot[0:12])
	binary.LittleEndian.PutUint32(foot[12:16], crc.Sum32())
}

// TestV2CorruptedPadding pokes a nonzero byte into the alignment padding
// before the first payload. No checksum covers padding — the zero-scan
// in the parse is the only line of defence, so it must hold.
func TestV2CorruptedPadding(t *testing.T) {
	data, _ := v2TableContainer(t)
	tocOff, _ := v2Footer(data)
	firstOff := binary.LittleEndian.Uint64(data[tocOff+8:])
	mut := append([]byte(nil), data...)
	mut[firstOff-1] = 0xA5 // last pad byte before the first page-aligned payload
	if _, err := snapshot.Open(mut); err == nil {
		t.Fatal("nonzero padding accepted by the open")
	}
}

// TestV2SectionCRCMismatch edits a section's TOC CRC and restamps the
// TOC checksum so the parse succeeds; VerifyAll must then reject the
// container (this is the exact lie a lazily-verifying reader must catch).
func TestV2SectionCRCMismatch(t *testing.T) {
	data, _ := v2TableContainer(t)
	tocOff, _ := v2Footer(data)
	mut := append([]byte(nil), data...)
	e := mut[tocOff:]
	binary.LittleEndian.PutUint32(e[4:8], binary.LittleEndian.Uint32(e[4:8])^0xDEADBEEF)
	restampTocCRC(mut)
	m, err := snapshot.Open(mut)
	if err != nil {
		t.Fatalf("restamped container failed to parse: %v", err)
	}
	if err := m.VerifyAll(); err == nil {
		t.Fatal("mismatched section CRC passed VerifyAll")
	}
}

// TestV2MisalignedOffset moves a section's recorded payload offset off
// its page boundary (restamping the TOC checksum); the parse must reject
// the geometry — alignment is what makes the in-place views legal.
func TestV2MisalignedOffset(t *testing.T) {
	data, _ := v2TableContainer(t)
	tocOff, _ := v2Footer(data)
	mut := append([]byte(nil), data...)
	e := mut[tocOff:]
	binary.LittleEndian.PutUint64(e[8:16], binary.LittleEndian.Uint64(e[8:16])+8)
	restampTocCRC(mut)
	if _, err := snapshot.Open(mut); err == nil {
		t.Fatal("misaligned payload offset accepted by the open")
	}
}

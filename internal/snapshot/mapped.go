package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync/atomic"

	"repro/internal/kv"
	"repro/internal/mapped"
)

// This file is the zero-copy side of the v2 layout: Mapped parses a v2
// container over an mmap'd byte region without reading the payloads.
// Opening costs O(sections), not O(bytes) — the footer, TOC, headers and
// padding are validated eagerly; payload CRCs verify lazily through
// Verify/VerifyAll. Everything structural a hostile file could lie about
// (offsets, lengths, counts, alignment) is cross-checked against the walk
// the streaming reader would have performed, so a section handed to a
// loader is exactly the byte range its header, its TOC entry and the
// container geometry all agree on.
//
// Trust model: an unverified payload is memory-safe to parse (every
// slice is bounds-derived from validated geometry) but not yet known to
// be the written bytes. Callers choose the verification point: the
// replica maps artifacts whose whole-file CRC was verified at fetch time
// and calls VerifyAll before trusting a warm-restart file; shifttool
// verifies on demand.

// ErrNotMappable reports a container in the v1 streaming layout (or not
// a container at all): it carries no TOC and no alignment, so it cannot
// be viewed in place. Callers fall back to the heap loaders.
var ErrNotMappable = errors.New("snapshot: not a mappable (v2) container")

// MappedSection is one section of a mapped container. Data aliases the
// mapping: read-only, and it must not outlive the region.
type MappedSection struct {
	ID   uint32
	Off  int64 // payload offset in the container (page-aligned)
	Data []byte

	crc      uint32
	verified atomic.Bool
}

// Verify checks the section payload against its TOC CRC, memoized — a
// second Verify is free. The benign race (two goroutines hashing the
// same immutable bytes) converges on the same answer.
func (s *MappedSection) Verify() error {
	if s.verified.Load() {
		return nil
	}
	if got := crc32.Checksum(s.Data, crcTable); got != s.crc {
		return fmt.Errorf("snapshot: section %d (offset %d, %d bytes) checksum mismatch (stored %08x, computed %08x)",
			s.ID, s.Off, len(s.Data), s.crc, got)
	}
	s.verified.Store(true)
	return nil
}

// Mapped is a parsed v2 container over a byte region.
type Mapped struct {
	region *mapped.Region
	data   []byte
	kind   string
	secs   []MappedSection
	cursor int
}

// MapFile maps path and parses it as a v2 container. The returned Mapped
// owns one region reference; Close releases it. Loaders that build
// long-lived structures over the mapping take their own references
// (Region().Retain()) before the caller Closes.
func MapFile(path string) (*Mapped, error) {
	region, err := mapped.Map(path)
	if err != nil {
		return nil, err
	}
	m, err := parseMapped(region.Bytes())
	if err != nil {
		region.Release()
		return nil, fmt.Errorf("snapshot: %s: %w", path, err)
	}
	m.region = region
	return m, nil
}

// OpenMappedBytes parses a v2 container over caller-owned bytes (tests
// and fuzzing; no region, so Close is a no-op and Region returns nil).
func OpenMappedBytes(data []byte) (*Mapped, error) {
	return parseMapped(data)
}

// Kind returns the backend kind recorded in the header.
func (m *Mapped) Kind() string { return m.kind }

// Region returns the backing region (nil for OpenMappedBytes).
func (m *Mapped) Region() *mapped.Region { return m.region }

// Sections returns the number of sections.
func (m *Mapped) Sections() int { return len(m.secs) }

// Rewind resets the section cursor (loaders walk sections in order, like
// the streaming reader's Next/Expect).
func (m *Mapped) Rewind() { m.cursor = 0 }

// Next returns the next section; io.EOF past the last.
func (m *Mapped) Next() (*MappedSection, error) {
	if m.cursor >= len(m.secs) {
		return nil, io.EOF
	}
	s := &m.secs[m.cursor]
	m.cursor++
	return s, nil
}

// Expect returns the next section and fails unless its id matches.
func (m *Mapped) Expect(id uint32) (*MappedSection, error) {
	s, err := m.Next()
	if errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("snapshot: missing section %d (container ended)", id)
	}
	if err != nil {
		return nil, err
	}
	if s.ID != id {
		return nil, fmt.Errorf("snapshot: expected section %d, found %d", id, s.ID)
	}
	return s, nil
}

// Done fails if sections remain unconsumed — the mapped analogue of the
// streaming reader rejecting trailing sections.
func (m *Mapped) Done() error {
	if m.cursor < len(m.secs) {
		return fmt.Errorf("snapshot: %d unconsumed trailing sections (next id %d)",
			len(m.secs)-m.cursor, m.secs[m.cursor].ID)
	}
	return nil
}

// VerifyAll checks every section payload against its TOC CRC — one
// sequential hardware-CRC pass over the mapped bytes, the cheap
// whole-file integrity check warm restart runs before trusting a file
// that was not verified at fetch time.
func (m *Mapped) VerifyAll() error {
	for i := range m.secs {
		if err := m.secs[i].Verify(); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the Mapped's own region reference. Structures that
// retained the region keep it alive; Close only ends this handle.
func (m *Mapped) Close() error {
	if m.region != nil {
		r := m.region
		m.region = nil
		r.Release()
	}
	return nil
}

// MapKeySection views a v2 key section's keys in place: the 8-byte
// prefix (width + alignment pad) is validated exactly as ReadKeySection
// does, then the body is reinterpreted with no copy. The payload starts
// page-aligned and the prefix is 8 bytes, so the key data is aligned for
// any key width; a fallback buffer that happens to be misaligned fails
// the View check and the caller falls back to the heap read.
func MapKeySection[K kv.Key](s *MappedSection) ([]K, error) {
	width := int64(kv.Width[K]())
	if int64(len(s.Data)) < 8 {
		return nil, fmt.Errorf("snapshot: key section %d too short (%d bytes)", s.ID, len(s.Data))
	}
	if got := int64(binary.LittleEndian.Uint32(s.Data)); got != width {
		return nil, fmt.Errorf("snapshot: key section %d has %d-byte keys, this index uses %d-byte keys", s.ID, got, width)
	}
	if pad := binary.LittleEndian.Uint32(s.Data[4:8]); pad != 0 {
		return nil, fmt.Errorf("snapshot: key section %d has nonzero alignment pad %08x", s.ID, pad)
	}
	body := s.Data[8:]
	if int64(len(body))%width != 0 {
		return nil, fmt.Errorf("snapshot: key section %d payload %d bytes is not a multiple of the %d-byte key width",
			s.ID, len(body), width)
	}
	return mapped.View[K](body)
}

// parseMapped validates the container geometry end to end. Every read is
// bounds-checked against len(data) before it happens, and every TOC
// claim is recomputed from the walk rather than believed.
func parseMapped(data []byte) (*Mapped, error) {
	const headFixed = 8 + 4 + 4
	if len(data) < headFixed+1+16+footerSize {
		return nil, fmt.Errorf("%w (only %d bytes)", ErrNotMappable, len(data))
	}
	if string(data[:8]) != string(magic2[:]) {
		if string(data[:8]) == string(magic[:]) {
			return nil, fmt.Errorf("%w (v1 streaming layout)", ErrNotMappable)
		}
		return nil, fmt.Errorf("%w (bad magic)", ErrNotMappable)
	}
	if ver := binary.LittleEndian.Uint32(data[8:]); ver != version2 {
		return nil, fmt.Errorf("snapshot: container version %d under v2 magic, this build reads %d: %w",
			ver, version2, ErrVersionUnsupported)
	}
	kindLen := binary.LittleEndian.Uint32(data[12:])
	if kindLen == 0 || kindLen > MaxKindLen {
		return nil, fmt.Errorf("snapshot: invalid kind length %d (must be 1..%d)", kindLen, MaxKindLen)
	}
	headEnd := int64(headFixed) + int64(kindLen)
	if headEnd+16+footerSize > int64(len(data)) {
		return nil, fmt.Errorf("snapshot: container too short for its %d-byte kind", kindLen)
	}
	kind := string(data[headFixed:headEnd])

	foot := data[len(data)-footerSize:]
	if string(foot[24:32]) != string(endMagic[:]) {
		return nil, fmt.Errorf("snapshot: footer end magic %q, want %q: truncated or not a v2 container", foot[24:32], endMagic[:])
	}
	if reserved := binary.LittleEndian.Uint32(foot[20:24]); reserved != 0 {
		return nil, fmt.Errorf("snapshot: footer reserved word is %08x, want 0", reserved)
	}
	tocOff := binary.LittleEndian.Uint64(foot[0:8])
	tocCount := binary.LittleEndian.Uint32(foot[8:12])
	storedTocCRC := binary.LittleEndian.Uint32(foot[12:16])
	// Each section costs at least a 16-byte header, so a count beyond
	// size/16 is structurally impossible — reject before any allocation.
	if uint64(tocCount) > uint64(len(data))/16 {
		return nil, fmt.Errorf("snapshot: TOC claims %d sections in a %d-byte container", tocCount, len(data))
	}
	tocBytes := uint64(tocCount) * tocEntrySize
	wantTocEnd := uint64(len(data) - footerSize)
	if tocOff > wantTocEnd || wantTocEnd-tocOff != tocBytes {
		return nil, fmt.Errorf("snapshot: TOC at offset %d with %d entries does not fill the %d bytes before the footer",
			tocOff, tocCount, wantTocEnd)
	}
	crc := crc32.New(crcTable)
	crc.Write(data[tocOff:wantTocEnd])
	crc.Write(foot[0:12])
	if got := crc.Sum32(); got != storedTocCRC {
		return nil, fmt.Errorf("snapshot: TOC checksum mismatch (stored %08x, computed %08x)", storedTocCRC, got)
	}

	// Walk the section chain exactly as the streaming reader would,
	// cross-checking each header and padding run against its TOC entry.
	m := &Mapped{data: data, kind: kind, secs: make([]MappedSection, 0, tocCount)}
	pos := headEnd
	for i := uint32(0); i < tocCount; i++ {
		e := data[tocOff+uint64(i)*tocEntrySize:]
		id := binary.LittleEndian.Uint32(e)
		secCRC := binary.LittleEndian.Uint32(e[4:])
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		if id == 0 {
			return nil, fmt.Errorf("snapshot: TOC entry %d has reserved id 0", i)
		}
		if pos+16 > int64(tocOff) {
			return nil, fmt.Errorf("snapshot: section %d header at %d overruns the TOC", i, pos)
		}
		h := data[pos:]
		if hid := binary.LittleEndian.Uint32(h); hid != id {
			return nil, fmt.Errorf("snapshot: section %d header id %d does not match TOC id %d", i, hid, id)
		}
		if r := binary.LittleEndian.Uint32(h[4:]); r != 0 {
			return nil, fmt.Errorf("snapshot: section %d header reserved word is %08x", i, r)
		}
		if hlen := binary.LittleEndian.Uint64(h[8:]); hlen != length {
			return nil, fmt.Errorf("snapshot: section %d header length %d does not match TOC length %d", i, hlen, length)
		}
		pos += 16
		wantOff := pos + padTo(pos, pageAlign)
		// Bound the aligned payload start before anything dereferences it:
		// at least the 16-byte end marker must fit between the payload and
		// the TOC, so wantOff ≤ tocOff-16 — which also bounds the zero-scan.
		if wantOff+16 > int64(tocOff) {
			return nil, fmt.Errorf("snapshot: section %d payload at %d overruns the TOC at %d", i, wantOff, tocOff)
		}
		if off != uint64(wantOff) {
			return nil, fmt.Errorf("snapshot: section %d payload offset %d is not the aligned %d", i, off, wantOff)
		}
		for ; pos < wantOff; pos++ {
			if data[pos] != 0 {
				return nil, fmt.Errorf("snapshot: section %d has nonzero padding at offset %d", i, pos)
			}
		}
		// length is hostile until bounded: it must fit between the payload
		// start and the end marker that precedes the TOC.
		if room := tocOff - 16 - off; length > room {
			return nil, fmt.Errorf("snapshot: section %d payload [%d, +%d) overruns the container", i, off, length)
		}
		pos = int64(off + length)
		m.secs = append(m.secs, MappedSection{
			ID:   id,
			Off:  int64(off),
			Data: data[off : off+length : off+length],
			crc:  secCRC,
		})
	}
	if pos+16 != int64(tocOff) {
		return nil, fmt.Errorf("snapshot: sections end at %d but the TOC starts at %d", pos+16, tocOff)
	}
	end := data[pos:]
	if id := binary.LittleEndian.Uint32(end); id != 0 {
		return nil, fmt.Errorf("snapshot: end marker has id %d, want 0", id)
	}
	if r := binary.LittleEndian.Uint32(end[4:]); r != 0 {
		return nil, fmt.Errorf("snapshot: end marker reserved word is %08x", r)
	}
	if l := binary.LittleEndian.Uint64(end[8:]); l != 0 {
		return nil, fmt.Errorf("snapshot: end marker with nonzero length %d", l)
	}
	return m, nil
}

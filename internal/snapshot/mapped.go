package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"

	"repro/internal/kv"
	"repro/internal/mapped"
)

// This file is the one decoder of both layouts: Open (fulls, v2) and
// OpenStream (deltas, v1) parse a container over bytes already in memory
// — a mapping, or a heap read of the file — into the list of its
// sections, and every loader walks that list.
// Opening a v2 container costs O(sections), not O(bytes): the footer,
// TOC, headers and padding are validated eagerly, payload CRCs verify
// lazily through Verify/VerifyAll. Everything structural a hostile file
// could lie about (offsets, lengths, counts, alignment) is cross-checked
// against the section chain itself, so a section handed to a loader is
// exactly the byte range its header, its TOC entry and the container
// geometry all agree on. A v1 container has no TOC and no per-section
// CRCs, so OpenStream walks its section headers and checks its trailing
// checksum at once; its sections are verified from the start.
//
// Trust model: an unverified payload is memory-safe to parse (every
// slice is bounds-derived from validated geometry) but not yet known to
// be the written bytes. Verified reports whether the whole container
// is known good — VerifyAll ran, or the container is v1 — and the
// loaders run their O(n) invariant checks (keys sorted, partition
// counts bounded) exactly then. The heap entry points (ReadFile, Read
// and their stream twins) always verify in full; a mapped open (MapFile)
// leaves it to the caller: the replica maps artifacts whose whole-file
// CRC it checked at fetch time, and so serves them after an O(sections)
// open.

// MappedSection is one section of an opened container. Data aliases the
// container bytes: read-only, and it must not outlive the region.
type MappedSection struct {
	ID   uint32
	Off  int64 // payload offset in the container (page-aligned in v2)
	Data []byte

	crc      uint32
	v1       bool // stream-framed: key sections carry a 4-byte prefix
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

// Mapped is an opened container over a byte region.
type Mapped struct {
	region   *mapped.Region
	data     []byte
	kind     string
	secs     []MappedSection
	cursor   int
	verified bool
}

// MapFile maps path and opens it as a full (Open): the v2 container is
// viewed in place. The returned Mapped owns one region reference, Close
// releases it, and loaders that build long-lived structures over the
// mapping take their own references (Region().Retain()) before the
// caller Closes.
func MapFile(path string) (*Mapped, error) {
	region, err := mapped.Map(path)
	if err != nil {
		return nil, err
	}
	m, err := Open(region.Bytes())
	if err != nil {
		region.Release()
		return nil, fmt.Errorf("snapshot: %s: %w", path, err)
	}
	m.region = region
	return m, nil
}

// ReadFile reads a full's container file onto the heap, opens it and
// verifies every checksum: the eager, fully verified load.
func ReadFile(path string) (*Mapped, error) { return readFile(path, Open) }

// ReadStreamFile is ReadFile for a stream-framed container (a delta).
func ReadStreamFile(path string) (*Mapped, error) { return readFile(path, OpenStream) }

func readFile(path string, open func([]byte) (*Mapped, error)) (*Mapped, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading %s: %w", path, err)
	}
	m, err := openVerified(data, open)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %s: %w", path, err)
	}
	return m, nil
}

// Read is ReadFile over an arbitrary reader: total is the input size in
// bytes, or -1 to read to EOF. The input is read incrementally, so a
// lying total cannot allocate more than the bytes actually present.
func Read(r io.Reader, total int64) (*Mapped, error) { return read(r, total, Open) }

// ReadStream is Read for a stream-framed container (a delta).
func ReadStream(r io.Reader, total int64) (*Mapped, error) { return read(r, total, OpenStream) }

func read(r io.Reader, total int64, open func([]byte) (*Mapped, error)) (*Mapped, error) {
	if total >= 0 {
		r = io.LimitReader(r, total)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading container: %w", err)
	}
	if total >= 0 && int64(len(data)) != total {
		return nil, fmt.Errorf("snapshot: container truncated at %d of %d bytes", len(data), total)
	}
	return openVerified(data, open)
}

func openVerified(data []byte, open func([]byte) (*Mapped, error)) (*Mapped, error) {
	m, err := open(data)
	if err != nil {
		return nil, err
	}
	if err := m.VerifyAll(); err != nil {
		return nil, err
	}
	return m, nil
}

// Open parses a full's v2 container over caller-owned bytes (no region:
// Close is a no-op and Region returns nil). A stream-framed container is
// refused with ErrLegacy: fulls are v2, and only deltas are
// stream-framed.
func Open(data []byte) (*Mapped, error) { return open(data, false) }

// OpenStream parses a stream-framed (v1) container over caller-owned
// bytes and checks its checksum: the framing of generation deltas, and
// of the fulls earlier builds wrote, which only the offline migration
// reads. A v2 container is refused.
func OpenStream(data []byte) (*Mapped, error) { return open(data, true) }

func open(data []byte, stream bool) (*Mapped, error) {
	kind, headEnd, v1, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	m := &Mapped{data: data, kind: kind}
	switch {
	case v1 && !stream:
		return nil, fmt.Errorf("snapshot: %q container is stream-framed, and a full must be v2: %w", kind, ErrLegacy)
	case v1:
		err = m.parseStream(headEnd)
	case stream:
		return nil, fmt.Errorf("snapshot: %q container is v2, want the stream framing of a delta", kind)
	default:
		err = m.parseMapped(headEnd)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Kind returns the backend kind recorded in the header.
func (m *Mapped) Kind() string { return m.kind }

// Region returns the backing region (nil unless a file was mapped).
func (m *Mapped) Region() *mapped.Region { return m.region }

// Bytes returns the whole container the sections alias: the mapping, or
// the heap bytes it was opened over.
func (m *Mapped) Bytes() []byte { return m.data }

// Rewind resets the section cursor (loaders walk sections in order).
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

// Done fails if sections remain unconsumed: a loader accepts exactly the
// section sequence its kind documents.
func (m *Mapped) Done() error {
	if m.cursor < len(m.secs) {
		return fmt.Errorf("snapshot: %d unconsumed trailing sections (next id %d)",
			len(m.secs)-m.cursor, m.secs[m.cursor].ID)
	}
	return nil
}

// VerifyAll checks every section payload against its TOC CRC and the
// footer's whole-container CRC — one sequential hardware-CRC pass over
// the bytes per check, the integrity a heap load runs before a loader
// sees a section. After it succeeds, Verified reports true.
func (m *Mapped) VerifyAll() error {
	if m.verified {
		return nil
	}
	for i := range m.secs {
		if err := m.secs[i].Verify(); err != nil {
			return err
		}
	}
	end := len(m.data) - footerSize + 16
	if stored, got := binary.LittleEndian.Uint32(m.data[end:]), crc32.Checksum(m.data[:end], crcTable); stored != got {
		return fmt.Errorf("snapshot: checksum mismatch (stored %08x, computed %08x): corrupt or truncated container",
			stored, got)
	}
	m.verified = true
	return nil
}

// Verified reports whether every byte of the container has been checked
// against its checksums: VerifyAll succeeded, or the container is v1,
// whose one checksum OpenStream checks. Loaders run their O(n) invariant
// checks exactly when it is true.
func (m *Mapped) Verified() bool { return m.verified }

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

// MapKeySection returns a key section's keys: the prefix (the key width,
// plus a zero alignment pad in v2) is validated, then a v2 body is
// viewed in place with no copy — the payload starts page-aligned and the
// prefix is 8 bytes, so the key data is aligned for any key width. A v1
// (delta) body follows a 4-byte prefix at no particular alignment and is
// decoded into a fresh slice.
func MapKeySection[K kv.Key](s *MappedSection) ([]K, error) {
	width := int64(kv.Width[K]())
	prefix := int64(8)
	if s.v1 {
		prefix = 4
	}
	if int64(len(s.Data)) < prefix {
		return nil, fmt.Errorf("snapshot: key section %d too short (%d bytes)", s.ID, len(s.Data))
	}
	if got := int64(binary.LittleEndian.Uint32(s.Data)); got != width {
		return nil, fmt.Errorf("snapshot: key section %d has %d-byte keys, this index uses %d-byte keys", s.ID, got, width)
	}
	if !s.v1 {
		if pad := binary.LittleEndian.Uint32(s.Data[4:8]); pad != 0 {
			return nil, fmt.Errorf("snapshot: key section %d has nonzero alignment pad %08x", s.ID, pad)
		}
	}
	body := s.Data[prefix:]
	if int64(len(body))%width != 0 {
		return nil, fmt.Errorf("snapshot: key section %d payload %d bytes is not a multiple of the %d-byte key width",
			s.ID, len(body), width)
	}
	if !s.v1 {
		return mapped.View[K](body)
	}
	keys := make([]K, len(body)/int(width))
	for i := range keys {
		if width == 4 {
			keys[i] = K(binary.LittleEndian.Uint32(body[4*i:]))
		} else {
			keys[i] = K(binary.LittleEndian.Uint64(body[8*i:]))
		}
	}
	return keys, nil
}

// CopyKeySection is MapKeySection for keys that must outlive the
// container (pending write generations): the result never aliases it. A v1
// section is already decoded into a fresh slice; a v2 view is copied
// once.
func CopyKeySection[K kv.Key](s *MappedSection) ([]K, error) {
	keys, err := MapKeySection[K](s)
	if err != nil || s.v1 {
		return keys, err
	}
	return append(make([]K, 0, len(keys)), keys...), nil
}

// parseHeader validates the fixed header both layouts share — magic,
// version, kind — and returns the kind, the offset just past it, and
// whether the container is stream-framed (v1). data may be a prefix of
// the container.
func parseHeader(data []byte) (kind string, headEnd int, v1 bool, err error) {
	const headFixed = 8 + 4 + 4
	if len(data) < headFixed {
		return "", 0, false, fmt.Errorf("snapshot: not a snapshot container (only %d bytes)", len(data))
	}
	want := uint32(version2)
	switch string(data[:8]) {
	case string(magic[:]):
		v1, want = true, version1
	case string(magic2[:]):
	default:
		return "", 0, false, fmt.Errorf("snapshot: not a snapshot container (bad magic)")
	}
	if ver := binary.LittleEndian.Uint32(data[8:]); ver != want {
		return "", 0, false, fmt.Errorf("snapshot: container version %d under %q magic, this build reads %d and %d: %w",
			ver, data[:8], version1, version2, ErrVersionUnsupported)
	}
	kindLen := binary.LittleEndian.Uint32(data[12:])
	if kindLen == 0 || kindLen > MaxKindLen {
		return "", 0, false, fmt.Errorf("snapshot: invalid kind length %d (must be 1..%d)", kindLen, MaxKindLen)
	}
	headEnd = headFixed + int(kindLen)
	if headEnd > len(data) {
		return "", 0, false, fmt.Errorf("snapshot: container too short for its %d-byte kind", kindLen)
	}
	return string(data[headFixed:headEnd]), headEnd, v1, nil
}

// parseStream walks a v1 container's section chain from headEnd: every
// header is bounded against the bytes that remain, the end marker must
// have length 0, and the 8-byte trailer — the CRC-32C of everything
// before it, zero-extended — must match and end the input. The sections
// are then verified. Payloads alias data at whatever alignment their
// offsets give; the delta loader decodes its sections rather than views
// them.
func (m *Mapped) parseStream(headEnd int) error {
	data := m.data
	pos := int64(headEnd)
	for {
		if pos+16 > int64(len(data)) {
			return fmt.Errorf("snapshot: section header at %d truncated", pos)
		}
		h := data[pos:]
		id := binary.LittleEndian.Uint32(h)
		size := binary.LittleEndian.Uint64(h[8:])
		pos += 16
		if id == 0 {
			if size != 0 {
				return fmt.Errorf("snapshot: end marker with nonzero length %d", size)
			}
			break
		}
		if size > uint64(int64(len(data))-pos) {
			return fmt.Errorf("snapshot: section %d length %d exceeds remaining input %d", id, size, int64(len(data))-pos)
		}
		end := pos + int64(size)
		m.secs = append(m.secs, MappedSection{ID: id, Off: pos, Data: data[pos:end:end], v1: true})
		m.secs[len(m.secs)-1].verified.Store(true)
		pos += int64(size)
	}
	if int64(len(data))-pos != 8 {
		return fmt.Errorf("snapshot: container ends %d bytes after its end marker, want the 8-byte checksum", int64(len(data))-pos)
	}
	if stored, want := binary.LittleEndian.Uint64(data[pos:]), uint64(crc32.Checksum(data[:pos], crcTable)); stored != want {
		return fmt.Errorf("snapshot: checksum mismatch (stored %016x, computed %016x): corrupt or truncated container",
			stored, want)
	}
	m.verified = true
	return nil
}

// parseMapped validates a v2 container's geometry end to end. Every read
// is bounds-checked against len(data) before it happens, and every TOC
// claim is recomputed from the walk rather than believed.
func (m *Mapped) parseMapped(headEnd int) error {
	data := m.data
	if int64(headEnd)+16+footerSize > int64(len(data)) {
		return fmt.Errorf("snapshot: v2 container truncated (%d bytes)", len(data))
	}
	foot := data[len(data)-footerSize:]
	if string(foot[24:32]) != string(endMagic[:]) {
		return fmt.Errorf("snapshot: footer end magic %q, want %q: truncated or not a v2 container", foot[24:32], endMagic[:])
	}
	if reserved := binary.LittleEndian.Uint32(foot[20:24]); reserved != 0 {
		return fmt.Errorf("snapshot: footer reserved word is %08x, want 0", reserved)
	}
	tocOff := binary.LittleEndian.Uint64(foot[0:8])
	tocCount := binary.LittleEndian.Uint32(foot[8:12])
	storedTocCRC := binary.LittleEndian.Uint32(foot[12:16])
	// Each section costs at least a 16-byte header, so a count beyond
	// size/16 is structurally impossible — reject before any allocation.
	if uint64(tocCount) > uint64(len(data))/16 {
		return fmt.Errorf("snapshot: TOC claims %d sections in a %d-byte container", tocCount, len(data))
	}
	tocBytes := uint64(tocCount) * tocEntrySize
	wantTocEnd := uint64(len(data) - footerSize)
	if tocOff > wantTocEnd || wantTocEnd-tocOff != tocBytes {
		return fmt.Errorf("snapshot: TOC at offset %d with %d entries does not fill the %d bytes before the footer",
			tocOff, tocCount, wantTocEnd)
	}
	crc := crc32.New(crcTable)
	crc.Write(data[tocOff:wantTocEnd])
	crc.Write(foot[0:12])
	if got := crc.Sum32(); got != storedTocCRC {
		return fmt.Errorf("snapshot: TOC checksum mismatch (stored %08x, computed %08x)", storedTocCRC, got)
	}

	// Walk the section chain, cross-checking each header and padding run
	// against its TOC entry.
	m.secs = make([]MappedSection, 0, tocCount)
	pos := int64(headEnd)
	for i := uint32(0); i < tocCount; i++ {
		e := data[tocOff+uint64(i)*tocEntrySize:]
		id := binary.LittleEndian.Uint32(e)
		secCRC := binary.LittleEndian.Uint32(e[4:])
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		if id == 0 {
			return fmt.Errorf("snapshot: TOC entry %d has reserved id 0", i)
		}
		if pos+16 > int64(tocOff) {
			return fmt.Errorf("snapshot: section %d header at %d overruns the TOC", i, pos)
		}
		h := data[pos:]
		if hid := binary.LittleEndian.Uint32(h); hid != id {
			return fmt.Errorf("snapshot: section %d header id %d does not match TOC id %d", i, hid, id)
		}
		if r := binary.LittleEndian.Uint32(h[4:]); r != 0 {
			return fmt.Errorf("snapshot: section %d header reserved word is %08x", i, r)
		}
		if hlen := binary.LittleEndian.Uint64(h[8:]); hlen != length {
			return fmt.Errorf("snapshot: section %d header length %d does not match TOC length %d", i, hlen, length)
		}
		pos += 16
		wantOff := pos + padTo(pos, pageAlign)
		// Bound the aligned payload start before anything dereferences it:
		// at least the 16-byte end marker must fit between the payload and
		// the TOC, so wantOff ≤ tocOff-16 — which also bounds the zero-scan.
		if wantOff+16 > int64(tocOff) {
			return fmt.Errorf("snapshot: section %d payload at %d overruns the TOC at %d", i, wantOff, tocOff)
		}
		if off != uint64(wantOff) {
			return fmt.Errorf("snapshot: section %d payload offset %d is not the aligned %d", i, off, wantOff)
		}
		for ; pos < wantOff; pos++ {
			if data[pos] != 0 {
				return fmt.Errorf("snapshot: section %d has nonzero padding at offset %d", i, pos)
			}
		}
		// length is hostile until bounded: it must fit between the payload
		// start and the end marker that precedes the TOC.
		if room := tocOff - 16 - off; length > room {
			return fmt.Errorf("snapshot: section %d payload [%d, +%d) overruns the container", i, off, length)
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
		return fmt.Errorf("snapshot: sections end at %d but the TOC starts at %d", pos+16, tocOff)
	}
	end := data[pos:]
	if id := binary.LittleEndian.Uint32(end); id != 0 {
		return fmt.Errorf("snapshot: end marker has id %d, want 0", id)
	}
	if r := binary.LittleEndian.Uint32(end[4:]); r != 0 {
		return fmt.Errorf("snapshot: end marker reserved word is %08x", r)
	}
	if l := binary.LittleEndian.Uint64(end[8:]); l != 0 {
		return fmt.Errorf("snapshot: end marker with nonzero length %d", l)
	}
	return nil
}

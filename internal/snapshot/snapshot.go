// Package snapshot implements the container format behind index
// persistence (DESIGN.md §9): a versioned, checksummed, crash-safe file
// layout that every persistable backend writes its state into.
//
// The layer file of internal/core (serialize.go) persists one correction
// layer and trusts the caller to supply the matching keys and model. A
// serving deployment that must restart under traffic needs more: the whole
// index — keys, model identity, layer, and for the updatable index its
// pending write generations — in one artifact
// that can be verified before a single byte of it is trusted. This package
// provides the artifact; the backends provide the payloads.
//
// The container layout is a fixed property of the artifact kind (DESIGN.md
// §13): every full snapshot is written in the version 2 layout below, and
// only replication's generation deltas keep the version 1 stream framing,
// whose lack of page padding suits their few small sections. The reader
// accepts both, so version 1 fulls written by earlier builds still load.
//
// # Container layout (version 1)
//
//	magic    8 bytes  "STSNAP01"
//	version  u32      1
//	kindLen  u32      ≤ 64
//	kind     bytes    backend kind, e.g. "shift-table", "router"
//	section* —        id u32 (nonzero), reserved u32 (0), len u64, payload
//	end      16 bytes a zero section header (id 0, reserved 0, len 0)
//	checksum 8 bytes  CRC-32C of every preceding byte, zero-extended
//	                  (Castagnoli — hardware-accelerated on amd64/arm64,
//	                  so verification costs a fraction of the decode)
//
// All integers are little-endian. Sections are strictly ordered: each
// backend kind documents its sequence, loaders read it with Expect, and a
// version bump accompanies any layout change (version negotiation is
// strict equality in v1; the field exists so a future reader can accept a
// range). The trailing checksum covers everything from the magic through
// the end marker, so a loader that finishes Close knows the file it parsed
// is bit-identical to the file that was written.
//
// # Trust model
//
// Readers never trust a header field they have not bounded: the kind
// length, section lengths and payload sizes are validated against the
// remaining input where the total size is known, and all payload
// allocation is incremental (chunks of at most 1 MiB), so a hostile or
// truncated header fails with an error after a bounded allocation instead
// of asking the allocator for terabytes. Nothing parsed from a container
// should be used until Close has verified the checksum; the loaders in
// core/router/updatable/concurrent follow that rule.
//
// # Container layout (version 2)
//
// Version 2 (DESIGN.md §12) is the mappable layout: the same header and
// strictly-ordered section sequence, but each section's payload starts at
// a page-aligned (4 KiB) offset — the 16-byte section header is followed
// by zero padding up to the next page boundary — and the container ends
// with a table of contents recording, per section, its payload offset,
// length and CRC-32C, plus a fixed-size footer:
//
//	magic    8 bytes  "STSNAP02"
//	version  u32      2
//	kindLen  u32      ≤ 64
//	kind     bytes    backend kind
//	section* —        id u32, reserved u32, len u64,
//	                  zero padding to the next 4 KiB boundary, payload
//	end      16 bytes a zero section header
//	toc      n×24 B   id u32, crc u32 (CRC-32C of the payload),
//	                  payload offset u64, payload length u64
//	footer   32 bytes tocOff u64, tocCount u32,
//	                  tocCRC u32 (CRC-32C of toc ‖ tocOff ‖ tocCount),
//	                  contCRC u32 (CRC-32C of magic..tocCRC),
//	                  reserved u32 (0), endMagic "STSNEND2"
//
// The page alignment lets a loader view the bulk payloads (keys, fused
// drift pairs) in place over an mmap of the file; the per-section CRCs
// let it verify lazily — footer, TOC and structure eagerly in O(sections),
// payload checksums on demand — which is what makes a mapped warm start
// O(1) in key count (see Mapped in mapped.go). The streaming Reader reads
// both versions; v2 files written here start at file offset 0, which is
// what makes the recorded offsets page-aligned in the mapping.
//
// # Crash safety
//
// SaveFile writes to a temporary file in the target directory, syncs it,
// and renames it over the destination, so a crash mid-write leaves either
// the old snapshot or the new one — never a torn file. LoadFile verifies
// the checksum before its result is returned.
package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/kv"
)

// version1 is the stream-framed container layout; version2 is the
// page-aligned mappable layout. NewWriter and SaveFile write v2,
// SaveStreamFile writes v1 (generation deltas only), and NewReader
// accepts both.
const (
	version1 = 1
	version2 = 2
)

// ErrVersionUnsupported reports version skew: an artifact (snapshot
// container, replication manifest, or replica state file) declares a format
// version this build does not read. It is a distinct, typed condition
// because the replication layer treats it differently from corruption —
// a corrupt fetch is retried, but a future-version file written by a newer
// builder will never parse, so a replica must refuse it immediately, keep
// serving its last-good state, and report the skew. Wrapping errors always
// include the found and supported versions in their message; match with
// errors.Is.
var ErrVersionUnsupported = errors.New("format version unsupported")

// MaxKindLen bounds the kind string so a corrupt header cannot demand an
// unbounded name allocation.
const MaxKindLen = 64

// maxSmallSection bounds Section.Bytes reads unless the caller raises the
// cap explicitly: metadata sections are small by construction.
const maxSmallSection = 1 << 20

// readChunk is the incremental-allocation unit: payload slices grow by at
// most this many bytes per read, so a hostile length field cannot trigger
// an allocation larger than the input that backs it.
const readChunk = 1 << 20

var (
	magic    = [8]byte{'S', 'T', 'S', 'N', 'A', 'P', '0', '1'}
	magic2   = [8]byte{'S', 'T', 'S', 'N', 'A', 'P', '0', '2'}
	endMagic = [8]byte{'S', 'T', 'S', 'N', 'E', 'N', 'D', '2'}
)

// pageAlign is the v2 payload alignment: 4 KiB, the page size of every
// platform this repository targets, so a payload offset in the file is a
// page-aligned address in a mapping of it.
const (
	pageAlign    = 4096
	tocEntrySize = 24
	footerSize   = 32
)

// tocEntry is one v2 table-of-contents record.
type tocEntry struct {
	id  uint32
	crc uint32
	off uint64
	len uint64
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Writer emits one container: header, sections in order, end marker and
// checksum. Create it with NewWriter, add sections with Bytes or
// SectionSized, and Close it; errors are sticky.
type Writer struct {
	dst   io.Writer
	w     io.Writer // dst teed into crc (and the offset counter)
	crc   hash.Hash32
	sized *sizedWriter // open sized section, if any
	err   error

	// v2 state: the layout version, the absolute offset written so far
	// (pad computation and TOC offsets), the per-section payload CRC, and
	// the table of contents accumulated for the footer.
	v2     bool
	off    int64
	secCRC hash.Hash32
	toc    []tocEntry
}

// NewWriter writes the v2 (page-aligned, mappable) container header for
// the given backend kind. The container must start at offset 0 of its
// file — the recorded payload offsets are file offsets, and their page
// alignment is what the mapped loader relies on.
func NewWriter(dst io.Writer, kind string) (*Writer, error) {
	return newWriter(dst, kind, true)
}

func newWriter(dst io.Writer, kind string, v2 bool) (*Writer, error) {
	if kind == "" || len(kind) > MaxKindLen {
		return nil, fmt.Errorf("snapshot: invalid kind %q (must be 1..%d bytes)", kind, MaxKindLen)
	}
	sw := &Writer{dst: dst, crc: crc32.New(crcTable), v2: v2}
	sw.w = io.MultiWriter(dst, sw.crc, offCounter{&sw.off})
	m, ver := magic, uint32(version1)
	if v2 {
		m, ver = magic2, version2
		sw.secCRC = crc32.New(crcTable)
	}
	if _, err := sw.w.Write(m[:]); err != nil {
		return nil, fmt.Errorf("snapshot: writing magic: %w", err)
	}
	if err := writeU32(sw.w, ver); err != nil {
		return nil, fmt.Errorf("snapshot: writing version: %w", err)
	}
	if err := writeU32(sw.w, uint32(len(kind))); err != nil {
		return nil, fmt.Errorf("snapshot: writing kind length: %w", err)
	}
	if _, err := io.WriteString(sw.w, kind); err != nil {
		return nil, fmt.Errorf("snapshot: writing kind: %w", err)
	}
	return sw, nil
}

// offCounter tracks the absolute container offset through the write tee.
type offCounter struct{ n *int64 }

func (o offCounter) Write(p []byte) (int, error) {
	*o.n += int64(len(p))
	return len(p), nil
}

// Bytes writes one complete section with the given payload. Intended for
// metadata sections; large payloads should stream through SectionSized.
func (sw *Writer) Bytes(id uint32, payload []byte) error {
	w, err := sw.SectionSized(id, int64(len(payload)))
	if err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return nil
}

// SectionSized starts a section whose payload length is known up front and
// returns the writer the payload streams into. The section is closed by
// the next SectionSized/Bytes/Close call, which fails if the payload was
// not exactly size bytes.
func (sw *Writer) SectionSized(id uint32, size int64) (io.Writer, error) {
	if sw.err != nil {
		return nil, sw.err
	}
	if id == 0 {
		return nil, sw.fail(fmt.Errorf("snapshot: section id 0 is reserved for the end marker"))
	}
	if size < 0 {
		return nil, sw.fail(fmt.Errorf("snapshot: negative section size %d", size))
	}
	if err := sw.closeSection(); err != nil {
		return nil, err
	}
	if err := sw.sectionHeader(id, uint64(size)); err != nil {
		return nil, sw.fail(err)
	}
	sw.sized = &sizedWriter{sw: sw, id: id, size: size, left: size, payloadOff: sw.off}
	if sw.v2 {
		sw.secCRC.Reset()
	}
	return sw.sized, nil
}

// Close finishes the container: closes any open section, writes the end
// marker and the checksum (v1) or the TOC and footer (v2). It does not
// close the underlying writer.
func (sw *Writer) Close() error {
	if sw.err != nil {
		return sw.err
	}
	if err := sw.closeSection(); err != nil {
		return err
	}
	if err := sw.sectionHeader(0, 0); err != nil {
		return sw.fail(err)
	}
	if sw.v2 {
		return sw.closeV2()
	}
	sum := uint64(sw.crc.Sum32())
	// The checksum itself is written to the destination only — it is not
	// part of the checksummed range.
	if err := binary.Write(sw.dst, binary.LittleEndian, sum); err != nil {
		return sw.fail(fmt.Errorf("snapshot: writing checksum: %w", err))
	}
	sw.err = fmt.Errorf("snapshot: writer closed")
	return nil
}

// closeV2 writes the v2 tail: the TOC, then the footer. Everything up to
// and including tocCRC flows through the container CRC tee; contCRC,
// the reserved word and the end magic are outside the checksummed range.
func (sw *Writer) closeV2() error {
	tocOff := uint64(sw.off)
	buf := make([]byte, 0, len(sw.toc)*tocEntrySize+16)
	for _, e := range sw.toc {
		buf = binary.LittleEndian.AppendUint32(buf, e.id)
		buf = binary.LittleEndian.AppendUint32(buf, e.crc)
		buf = binary.LittleEndian.AppendUint64(buf, e.off)
		buf = binary.LittleEndian.AppendUint64(buf, e.len)
	}
	buf = binary.LittleEndian.AppendUint64(buf, tocOff)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sw.toc)))
	tocCRC := crc32.Checksum(buf, crcTable)
	buf = binary.LittleEndian.AppendUint32(buf, tocCRC)
	if _, err := sw.w.Write(buf); err != nil {
		return sw.fail(fmt.Errorf("snapshot: writing table of contents: %w", err))
	}
	tail := make([]byte, 0, 16)
	tail = binary.LittleEndian.AppendUint32(tail, sw.crc.Sum32())
	tail = binary.LittleEndian.AppendUint32(tail, 0) // reserved
	tail = append(tail, endMagic[:]...)
	if _, err := sw.dst.Write(tail); err != nil {
		return sw.fail(fmt.Errorf("snapshot: writing footer: %w", err))
	}
	sw.err = fmt.Errorf("snapshot: writer closed")
	return nil
}

func (sw *Writer) sectionHeader(id uint32, size uint64) error {
	if err := writeU32(sw.w, id); err != nil {
		return fmt.Errorf("snapshot: writing section header: %w", err)
	}
	if err := writeU32(sw.w, 0); err != nil { // reserved
		return fmt.Errorf("snapshot: writing section header: %w", err)
	}
	if err := binary.Write(sw.w, binary.LittleEndian, size); err != nil {
		return fmt.Errorf("snapshot: writing section length: %w", err)
	}
	if sw.v2 && id != 0 {
		// Zero padding up to the next page boundary, so the payload that
		// follows is page-aligned in the file (and thus in a mapping).
		if pad := int(padTo(sw.off, pageAlign)); pad > 0 {
			if _, err := sw.w.Write(make([]byte, pad)); err != nil {
				return fmt.Errorf("snapshot: writing section padding: %w", err)
			}
		}
	}
	return nil
}

// padTo returns the number of padding bytes from off to the next
// multiple of align (0 when already aligned).
func padTo(off int64, align int64) int64 {
	if r := off % align; r != 0 {
		return align - r
	}
	return 0
}

func (sw *Writer) closeSection() error {
	if sw.sized == nil {
		return nil
	}
	s := sw.sized
	sw.sized = nil
	if s.left != 0 {
		return sw.fail(fmt.Errorf("snapshot: section %d short by %d bytes of its declared size", s.id, s.left))
	}
	if sw.v2 {
		sw.toc = append(sw.toc, tocEntry{
			id:  s.id,
			crc: sw.secCRC.Sum32(),
			off: uint64(s.payloadOff),
			len: uint64(s.size),
		})
	}
	return nil
}

func (sw *Writer) fail(err error) error {
	if sw.err == nil {
		sw.err = err
	}
	return sw.err
}

// sizedWriter enforces a section's declared payload length.
type sizedWriter struct {
	sw         *Writer
	id         uint32
	size       int64
	left       int64
	payloadOff int64
}

func (s *sizedWriter) Write(p []byte) (int, error) {
	if s.sw.err != nil {
		return 0, s.sw.err
	}
	if s.sw.sized != s {
		return 0, fmt.Errorf("snapshot: write to closed section %d", s.id)
	}
	if int64(len(p)) > s.left {
		return 0, s.sw.fail(fmt.Errorf("snapshot: section %d overflows its declared size by %d bytes",
			s.id, int64(len(p))-s.left))
	}
	n, err := s.sw.w.Write(p)
	s.left -= int64(n)
	if s.sw.v2 {
		s.sw.secCRC.Write(p[:n])
	}
	if err != nil {
		return n, s.sw.fail(fmt.Errorf("snapshot: writing section %d: %w", s.id, err))
	}
	return n, nil
}

// Reader parses one container. Create it with NewReader, walk the
// sections with Expect (or Next), and Close it to verify the checksum.
// Nothing parsed should be trusted until Close returns nil.
type Reader struct {
	raw       io.Reader
	crc       hash.Hash32
	kind      string
	sized     bool  // the caller declared the input length
	remaining int64 // bytes left in the input when sized (may go negative)
	cur       *Section
	done      bool
	err       error

	// v2 state: the layout version, the absolute offset consumed so far
	// (pad verification), the per-section payload CRC, and the entries
	// walked so far — Close cross-checks them against the stored TOC.
	v2     bool
	off    int64
	secCRC hash.Hash32
	walked []tocEntry
}

// NewReader parses the container header. total is the input length in
// bytes when the caller knows it (a file size) and -1 otherwise; a known
// total lets the reader reject section lengths that exceed the input
// before reading them.
func NewReader(r io.Reader, total int64) (*Reader, error) {
	sr := &Reader{raw: r, crc: crc32.New(crcTable), sized: total >= 0, remaining: total}
	var m [8]byte
	if err := sr.readFull(m[:]); err != nil {
		return nil, fmt.Errorf("snapshot: reading magic: %w", err)
	}
	switch m {
	case magic:
	case magic2:
		sr.v2 = true
		sr.secCRC = crc32.New(crcTable)
	default:
		return nil, fmt.Errorf("snapshot: not a snapshot container (bad magic)")
	}
	ver, err := sr.readU32()
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading version: %w", err)
	}
	want := uint32(version1)
	if sr.v2 {
		want = version2
	}
	if ver != want {
		return nil, fmt.Errorf("snapshot: container version %d under %q magic, this build reads %d and %d: %w",
			ver, m[:], version1, version2, ErrVersionUnsupported)
	}
	kindLen, err := sr.readU32()
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading kind length: %w", err)
	}
	if kindLen == 0 || kindLen > MaxKindLen {
		return nil, fmt.Errorf("snapshot: invalid kind length %d (must be 1..%d)", kindLen, MaxKindLen)
	}
	kind := make([]byte, kindLen)
	if err := sr.readFull(kind); err != nil {
		return nil, fmt.Errorf("snapshot: reading kind: %w", err)
	}
	sr.kind = string(kind)
	return sr, nil
}

// Kind returns the backend kind recorded in the header.
func (sr *Reader) Kind() string { return sr.kind }

// Section is one length-prefixed payload. It implements io.Reader over
// exactly Len bytes.
type Section struct {
	ID         uint32
	Len        int64
	sr         *Reader
	off        int64 // bytes already read
	payloadOff int64 // absolute container offset of the payload (v2)
}

// Next returns the next section, draining any unread remainder of the
// current one first. At the end marker it returns (nil, io.EOF).
func (sr *Reader) Next() (*Section, error) {
	if sr.err != nil {
		return nil, sr.err
	}
	if sr.done {
		return nil, io.EOF
	}
	if sr.cur != nil && sr.cur.off != sr.cur.Len {
		return nil, sr.fail(fmt.Errorf("snapshot: section %d has %d unread payload bytes",
			sr.cur.ID, sr.cur.Len-sr.cur.off))
	}
	if sr.v2 && sr.cur != nil {
		// The section just drained completely; bank its identity and
		// payload CRC for the TOC cross-check at Close.
		sr.walked = append(sr.walked, tocEntry{
			id:  sr.cur.ID,
			crc: sr.secCRC.Sum32(),
			off: uint64(sr.cur.payloadOff),
			len: uint64(sr.cur.Len),
		})
	}
	sr.cur = nil
	id, err := sr.readU32()
	if err != nil {
		return nil, sr.fail(fmt.Errorf("snapshot: reading section header: %w", err))
	}
	if _, err := sr.readU32(); err != nil { // reserved
		return nil, sr.fail(fmt.Errorf("snapshot: reading section header: %w", err))
	}
	var size uint64
	if err := sr.readU64(&size); err != nil {
		return nil, sr.fail(fmt.Errorf("snapshot: reading section length: %w", err))
	}
	if id == 0 {
		if size != 0 {
			return nil, sr.fail(fmt.Errorf("snapshot: end marker with nonzero length %d", size))
		}
		sr.done = true
		return nil, io.EOF
	}
	if size > 1<<62 {
		return nil, sr.fail(fmt.Errorf("snapshot: section %d length %d is not credible", id, size))
	}
	if sr.v2 {
		if err := sr.skipPadding(id); err != nil {
			return nil, err
		}
		sr.secCRC.Reset()
	}
	if sr.sized && int64(size) > sr.remaining {
		return nil, sr.fail(fmt.Errorf("snapshot: section %d length %d exceeds remaining input %d",
			id, size, sr.remaining))
	}
	sr.cur = &Section{ID: id, Len: int64(size), sr: sr, payloadOff: sr.off}
	return sr.cur, nil
}

// skipPadding consumes the v2 alignment padding between a section header
// and its payload, requiring every byte to be zero — nonzero padding is
// either corruption or data smuggled outside any section's CRC, and both
// are rejected.
func (sr *Reader) skipPadding(id uint32) error {
	pad := padTo(sr.off, pageAlign)
	if pad == 0 {
		return nil
	}
	buf := make([]byte, pad)
	if err := sr.readFull(buf); err != nil {
		return sr.fail(fmt.Errorf("snapshot: section %d padding truncated: %w", id, err))
	}
	for i, b := range buf {
		if b != 0 {
			return sr.fail(fmt.Errorf("snapshot: section %d has nonzero padding at byte %d", id, i))
		}
	}
	return nil
}

// Expect returns the next section and fails unless its id matches.
func (sr *Reader) Expect(id uint32) (*Section, error) {
	s, err := sr.Next()
	if errors.Is(err, io.EOF) {
		return nil, sr.fail(fmt.Errorf("snapshot: missing section %d (container ended)", id))
	}
	if err != nil {
		return nil, err
	}
	if s.ID != id {
		return nil, sr.fail(fmt.Errorf("snapshot: expected section %d, found %d", id, s.ID))
	}
	return s, nil
}

// Read implements io.Reader over the section payload.
func (s *Section) Read(p []byte) (int, error) {
	if s.sr.err != nil {
		return 0, s.sr.err
	}
	if s.off >= s.Len {
		return 0, io.EOF
	}
	if max := s.Len - s.off; int64(len(p)) > max {
		p = p[:max]
	}
	n, err := s.sr.read(p)
	s.off += int64(n)
	if s.sr.v2 && n > 0 {
		s.sr.secCRC.Write(p[:n])
	}
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return n, s.sr.fail(fmt.Errorf("snapshot: section %d truncated at byte %d of %d: %w",
			s.ID, s.off, s.Len, err))
	}
	return n, nil
}

// Remaining returns the number of unread payload bytes.
func (s *Section) Remaining() int64 { return s.Len - s.off }

// Trusted reports whether the section's length was validated against a
// caller-declared input size (NewReader with total ≥ 0). A trusted length
// may drive a one-shot allocation; an untrusted one must grow
// incrementally.
func (s *Section) Trusted() bool { return s.sr.sized }

// Bytes reads the whole payload, requiring Len ≤ max (max ≤ 0 applies the
// 1 MiB metadata default). Allocation is incremental, so a corrupt length
// cannot allocate more than the input that backs it plus one chunk.
func (s *Section) Bytes(max int64) ([]byte, error) {
	if max <= 0 {
		max = maxSmallSection
	}
	if s.Len > max {
		return nil, s.sr.fail(fmt.Errorf("snapshot: section %d length %d exceeds cap %d", s.ID, s.Len, max))
	}
	out := make([]byte, 0, min64(s.Len, readChunk))
	for int64(len(out)) < s.Len {
		c := min64(s.Len-int64(len(out)), readChunk)
		start := int64(len(out))
		out = append(out, make([]byte, c)...)
		if _, err := io.ReadFull(s, out[start:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Close verifies the container: the current section must be fully read,
// the end marker must follow immediately, and the stored checksum must
// match the computed one. A loader that returns before Close reports nil
// must discard everything it parsed.
func (sr *Reader) Close() error {
	if sr.err != nil {
		return sr.err
	}
	if !sr.done {
		s, err := sr.Next()
		if err == nil {
			return sr.fail(fmt.Errorf("snapshot: unexpected trailing section %d", s.ID))
		}
		if !errors.Is(err, io.EOF) {
			return err
		}
	}
	if sr.v2 {
		return sr.closeV2()
	}
	want := uint64(sr.crc.Sum32())
	var stored uint64
	// The stored checksum is outside the checksummed range: read it from
	// the raw input, not through the hashing tee.
	if err := binary.Read(sr.raw, binary.LittleEndian, &stored); err != nil {
		return sr.fail(fmt.Errorf("snapshot: reading checksum: %w", err))
	}
	if stored != want {
		return sr.fail(fmt.Errorf("snapshot: checksum mismatch (stored %016x, computed %016x): corrupt or truncated container",
			stored, want))
	}
	sr.err = fmt.Errorf("snapshot: reader closed")
	return nil
}

// closeV2 verifies the v2 tail: the stored TOC must match the sections
// actually walked (ids, offsets, lengths and payload CRCs), the TOC CRC
// and container CRC must match, and the footer must be well-formed. The
// streaming path thus verifies strictly more than v1 did — every payload
// is covered twice, by its section CRC and by the container CRC.
func (sr *Reader) closeV2() error {
	tocStart := uint64(sr.off)
	buf := make([]byte, len(sr.walked)*tocEntrySize+12)
	if err := sr.readFull(buf); err != nil {
		return sr.fail(fmt.Errorf("snapshot: reading table of contents: %w", err))
	}
	for i, w := range sr.walked {
		e := buf[i*tocEntrySize:]
		stored := tocEntry{
			id:  binary.LittleEndian.Uint32(e),
			crc: binary.LittleEndian.Uint32(e[4:]),
			off: binary.LittleEndian.Uint64(e[8:]),
			len: binary.LittleEndian.Uint64(e[16:]),
		}
		if stored != w {
			return sr.fail(fmt.Errorf("snapshot: TOC entry %d (id %d, crc %08x, off %d, len %d) does not match the section walked (id %d, crc %08x, off %d, len %d)",
				i, stored.id, stored.crc, stored.off, stored.len, w.id, w.crc, w.off, w.len))
		}
	}
	foot := buf[len(sr.walked)*tocEntrySize:]
	if got := binary.LittleEndian.Uint64(foot); got != tocStart {
		return sr.fail(fmt.Errorf("snapshot: footer records TOC at %d, sections ended at %d", got, tocStart))
	}
	if got := binary.LittleEndian.Uint32(foot[8:]); got != uint32(len(sr.walked)) {
		return sr.fail(fmt.Errorf("snapshot: footer records %d sections, walked %d", got, len(sr.walked)))
	}
	wantTocCRC := crc32.Checksum(buf, crcTable)
	storedTocCRC, err := sr.readU32()
	if err != nil {
		return sr.fail(fmt.Errorf("snapshot: reading TOC checksum: %w", err))
	}
	if storedTocCRC != wantTocCRC {
		return sr.fail(fmt.Errorf("snapshot: TOC checksum mismatch (stored %08x, computed %08x)", storedTocCRC, wantTocCRC))
	}
	want := sr.crc.Sum32()
	var tail [16]byte
	if _, err := io.ReadFull(sr.raw, tail[:]); err != nil {
		return sr.fail(fmt.Errorf("snapshot: reading footer: %w", err))
	}
	if stored := binary.LittleEndian.Uint32(tail[:]); stored != want {
		return sr.fail(fmt.Errorf("snapshot: checksum mismatch (stored %08x, computed %08x): corrupt or truncated container",
			stored, want))
	}
	if reserved := binary.LittleEndian.Uint32(tail[4:]); reserved != 0 {
		return sr.fail(fmt.Errorf("snapshot: footer reserved word is %08x, want 0", reserved))
	}
	if !bytes.Equal(tail[8:], endMagic[:]) {
		return sr.fail(fmt.Errorf("snapshot: footer end magic %q, want %q", tail[8:], endMagic[:]))
	}
	sr.err = fmt.Errorf("snapshot: reader closed")
	return nil
}

// read pulls bytes through the hashing tee and the remaining-input budget.
func (sr *Reader) read(p []byte) (int, error) {
	n, err := sr.raw.Read(p)
	if n > 0 {
		sr.crc.Write(p[:n])
		sr.off += int64(n)
		if sr.sized {
			sr.remaining -= int64(n)
		}
	}
	return n, err
}

func (sr *Reader) readFull(p []byte) error {
	_, err := io.ReadFull(readerFunc(sr.read), p)
	return err
}

func (sr *Reader) readU32() (uint32, error) {
	var b [4]byte
	if err := sr.readFull(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func (sr *Reader) readU64(v *uint64) error {
	var b [8]byte
	if err := sr.readFull(b[:]); err != nil {
		return err
	}
	*v = binary.LittleEndian.Uint64(b[:])
	return nil
}

func (sr *Reader) fail(err error) error {
	if sr.err == nil {
		sr.err = err
	}
	return sr.err
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// WriteKeySection writes a sorted key slice as one section: a u32 key
// width followed by the keys little-endian at that width, streamed in
// chunks so no full-size staging copy is made. In a v2 container the
// width prefix is followed by four zero bytes, so the key data sits at
// payload offset 8 — 8-byte aligned from the page-aligned payload start,
// which is what lets the mapped loader view it in place.
func WriteKeySection[K kv.Key](sw *Writer, id uint32, keys []K) error {
	width := kv.Width[K]()
	prefix := int64(4)
	if sw.v2 {
		prefix = 8
	}
	w, err := sw.SectionSized(id, prefix+int64(len(keys))*int64(width))
	if err != nil {
		return err
	}
	if err := writeU32(w, uint32(width)); err != nil {
		return err
	}
	if sw.v2 {
		if err := writeU32(w, 0); err != nil { // alignment pad
			return err
		}
	}
	const chunk = 64 << 10
	for off := 0; off < len(keys); off += chunk {
		end := off + chunk
		if end > len(keys) {
			end = len(keys)
		}
		if err := binary.Write(w, binary.LittleEndian, keys[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// ReadKeySection reads a key section written by WriteKeySection,
// validating the recorded width against K and the payload length against
// the width. Allocation is incremental; maxKeys ≤ 0 means no count cap
// beyond what the input itself bounds.
func ReadKeySection[K kv.Key](s *Section, maxKeys int64) ([]K, error) {
	width := int64(kv.Width[K]())
	prefix := int64(4)
	if s.sr.v2 {
		prefix = 8
	}
	if s.Len < prefix {
		return nil, fmt.Errorf("snapshot: key section %d too short (%d bytes)", s.ID, s.Len)
	}
	var wb [8]byte
	if _, err := io.ReadFull(s, wb[:prefix]); err != nil {
		return nil, err
	}
	if got := int64(binary.LittleEndian.Uint32(wb[:])); got != width {
		return nil, fmt.Errorf("snapshot: key section %d has %d-byte keys, this index uses %d-byte keys", s.ID, got, width)
	}
	if s.sr.v2 {
		if pad := binary.LittleEndian.Uint32(wb[4:8]); pad != 0 {
			return nil, fmt.Errorf("snapshot: key section %d has nonzero alignment pad %08x", s.ID, pad)
		}
	}
	body := s.Len - prefix
	if body%width != 0 {
		return nil, fmt.Errorf("snapshot: key section %d payload %d bytes is not a multiple of the %d-byte key width",
			s.ID, body, width)
	}
	n := int(body / width)
	if maxKeys > 0 && int64(n) > maxKeys {
		return nil, fmt.Errorf("snapshot: key section %d holds %d keys, cap is %d", s.ID, n, maxKeys)
	}
	avail := int64(-1)
	if s.Trusted() {
		avail = body
	}
	return ReadFixed[K](s, n, int(width), "key", avail)
}

// ReadFixed reads n little-endian values of elemSize bytes each, in
// chunks of at most 1 MiB through one reused buffer. avail is the number
// of input bytes a trusted source vouches are actually present (-1 when
// unknown): with a voucher covering the array the result is allocated
// once (the restart hot path — no chunk-growth copies); without one the
// slice grows chunk by chunk, so a lying length dies on the short read
// behind it after at most one chunk of over-allocation. This is the one
// shared implementation of that trust discipline — the key sections here
// and the drift/count arrays of internal/core both read through it.
func ReadFixed[T ~int8 | ~int16 | ~int32 | ~int64 | ~uint32 | ~uint64](r io.Reader, n, elemSize int, what string, avail int64) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("snapshot: negative %s count %d", what, n)
	}
	need := int64(n) * int64(elemSize)
	if avail >= 0 && need > avail {
		return nil, fmt.Errorf("snapshot: %ss need %d bytes, input holds %d", what, need, avail)
	}
	chunk := readChunk / elemSize
	var out []T
	if avail >= 0 {
		out = make([]T, 0, n)
	}
	buf := make([]byte, int(min64(int64(n), int64(chunk)))*elemSize)
	filled := 0
	for filled < n {
		c := n - filled
		if c > chunk {
			c = chunk
		}
		b := buf[:c*elemSize]
		if _, err := io.ReadFull(r, b); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("snapshot: reading %ss %d..%d of %d: %w", what, filled, filled+c-1, n, err)
		}
		if cap(out) >= filled+c {
			out = out[:filled+c]
		} else {
			out = append(out, make([]T, c)...)
		}
		dst := out[filled : filled+c]
		// Same-width conversions wrap, so the unsigned reads bit-copy into
		// signed targets exactly.
		switch elemSize {
		case 1:
			for i := range dst {
				dst[i] = T(b[i])
			}
		case 2:
			for i := range dst {
				dst[i] = T(binary.LittleEndian.Uint16(b[2*i:]))
			}
		case 4:
			for i := range dst {
				dst[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
			}
		default:
			for i := range dst {
				dst[i] = T(binary.LittleEndian.Uint64(b[8*i:]))
			}
		}
		filled += c
	}
	return out, nil
}

// WriteFileAtomic publishes path crash-safely: write streams into a
// dot-prefixed temporary file in path's directory, which is fsynced,
// closed, and atomically renamed over path; the directory is then synced
// so the rename itself survives a crash (best effort — not every
// filesystem supports directory fsync). On any error the temporary file
// is removed and the previous file at path (if any) is untouched.
//
// This is the one atomic-publish implementation shared by snapshot
// containers (SaveFile) and the replica store (replica.DirStore.Put,
// which the warm-restart record also rides), so the temp/fsync/rename/
// dir-sync discipline cannot drift between the paths that all claim
// "crash-safe".
func WriteFileAtomic(path string, write func(*os.File) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("snapshot: creating temp file: %w", err)
	}
	tmp := f.Name()
	// Cleanup keys off the committed flag, not the error value, so every
	// exit — error return, a panic inside write, a failed Sync or Rename
	// — removes the temp file. A stranded *.tmp in a snapshot directory is
	// not harmless litter: a store listing that treats directory entries as
	// candidate artifacts would pick it up, and it is by construction a
	// torn container.
	committed := false
	defer func() {
		if !committed {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("snapshot: syncing %s: %w", tmp, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("snapshot: closing %s: %w", tmp, err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("snapshot: publishing %s: %w", path, err)
	}
	committed = true
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// SaveFile writes a v2 container crash-safely through WriteFileAtomic: on
// any error the temporary file is removed and the previous snapshot at
// path (if any) is untouched.
func SaveFile(path, kind string, persist func(*Writer) error) error {
	return saveFile(path, kind, persist, true)
}

// SaveStreamFile is SaveFile in the v1 stream framing: no page padding
// and no table of contents, so a container of a few small sections stays
// the size of its payloads. Generation deltas are its one use; they are
// parsed onto the heap on arrival and never mapped.
func SaveStreamFile(path, kind string, persist func(*Writer) error) error {
	return saveFile(path, kind, persist, false)
}

func saveFile(path, kind string, persist func(*Writer) error, v2 bool) error {
	return WriteFileAtomic(path, func(f *os.File) error {
		bw := bufio.NewWriterSize(f, 1<<20)
		sw, err := newWriter(bw, kind, v2)
		if err != nil {
			return err
		}
		if err := persist(sw); err != nil {
			return err
		}
		if err := sw.Close(); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("snapshot: flushing %s: %w", f.Name(), err)
		}
		return nil
	})
}

// LoadFile opens a container, hands the reader to load, and verifies the
// checksum afterwards. load's results must be discarded when LoadFile
// returns an error — the verification happens after parsing.
func LoadFile(path string, load func(*Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("snapshot: opening %s: %w", path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("snapshot: stat %s: %w", path, err)
	}
	sr, err := NewReader(bufio.NewReaderSize(f, 1<<20), st.Size())
	if err != nil {
		return fmt.Errorf("snapshot: %s: %w", path, err)
	}
	if err := load(sr); err != nil {
		return fmt.Errorf("snapshot: %s: %w", path, err)
	}
	if err := sr.Close(); err != nil {
		return fmt.Errorf("snapshot: %s: %w", path, err)
	}
	return nil
}

// Load is LoadFile over an arbitrary reader: total is the input size in
// bytes, or -1 when unknown.
func Load(r io.Reader, total int64, load func(*Reader) error) error {
	sr, err := NewReader(r, total)
	if err != nil {
		return err
	}
	if err := load(sr); err != nil {
		return err
	}
	return sr.Close()
}

// ReadKindFile returns the backend kind recorded in a snapshot file
// without loading it (tooling: shifttool -load prints it on mismatch).
func ReadKindFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sr, err := NewReader(bufio.NewReader(f), -1)
	if err != nil {
		return "", fmt.Errorf("snapshot: %s: %w", path, err)
	}
	return sr.Kind(), nil
}

func writeU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

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
// §13): every full snapshot is in the version 2 layout below, and only
// replication's generation deltas use the version 1 stream framing, whose
// lack of page padding suits their few small sections. Both parse into
// one list of sections (mapped.go), but through separate entry points:
// Open, Read, ReadFile and MapFile take fulls and refuse a stream-framed
// container with ErrLegacy, while OpenStream, ReadStream and
// ReadStreamFile take deltas and nothing else.
//
// # Container layout (version 1)
//
//	magic    8 bytes  "STSNAP01"
//	version  u32      1
//	kindLen  u32      ≤ 64
//	kind     bytes    backend kind, e.g. "shift-table", "concurrent"
//	section* —        id u32 (nonzero), reserved u32, len u64, payload
//	end      16 bytes a zero section header (id 0, reserved 0, len 0)
//	checksum 8 bytes  CRC-32C of every preceding byte, zero-extended
//	                  (Castagnoli — hardware-accelerated on amd64/arm64,
//	                  so verification costs a fraction of the decode)
//
// All integers are little-endian. Sections are strictly ordered: each
// backend kind documents its sequence, loaders walk it with Expect, and a
// version bump accompanies any layout change (version negotiation is
// strict equality; the field exists so a future reader can accept a
// range). The trailing checksum covers everything from the magic through
// the end marker and must be the last 8 bytes of the input; OpenStream
// checks it before returning, so every v1 section it hands out is
// verified.
//
// # Trust model
//
// Open never trusts a header field it has not bounded: the kind length,
// section lengths, offsets and counts are validated against the input
// before they index it, so a hostile or truncated header fails with an
// error instead of faulting or asking the allocator for terabytes. The
// heap entry points (ReadFile, Read, and their stream twins) verify every
// checksum before a loader sees a section; a mapped open (MapFile)
// validates structure and leaves the payload checksums to
// Verify/VerifyAll.
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
//	section* —        id u32, reserved u32 (0), len u64,
//	                  zero padding to the next 4 KiB boundary, payload
//	end      16 bytes a zero section header
//	toc      n×24 B   id u32, crc u32 (CRC-32C of the payload),
//	                  payload offset u64, payload length u64
//	footer   32 bytes tocOff u64, tocCount u32,
//	                  tocCRC u32 (CRC-32C of toc ‖ tocOff ‖ tocCount),
//	                  contCRC u32 (CRC-32C of magic..tocCRC),
//	                  reserved u32 (0), endMagic "STSNEND2"
//
// The page alignment lets a loader view the bulk payloads (keys, drift
// entries) in place over an mmap of the file; the per-section CRCs
// let it verify lazily — footer, TOC and structure eagerly in O(sections),
// payload checksums on demand — which is what makes a mapped warm start
// O(1) in key count. VerifyAll checks every section CRC and contCRC. v2
// files written here start at file offset 0, which is what makes the
// recorded offsets page-aligned in the mapping.
//
// # Crash safety
//
// SaveFile writes to a temporary file in the target directory, syncs it,
// and renames it over the destination, so a crash mid-write leaves either
// the old snapshot or the new one — never a torn file.
package snapshot

import (
	"bufio"
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
// page-aligned mappable layout. NewWriter and SaveFile write v2, which
// Open reads; SaveStreamFile writes v1 (generation deltas only), which
// OpenStream reads.
const (
	version1 = 1
	version2 = 2
)

// ErrLegacy reports a full snapshot in a form only earlier builds wrote:
// stream-framed, or (checked by the kind loaders) holding a v1 layer
// blob, of the retired "updatable" kind, or a view with pending writes.
// No serving entry point reads one, and a replica must not retry it: the
// offline migration rewrites it once. Match with errors.Is.
var ErrLegacy = errors.New("legacy full snapshot: migrate it with shifttool -load OLD -save NEW")

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

func writeU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

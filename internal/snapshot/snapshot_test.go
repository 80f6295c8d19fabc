package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildContainer writes a small three-section container in the v2 layout
// (v2 true) or the v1 stream framing and returns its bytes: a metadata
// section, a sized key-style section, and an empty one.
func buildContainer(t *testing.T, v2 bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := newWriter(&buf, "test-kind", v2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Bytes(1, []byte("hello metadata")); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB, 0xCD}, 500)
	w, err := sw.SectionSized(2, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := sw.Bytes(3, nil); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// framings names the two container layouts with the entry points that
// read each: v2 (fulls) through Open and Read, the v1 stream framing
// (deltas) through OpenStream and ReadStream.
var framings = []struct {
	name string
	v2   bool
	open func([]byte) (*Mapped, error)
	read func(io.Reader, int64) (*Mapped, error)
}{{"v1", false, OpenStream, ReadStream}, {"v2", true, Open, Read}}

func TestContainerRoundTrip(t *testing.T) {
	for _, fr := range framings {
		raw := buildContainer(t, fr.v2)
		for _, total := range []int64{int64(len(raw)), -1} {
			if err := roundTrip(fr.read, raw, total); err != nil {
				t.Fatalf("%s (total=%d): %v", fr.name, total, err)
			}
		}
	}
}

// roundTrip reads buildContainer's three sections back and verifies them.
func roundTrip(read func(io.Reader, int64) (*Mapped, error), raw []byte, total int64) error {
	m, err := read(bytes.NewReader(raw), total)
	if err != nil {
		return err
	}
	if m.Kind() != "test-kind" {
		return fmt.Errorf("kind = %q", m.Kind())
	}
	s1, err := m.Expect(1)
	if err != nil {
		return err
	}
	if string(s1.Data) != "hello metadata" {
		return fmt.Errorf("section 1 = %q", s1.Data)
	}
	s2, err := m.Expect(2)
	if err != nil {
		return err
	}
	if len(s2.Data) != 1000 {
		return fmt.Errorf("section 2: %d bytes", len(s2.Data))
	}
	if s3, err := m.Expect(3); err != nil || len(s3.Data) != 0 {
		return fmt.Errorf("section 3: %v", err)
	}
	return m.Done()
}

// TestContainerRejectsEveryBitFlip is the core integrity property: any
// single corrupted byte anywhere in the container must surface as an
// error from the verified open — either a structural validation error
// or a checksum.
func TestContainerRejectsEveryBitFlip(t *testing.T) {
	for _, fr := range framings {
		raw := buildContainer(t, fr.v2)
		for i := range raw {
			bad := append([]byte(nil), raw...)
			bad[i] ^= 0x40
			if err := readAll(fr.open, bad); err == nil {
				t.Fatalf("%s: flipping byte %d of %d went undetected", fr.name, i, len(raw))
			}
		}
	}
}

// TestContainerRejectsEveryTruncation: cutting the container at any
// length must error, never hang or panic.
func TestContainerRejectsEveryTruncation(t *testing.T) {
	for _, fr := range framings {
		raw := buildContainer(t, fr.v2)
		for cut := 0; cut < len(raw); cut++ {
			if err := readAll(fr.open, raw[:cut]); err == nil {
				t.Fatalf("%s: truncation to %d of %d bytes went undetected", fr.name, cut, len(raw))
			}
		}
	}
}

// readAll opens a container the way a heap load does: parse, then
// verify every checksum.
func readAll(open func([]byte) (*Mapped, error), raw []byte) error {
	m, err := open(raw)
	if err != nil {
		return err
	}
	return m.VerifyAll()
}

func TestWriterValidation(t *testing.T) {
	if _, err := NewWriter(io.Discard, ""); err == nil {
		t.Error("empty kind accepted")
	}
	if _, err := NewWriter(io.Discard, strings.Repeat("k", MaxKindLen+1)); err == nil {
		t.Error("oversized kind accepted")
	}
	var buf bytes.Buffer
	sw, _ := NewWriter(&buf, "k")
	if _, err := sw.SectionSized(0, 4); err == nil {
		t.Error("section id 0 accepted")
	}
	sw, _ = NewWriter(&buf, "k")
	w, _ := sw.SectionSized(5, 4)
	if _, err := w.Write([]byte("12345")); err == nil {
		t.Error("overflowing a sized section accepted")
	}
	sw, _ = NewWriter(&buf, "k")
	w, _ = sw.SectionSized(5, 4)
	if _, err := w.Write([]byte("12")); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err == nil {
		t.Error("closing a short sized section accepted")
	}
}

func TestReaderValidation(t *testing.T) {
	for _, fr := range framings {
		raw := buildContainer(t, fr.v2)

		// Wrong expected section id.
		m, err := fr.open(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Expect(7); err == nil {
			t.Errorf("%s: Expect(7) on section 1 accepted", fr.name)
		}

		// Sections remaining at Done, none after the last.
		m.Rewind()
		if err := m.Done(); err == nil {
			t.Errorf("%s: Done with unread sections accepted", fr.name)
		}
		for i := 0; i < len(m.secs); i++ {
			m.Next()
		}
		if _, err := m.Next(); !errors.Is(err, io.EOF) {
			t.Errorf("%s: Next past the last section = %v, want io.EOF", fr.name, err)
		}
		if _, err := m.Expect(1); err == nil {
			t.Errorf("%s: Expect past the last section accepted", fr.name)
		}

		// A declared total shorter than the container, or trailing bytes
		// after it, must be rejected.
		if _, err := fr.read(bytes.NewReader(raw), 40); err == nil {
			t.Errorf("%s: container cut by a short declared total accepted", fr.name)
		}
		if _, err := fr.read(bytes.NewReader(append(append([]byte(nil), raw...), 0)), -1); err == nil {
			t.Errorf("%s: trailing byte after the container accepted", fr.name)
		}
	}

	// A v1 section length exceeding the input must be rejected before
	// the payload is touched.
	raw := buildContainer(t, false)
	binary.LittleEndian.PutUint64(raw[16+len("test-kind")+8:], 1<<40)
	if _, err := OpenStream(raw); err == nil {
		t.Error("section length beyond the input accepted")
	}
}

// TestFramingEntryPoints: fulls are v2 and deltas are stream-framed, and
// the entry points decide it. Every full entry point refuses a
// stream-framed container with ErrLegacy, whose message names the
// migration; the stream entry points refuse a v2 container, and not as
// legacy.
func TestFramingEntryPoints(t *testing.T) {
	dir := t.TempDir()
	stream, v2 := buildContainer(t, false), buildContainer(t, true)
	streamPath, v2Path := filepath.Join(dir, "stream.snap"), filepath.Join(dir, "v2.snap")
	for path, data := range map[string][]byte{streamPath: stream, v2Path: v2} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fulls := map[string]func() (*Mapped, error){
		"Open":     func() (*Mapped, error) { return Open(stream) },
		"Read":     func() (*Mapped, error) { return Read(bytes.NewReader(stream), int64(len(stream))) },
		"ReadFile": func() (*Mapped, error) { return ReadFile(streamPath) },
		"MapFile":  func() (*Mapped, error) { return MapFile(streamPath) },
	}
	for name, open := range fulls {
		_, err := open()
		if !errors.Is(err, ErrLegacy) {
			t.Fatalf("%s of a stream-framed container: %v, want ErrLegacy", name, err)
		}
		if !strings.Contains(err.Error(), "shifttool -load OLD -save NEW") {
			t.Errorf("%s: %q does not name the migration", name, err)
		}
	}
	deltas := map[string]func() (*Mapped, error){
		"OpenStream":     func() (*Mapped, error) { return OpenStream(v2) },
		"ReadStream":     func() (*Mapped, error) { return ReadStream(bytes.NewReader(v2), int64(len(v2))) },
		"ReadStreamFile": func() (*Mapped, error) { return ReadStreamFile(v2Path) },
	}
	for name, open := range deltas {
		if _, err := open(); err == nil || errors.Is(err, ErrLegacy) {
			t.Fatalf("%s of a v2 container: %v, want a non-legacy refusal", name, err)
		}
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.snap")
	err := SaveFile(path, "file-kind", func(sw *Writer) error {
		return sw.Bytes(1, []byte("payload"))
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if m.Kind() != "file-kind" || !m.Verified() {
		t.Errorf("kind = %q, verified = %v", m.Kind(), m.Verified())
	}
	if s, err := m.Expect(1); err != nil || string(s.Data) != "payload" {
		t.Fatalf("ReadFile section: %v", err)
	}
	// SaveFile writes the mappable layout: MapFile views it, unverified
	// until VerifyAll. SaveStreamFile writes the v1 framing, which
	// ReadStreamFile reads onto the heap (no region), verified by its
	// checksum.
	m, err = MapFile(path)
	if err != nil {
		t.Fatalf("SaveFile output does not map: %v", err)
	}
	if m.Region() == nil || m.Verified() {
		t.Fatalf("v2 MapFile: region %v, verified %v", m.Region() != nil, m.Verified())
	}
	if err := m.VerifyAll(); err != nil || !m.Verified() {
		t.Fatalf("v2 VerifyAll: %v", err)
	}
	m.Close()
	stream := filepath.Join(dir, "stream.snap")
	if err := SaveStreamFile(stream, "file-kind", func(sw *Writer) error {
		return sw.Bytes(1, []byte("payload"))
	}); err != nil {
		t.Fatal(err)
	}
	ms, err := ReadStreamFile(stream)
	if err != nil {
		t.Fatalf("stream-framed file: %v", err)
	}
	if ms.Region() != nil || !ms.Verified() {
		t.Fatalf("stream-framed file: region %v, verified %v", ms.Region() != nil, ms.Verified())
	}
	if s, err := ms.Expect(1); err != nil || string(s.Data) != "payload" {
		t.Fatalf("stream-framed section: %v", err)
	}

	// A failing persist must leave no file behind (and not clobber an
	// existing snapshot).
	path2 := filepath.Join(dir, "broken.snap")
	err = SaveFile(path2, "file-kind", func(sw *Writer) error {
		return io.ErrClosedPipe
	})
	if err == nil {
		t.Fatal("SaveFile swallowed the persist error")
	}
	if _, serr := os.Stat(path2); !os.IsNotExist(serr) {
		t.Error("failed SaveFile left a file behind")
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}

// TestKeySections round-trips key sections in both framings: fulls carry
// the v2 width+pad prefix and are viewed in place, deltas the v1
// width-only prefix and are decoded.
func TestKeySections(t *testing.T) {
	keys := []uint64{1, 5, 5, 9, 1 << 60}
	for _, fr := range framings {
		var buf bytes.Buffer
		sw, _ := newWriter(&buf, "k", fr.v2)
		if err := WriteKeySection(sw, 1, keys); err != nil {
			t.Fatal(err)
		}
		if err := WriteKeySection(sw, 2, []uint64{}); err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		m, err := fr.open(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		s, _ := m.Expect(1)
		got, err := MapKeySection[uint64](s)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(keys) || got[0] != 1 || got[4] != 1<<60 {
			t.Fatalf("%s: keys round trip = %v", fr.name, got)
		}
		s2, _ := m.Expect(2)
		empty, err := MapKeySection[uint64](s2)
		if err != nil || len(empty) != 0 {
			t.Fatalf("%s: empty keys round trip = %v, %v", fr.name, empty, err)
		}

		// Width mismatch: reading a 64-bit section as 32-bit keys.
		if _, err := MapKeySection[uint32](s); err == nil {
			t.Errorf("%s: width mismatch accepted", fr.name)
		}
	}
}

// TestVersionSkewTyped: a container claiming a future format version must
// fail with the typed ErrVersionUnsupported (found/supported versions in
// the message), not a generic parse error — replicas key their rolling-
// upgrade refusal off errors.Is.
func TestVersionSkewTyped(t *testing.T) {
	for _, fr := range framings {
		future := buildContainer(t, fr.v2)
		binary.LittleEndian.PutUint32(future[8:], version2+1) // version field follows the 8-byte magic
		_, err := fr.open(future)
		if err == nil {
			t.Fatalf("%s: future-version container accepted", fr.name)
		}
		if !errors.Is(err, ErrVersionUnsupported) {
			t.Fatalf("%s: future-version error is not ErrVersionUnsupported: %v", fr.name, err)
		}
		for _, want := range []string{"version 3", "reads 1 and 2"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: version-skew message %q does not name %q", fr.name, err, want)
			}
		}
	}

	// A corrupt-but-current container must NOT match the sentinel: the
	// replication layer retries corruption but refuses skew permanently.
	// (The last byte of a v1 container is inside its checksum.)
	flipped := buildContainer(t, false)
	flipped[len(flipped)-1] ^= 0xFF
	_, err := ReadStream(bytes.NewReader(flipped), int64(len(flipped)))
	if err == nil {
		t.Fatal("corrupt container accepted")
	}
	if errors.Is(err, ErrVersionUnsupported) {
		t.Fatalf("checksum corruption misreported as version skew: %v", err)
	}
}

// TestSaveFileCleansTempOnFailure: every failure path of SaveFile — persist
// error, persist panic, and a failed rename — must leave the directory
// clean. A stranded *.tmp looks like a candidate artifact to a naive store
// listing and is by construction torn.
func TestSaveFileCleansTempOnFailure(t *testing.T) {
	dirEntries := func(dir string) []string {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return names
	}

	t.Run("persist error", func(t *testing.T) {
		dir := t.TempDir()
		err := SaveFile(filepath.Join(dir, "x.snap"), "k", func(sw *Writer) error {
			if err := sw.Bytes(1, []byte("partial")); err != nil {
				return err
			}
			return errors.New("boom")
		})
		if err == nil {
			t.Fatal("failing persist reported success")
		}
		if got := dirEntries(dir); len(got) != 0 {
			t.Fatalf("persist error stranded files: %v", got)
		}
	})

	t.Run("persist panic", func(t *testing.T) {
		dir := t.TempDir()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("panic did not propagate")
				}
			}()
			_ = SaveFile(filepath.Join(dir, "x.snap"), "k", func(sw *Writer) error {
				panic("mid-persist crash")
			})
		}()
		if got := dirEntries(dir); len(got) != 0 {
			t.Fatalf("persist panic stranded files: %v", got)
		}
	})

	t.Run("rename failure", func(t *testing.T) {
		dir := t.TempDir()
		// Renaming a file over a non-empty directory fails after the temp
		// file was fully written and synced — the late error path.
		target := filepath.Join(dir, "x.snap")
		if err := os.MkdirAll(filepath.Join(target, "occupied"), 0o755); err != nil {
			t.Fatal(err)
		}
		err := SaveFile(target, "k", func(sw *Writer) error {
			return sw.Bytes(1, []byte("payload"))
		})
		if err == nil {
			t.Fatal("rename onto a directory reported success")
		}
		if got := dirEntries(dir); len(got) != 1 || got[0] != "x.snap" {
			t.Fatalf("rename failure stranded files: %v", got)
		}
	})

	t.Run("writer kind error", func(t *testing.T) {
		dir := t.TempDir()
		if err := SaveFile(filepath.Join(dir, "x.snap"), "", nil); err == nil {
			t.Fatal("empty kind accepted")
		}
		if got := dirEntries(dir); len(got) != 0 {
			t.Fatalf("header error stranded files: %v", got)
		}
	})
}

package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// refuseStore is a Store with no backend: every operation fails. It
// stands in for a dead transport — a replica opened over it can serve
// only what its local last-good state provides, which is exactly what
// the warm-restart tests want to prove.
type refuseStore struct{}

func (refuseStore) Get(ctx context.Context, name string) (io.ReadCloser, error) {
	return nil, fmt.Errorf("replica: store offline: GET %s refused", name)
}

func (refuseStore) Put(ctx context.Context, name string, r io.Reader) error {
	return fmt.Errorf("replica: store offline: PUT %s refused", name)
}

// TestDirStorePutAtomic: Put publishes atomically (overwrite included),
// leaves no temporary behind on success or failure, and a failing reader
// must not clobber the previous object.
func TestDirStorePutAtomic(t *testing.T) {
	dir := t.TempDir()
	s := DirStore{Dir: dir}
	ctx := context.Background()

	if err := s.Put(ctx, "obj", strings.NewReader("first")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "obj")); string(got) != "first" {
		t.Fatalf("obj = %q, want %q", got, "first")
	}
	if err := s.Put(ctx, "obj", strings.NewReader("second")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "obj")); string(got) != "second" {
		t.Fatalf("obj = %q, want %q", got, "second")
	}

	// A reader that fails mid-copy must leave "second" in place and no
	// temp file in the directory.
	bad := io.MultiReader(strings.NewReader("partial"), &failReader{})
	if err := s.Put(ctx, "obj", bad); err == nil {
		t.Fatal("Put swallowed the reader error")
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "obj")); string(got) != "second" {
		t.Fatalf("failed Put clobbered the object: %q", got)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if e.Name() != "obj" {
			t.Errorf("stray file %q after Put", e.Name())
		}
	}
}

type failReader struct{}

func (*failReader) Read([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestHandlerContentLength: GET over a DirStore-backed handler must
// advertise the object's exact size so HTTP clients can detect truncated
// transfers.
func TestHandlerContentLength(t *testing.T) {
	dir := t.TempDir()
	s := DirStore{Dir: dir}
	body := bytes.Repeat([]byte("shift"), 1000)
	if err := s.Put(context.Background(), "full-000001", bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/full-000001")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("Content-Length = %d, want %d", resp.ContentLength, len(body))
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("GET body differs from Put body")
	}
}

// lyingStore claims each object is `extra` bytes longer than it really
// is, standing in for a transfer the network truncates: the handler
// advertises the full length, the stream ends early.
type lyingStore struct {
	inner DirStore
	extra int64
}

type lyingStream struct {
	io.ReadCloser
	size int64
}

func (l lyingStream) ObjectSize() (int64, error) { return l.size, nil }

func (l lyingStore) Get(ctx context.Context, name string) (io.ReadCloser, error) {
	rc, err := l.inner.Get(ctx, name)
	if err != nil {
		return nil, err
	}
	st, err := rc.(*os.File).Stat()
	if err != nil {
		rc.Close()
		return nil, err
	}
	return lyingStream{ReadCloser: rc, size: st.Size() + l.extra}, nil
}

func (l lyingStore) Put(ctx context.Context, name string, r io.Reader) error {
	return l.inner.Put(ctx, name, r)
}

// TestTruncatedTransferIsTransportError: a transfer cut short of the
// advertised Content-Length must surface from the fetch path as a
// transport error (unexpected EOF, retryable as such) — NOT as the
// short-body size/CRC misclassification that blames the object. Before
// the handler set Content-Length, the truncated stream ended with a
// clean EOF and fetchArtifact reported "is N bytes, manifest records M"
// — a fault indistinguishable from a corrupt artifact.
func TestTruncatedTransferIsTransportError(t *testing.T) {
	dir := t.TempDir()
	inner := DirStore{Dir: dir}
	body := bytes.Repeat([]byte{0xA5}, 1<<16)
	if err := inner.Put(context.Background(), "full-000001", bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}

	// The manifest entry records the TRUE size and CRC: the object in
	// the store is fine, only the transport truncates.
	sum := crc32.Checksum(body, castagnoli)
	e := &Entry{
		Version: 1, File: "full-000001",
		Size: int64(len(body)) + 64, // what the handler will advertise
		CRC:  sum,
	}

	srv := httptest.NewServer(NewHandler(lyingStore{inner: inner, extra: 64}))
	defer srv.Close()

	r, err := NewReplica[uint64](HTTPStore{Base: srv.URL}, t.TempDir(), ReplicaConfig{
		Retry: RetryPolicy{Attempts: 2, Base: time.Millisecond, Timeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	_, err = r.fetchArtifact(context.Background(), e.File, e.Size, e.CRC)
	if err == nil {
		t.Fatal("fetchArtifact accepted a truncated transfer")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated transfer not classified as transport error: %v", err)
	}
	for _, miscls := range []string{"checksum mismatch", "manifest records"} {
		if strings.Contains(err.Error(), miscls) {
			t.Errorf("truncated transfer misclassified as object fault (%q in %v)", miscls, err)
		}
	}
}

// TestHandlerContentLengthCustomSized: a store stream implementing Sized
// drives the header even when it is not an *os.File.
func TestHandlerContentLengthCustomSized(t *testing.T) {
	content := "sized-object-content"
	s := sizedStore{content: content}
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/obj")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.ContentLength != int64(len(content)) {
		t.Fatalf("Content-Length = %d, want %d", resp.ContentLength, len(content))
	}
}

type sizedStore struct{ content string }

type sizedStream struct {
	io.Reader
	size int64
}

func (s sizedStream) Close() error               { return nil }
func (s sizedStream) ObjectSize() (int64, error) { return s.size, nil }

func (s sizedStore) Get(ctx context.Context, name string) (io.ReadCloser, error) {
	return sizedStream{Reader: strings.NewReader(s.content), size: int64(len(s.content))}, nil
}

func (s sizedStore) Put(ctx context.Context, name string, r io.Reader) error {
	return fmt.Errorf("read-only")
}

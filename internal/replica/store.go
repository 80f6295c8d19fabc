package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/snapshot"
)

// ErrNotFound reports a missing store object. A missing manifest means
// "nothing published yet"; a missing artifact listed by a verified
// manifest is a fault and retried like any other.
var ErrNotFound = errors.New("replica: object not found")

// Store is the transport abstraction the publisher writes through and
// replicas fetch through. Implementations must be safe for concurrent
// use; Get returns a stream the caller closes. Neither side assumes a
// Get stream is trustworthy — every byte is checksum-verified against
// the manifest after transport.
type Store interface {
	Get(ctx context.Context, name string) (io.ReadCloser, error)
	Put(ctx context.Context, name string, r io.Reader) error
}

// DirStore is a Store over one local directory (the "shared filesystem"
// deployment, and the substrate the HTTP handler serves). Puts are
// crash-safe: temp file + fsync + atomic rename, so a reader never
// observes a half-written object under its final name.
type DirStore struct {
	Dir string
}

func (d DirStore) path(name string) (string, error) {
	if !validName(name) {
		return "", fmt.Errorf("replica: invalid object name %q", name)
	}
	return filepath.Join(d.Dir, name), nil
}

// Get opens the named object.
func (d DirStore) Get(ctx context.Context, name string) (io.ReadCloser, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := d.path(name)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("replica: %s: %w", name, ErrNotFound)
	}
	return f, err
}

// Put atomically replaces the named object with r's content. It rides
// snapshot.WriteFileAtomic — the same temp/fsync/rename/dir-sync
// discipline SaveFile uses — so a crash right after the rename cannot
// lose the publish: without the parent-directory sync the rename lives
// only in the directory's in-memory state, and a manifest Put that "won"
// before a crash could vanish afterwards despite the crash-safe claim.
func (d DirStore) Put(ctx context.Context, name string, r io.Reader) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p, err := d.path(name)
	if err != nil {
		return err
	}
	return snapshot.WriteFileAtomic(p, func(f *os.File) error {
		_, err := io.Copy(f, r)
		return err
	})
}

// HTTPStore is a Store over a base URL: GET base/name fetches, PUT
// base/name publishes (the shiftrepl serve subcommand exposes a DirStore
// this way). The zero Client uses http.DefaultClient; per-attempt
// deadlines come from the caller's context, not a client timeout.
type HTTPStore struct {
	Base   string
	Client *http.Client
}

func (h HTTPStore) url(name string) (string, error) {
	if !validName(name) {
		return "", fmt.Errorf("replica: invalid object name %q", name)
	}
	return strings.TrimRight(h.Base, "/") + "/" + name, nil
}

func (h HTTPStore) client() *http.Client {
	if h.Client != nil {
		return h.Client
	}
	return http.DefaultClient
}

// Get fetches the named object; a 404 maps to ErrNotFound.
func (h HTTPStore) Get(ctx context.Context, name string) (io.ReadCloser, error) {
	u, err := h.url(name)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := h.client().Do(req)
	if err != nil {
		return nil, err
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		return resp.Body, nil
	case resp.StatusCode == http.StatusNotFound:
		resp.Body.Close()
		return nil, fmt.Errorf("replica: %s: %w", name, ErrNotFound)
	default:
		resp.Body.Close()
		return nil, fmt.Errorf("replica: GET %s: %s", name, resp.Status)
	}
}

// Put uploads the named object.
func (h HTTPStore) Put(ctx context.Context, name string, r io.Reader) error {
	u, err := h.url(name)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, u, r)
	if err != nil {
		return err
	}
	resp, err := h.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("replica: PUT %s: %s", name, resp.Status)
	}
	return nil
}

// Sized is implemented by Get streams that know the total object size
// up front. NewHandler uses it to set Content-Length so a replica's
// HTTP fetch can tell a truncated transfer (connection cut short of the
// promised length → transport error, retried as such) from an object
// that really is the wrong size.
type Sized interface {
	ObjectSize() (int64, error)
}

// objectSize reports rc's total size when it can be known without
// consuming the stream: an explicit Sized implementation, or a stat-able
// stream (DirStore's *os.File). Returns -1 when unknown.
func objectSize(rc io.ReadCloser) int64 {
	switch s := rc.(type) {
	case Sized:
		if n, err := s.ObjectSize(); err == nil {
			return n
		}
	case interface{ Stat() (os.FileInfo, error) }:
		if st, err := s.Stat(); err == nil && st.Mode().IsRegular() {
			return st.Size()
		}
	}
	return -1
}

// NewHandler serves a Store over HTTP with the verbs HTTPStore speaks:
// GET streams an object, PUT replaces one. The handler is what
// `shiftrepl serve` runs and what the replication tests stand up with
// httptest. When the object's size is known (Sized stream or stat-able
// file) GET sets Content-Length, so a transfer the network truncates
// fails on the client as a transport error instead of arriving as a
// silent short body that gets misclassified as a corrupt object.
func NewHandler(s Store) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/")
		if !validName(name) {
			http.Error(w, "invalid object name", http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodGet:
			rc, err := s.Get(r.Context(), name)
			if errors.Is(err, ErrNotFound) {
				http.NotFound(w, r)
				return
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			defer rc.Close()
			w.Header().Set("Content-Type", "application/octet-stream")
			if n := objectSize(rc); n >= 0 {
				w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
			}
			io.Copy(w, rc)
		case http.MethodPut:
			if err := s.Put(r.Context(), name, r.Body); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}

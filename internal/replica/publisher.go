package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/concurrent"
	"repro/internal/kv"
	"repro/internal/snapshot"
)

// PublisherConfig parameterises NewPublisher.
type PublisherConfig struct {
	// KeepFulls is how many full snapshots stay listed in the manifest
	// (older entries are pruned; default 2, so a replica mid-fetch of
	// the previous full can still finish).
	KeepFulls int
	// Spool is a local scratch directory artifacts are staged in before
	// upload ("" = os.TempDir()). Staging locally first means the
	// store upload streams a finished, checksummed file — the store
	// never sees a snapshot being composed.
	Spool string
}

func (c PublisherConfig) withDefaults() PublisherConfig {
	if c.KeepFulls <= 0 {
		c.KeepFulls = 2
	}
	if c.Spool == "" {
		c.Spool = os.TempDir()
	}
	return c
}

// Publisher writes versioned snapshots of one primary index into a
// store. Each Publish captures the current published state
// (concurrent.PublishedState — immutable, so the primary keeps serving
// and writing while the artifact streams out) and ships it as:
//
//   - a full snapshot, when the base view changed since the last full
//     (a compaction ran) or no full was published yet;
//   - a generation-stack delta bound to the last full otherwise — the
//     small-payload fast path while writes accumulate between
//     compactions.
//
// The manifest is rewritten (atomically, via the store's Put) after the
// artifact upload succeeds, so a manifest never references an object
// that isn't fully present.
type Publisher[K kv.Key] struct {
	store Store
	ix    *concurrent.Index[K]
	cfg   PublisherConfig

	manifest Manifest
	next     uint64 // next version to assign

	lastFull    *concurrent.PublishedState[K]
	lastFullVer uint64
	lastFullCRC uint32
}

// NewPublisher builds a publisher for ix over store. An existing
// manifest in the store is adopted: version numbering resumes after its
// latest and the first publish is forced full (the previous process's
// captured state is gone, so there is nothing to delta against). A
// corrupt or missing manifest starts fresh at version 1 — the first
// publish atomically replaces it. A manifest of a format version this
// build does not read is not corrupt: it fails with an error matching
// snapshot.ErrVersionUnsupported, because restarting at version 1 over a
// store whose replicas already serve a higher version would leave every
// one of them ignoring every new publish.
func NewPublisher[K kv.Key](ctx context.Context, store Store, ix *concurrent.Index[K], cfg PublisherConfig) (*Publisher[K], error) {
	p := &Publisher[K]{store: store, ix: ix, cfg: cfg.withDefaults(), next: 1}
	rc, err := store.Get(ctx, ManifestName)
	switch {
	case errors.Is(err, ErrNotFound):
		return p, nil
	case err != nil:
		return nil, fmt.Errorf("replica: reading existing manifest: %w", err)
	}
	defer rc.Close()
	data, err := io.ReadAll(io.LimitReader(rc, maxManifestBytes+1))
	if err != nil {
		return nil, fmt.Errorf("replica: reading existing manifest: %w", err)
	}
	m, err := ParseManifest(data)
	if errors.Is(err, snapshot.ErrVersionUnsupported) {
		return nil, fmt.Errorf("replica: adopting the store's manifest: %w", err)
	}
	if err != nil {
		// A torn manifest from a crashed predecessor: start fresh; the
		// next publish rewrites it wholesale.
		return p, nil
	}
	p.manifest = *m
	p.next = m.Latest + 1
	return p, nil
}

// Version returns the last published version (0 before the first
// Publish).
func (p *Publisher[K]) Version() uint64 { return p.next - 1 }

// Manifest returns a copy of the current manifest.
func (p *Publisher[K]) Manifest() Manifest {
	m := p.manifest
	m.Entries = append([]Entry(nil), p.manifest.Entries...)
	return m
}

// Publish captures the primary's current published state and ships it,
// returning the new version and whether a full snapshot (vs a delta)
// was written. Not safe for concurrent Publish calls; one publisher
// goroutine owns the sequence.
func (p *Publisher[K]) Publish(ctx context.Context) (version uint64, full bool, err error) {
	st := p.ix.Published()
	version = p.next
	full = p.lastFull == nil || !st.SameView(p.lastFull)

	var name string
	spool := filepath.Join(p.cfg.Spool, fmt.Sprintf(".spool-%08d.snap", version))
	defer os.Remove(spool)
	if full {
		// Fulls are v2 (mappable), so replicas install them by mapping;
		// deltas keep the stream framing (concurrent.SaveDeltaFile).
		name = fmt.Sprintf("full-%08d.snap", version)
		err = concurrent.SaveStateFile(spool, st)
	} else {
		name = fmt.Sprintf("delta-%08d.snap", version)
		err = concurrent.SaveDeltaFile(spool, st, concurrent.DeltaInfo{
			Version: version,
			Base:    p.lastFullVer,
			BaseCRC: p.lastFullCRC,
		})
	}
	if err != nil {
		return 0, false, fmt.Errorf("replica: staging version %d: %w", version, err)
	}
	size, sum, err := fileSum(spool)
	if err != nil {
		return 0, false, err
	}
	f, err := os.Open(spool)
	if err != nil {
		return 0, false, err
	}
	err = p.store.Put(ctx, name, f)
	f.Close()
	if err != nil {
		return 0, false, fmt.Errorf("replica: uploading %s: %w", name, err)
	}

	e := Entry{
		Version:     version,
		File:        name,
		Size:        size,
		CRC:         sum,
		Fingerprint: st.ModelFingerprint(),
		Keys:        uint64(st.Len()),
	}
	if !full {
		e.Delta, e.Base, e.BaseCRC = true, p.lastFullVer, p.lastFullCRC
	}
	next := p.manifest
	next.Entries = append(append([]Entry(nil), p.manifest.Entries...), e)
	next.Latest = version
	next.Entries = prune(next.Entries, p.cfg.KeepFulls)
	if err := p.store.Put(ctx, ManifestName, bytes.NewReader(next.Encode())); err != nil {
		return 0, false, fmt.Errorf("replica: uploading manifest for version %d: %w", version, err)
	}

	p.manifest = next
	p.next = version + 1
	if full {
		p.lastFull, p.lastFullVer, p.lastFullCRC = st, version, sum
	}
	return version, full, nil
}

// prune keeps the newest keepFulls full entries and every delta at or
// after the oldest kept full. Deltas only ever bind to a full that was
// the newest at their publish time, so everything kept stays resolvable.
func prune(entries []Entry, keepFulls int) []Entry {
	fulls := 0
	cut := 0
	for i := len(entries) - 1; i >= 0; i-- {
		if !entries[i].Delta {
			fulls++
			if fulls == keepFulls {
				cut = i
				break
			}
		}
	}
	return entries[cut:]
}

// fileSum returns the size and CRC-32C of the file at path — the values
// the manifest records and replicas verify during fetch.
func fileSum(path string) (int64, uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	h := crc32.New(castagnoli)
	n, err := io.Copy(h, f)
	if err != nil {
		return 0, 0, err
	}
	return n, h.Sum32(), nil
}

package concurrent

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/kv"
	snap "repro/internal/snapshot"
)

// This file is the replication surface of the concurrent index
// (DESIGN.md §10). A primary captures one published snapshot as an
// immutable PublishedState and ships it two ways:
//
//   - a full artifact: the existing SnapshotKind container (view + write
//     generations), written off the serving path from the captured state;
//   - a delta artifact: the COMPLETE generation stack of the captured
//     state, bound to the full artifact it layers over by (base version,
//     base artifact CRC). A delta is a replacement, not a patch — the
//     replica swaps its whole generation stack, so deltas are idempotent
//     and any delta whose base matches can be applied directly, no
//     intermediate versions required.
//
// A replica loads a full artifact into a State (verified but not yet
// serving), then InstallState swaps it in behind the atomic snapshot
// pointer; later deltas go through InstallDelta, which refuses to apply
// over the wrong base (ErrStaleBase) instead of corrupting the multiset.
// Every installed snapshot carries the replicated version as its tag, so
// FindBatchTagged answers "which version served this query" atomically
// with the results.

// DeltaKind identifies shipped generation-stack delta containers.
const DeltaKind = "concurrent-delta"

// secDeltaMeta is the delta container's metadata section; the generation
// pairs reuse secConIns/secConDels.
const secDeltaMeta = 30

// ErrStaleBase reports a delta whose recorded base does not match the
// state it is being applied over. The caller falls back to fetching a
// full snapshot; nothing is installed.
var ErrStaleBase = errors.New("concurrent: delta base does not match installed state")

// PublishedState is an immutable capture of one published snapshot — the
// unit replication ships. It stays valid (and serveable for persistence
// and oracle scans) no matter how many writes, compactions, or installs
// the index performs afterwards.
type PublishedState[K kv.Key] struct {
	ix *Index[K]
	s  *snapshot[K]
}

// Published captures the current published snapshot.
func (ix *Index[K]) Published() *PublishedState[K] {
	return &PublishedState[K]{ix: ix, s: ix.snap.Load()}
}

// Len returns the captured state's live key count.
func (p *PublishedState[K]) Len() int { return p.s.length() }

// Pending returns the captured state's uncompacted write count.
func (p *PublishedState[K]) Pending() int { return p.s.pending() }

// Gens returns the captured generation-stack depth (observability).
func (p *PublishedState[K]) Gens() int { return len(p.s.gens) }

// ModelFingerprint returns the fingerprint of the captured base model —
// the value the replication manifest records and replicas re-verify.
func (p *PublishedState[K]) ModelFingerprint() uint64 { return p.s.view.ModelFingerprint() }

// SameView reports whether q shares p's base view (same
// updatable.View, pointer identity). The publisher uses it to decide
// full vs delta: if the view is unchanged since the last full artifact,
// the write generations alone reproduce the state.
func (p *PublishedState[K]) SameView(q *PublishedState[K]) bool {
	return q != nil && p.s.view == q.s.view
}

// Scan walks the captured state's live keys in [a, b] in sorted order —
// the torture harness's oracle reads primary states through this.
func (p *PublishedState[K]) Scan(a, b K, fn func(k K) bool) { p.s.scan(a, b, fn) }

// Persist writes the captured state as the full-snapshot section
// sequence (same layout as PersistSnapshot, but of this capture rather
// than whatever is published at write time).
func (p *PublishedState[K]) Persist(sw *snap.Writer) error {
	return p.ix.persistState(p.s, sw)
}

// SaveStateFile writes a captured published state crash-safely to path
// as a full-snapshot container in the mappable v2 layout — what the
// publisher stages so replicas can install full artifacts by mapping
// instead of parsing.
func SaveStateFile[K kv.Key](path string, p *PublishedState[K]) error {
	return snap.SaveFile(path, SnapshotKind, p.Persist)
}

// DeltaInfo binds a shipped delta to the full artifact it layers over.
type DeltaInfo struct {
	// Version is the replicated version this delta produces.
	Version uint64
	// Base is the replicated version of the full artifact whose view the
	// generations are relative to.
	Base uint64
	// BaseCRC is the CRC-32C of the base artifact file — a content
	// binding, so a republished base with the same version number cannot
	// silently change meaning under existing deltas.
	BaseCRC uint32
}

// persistDelta writes the captured state's complete generation stack as
// the delta section sequence.
func (p *PublishedState[K]) persistDelta(sw *snap.Writer, info DeltaInfo) error {
	meta := make([]byte, 0, 24)
	meta = binary.LittleEndian.AppendUint64(meta, info.Version)
	meta = binary.LittleEndian.AppendUint64(meta, info.Base)
	meta = binary.LittleEndian.AppendUint32(meta, info.BaseCRC)
	meta = binary.LittleEndian.AppendUint32(meta, uint32(len(p.s.gens)))
	if err := sw.Bytes(secDeltaMeta, meta); err != nil {
		return err
	}
	for _, g := range p.s.gens {
		if err := snap.WriteKeySection(sw, secConIns, g.ins); err != nil {
			return err
		}
		if err := snap.WriteKeySection(sw, secConDels, g.dels); err != nil {
			return err
		}
	}
	return nil
}

// SaveDeltaFile writes the captured state's generation stack crash-safely
// to path as a delta container. Deltas keep the v1 stream framing: a
// delta is 1 + 2g sections of a few KiB each, which v2's per-section
// page padding would inflate 1.6–3× (DESIGN.md §13), and it is read
// onto the heap on arrival rather than mapped.
func SaveDeltaFile[K kv.Key](path string, p *PublishedState[K], info DeltaInfo) error {
	return snap.SaveStreamFile(path, DeltaKind, func(sw *snap.Writer) error {
		return p.persistDelta(sw, info)
	})
}

// Delta is a loaded shipped delta: the base binding plus the complete
// generation stack at Info.Version.
type Delta[K kv.Key] struct {
	Info DeltaInfo
	gens []*generation[K]
}

// Pending returns the delta's total write-operation count (observability).
func (d *Delta[K]) Pending() int {
	n := 0
	for _, g := range d.gens {
		n += g.size()
	}
	return n
}

// readDelta reads a delta container's sections.
func readDelta[K kv.Key](m *snap.Mapped) (*Delta[K], error) {
	if m.Kind() != DeltaKind {
		return nil, fmt.Errorf("concurrent: snapshot kind %q, want %q", m.Kind(), DeltaKind)
	}
	ms, err := m.Expect(secDeltaMeta)
	if err != nil {
		return nil, err
	}
	meta := ms.Data
	if len(meta) != 24 {
		return nil, fmt.Errorf("concurrent: delta meta section is %d bytes, want 24", len(meta))
	}
	d := &Delta[K]{Info: DeltaInfo{
		Version: binary.LittleEndian.Uint64(meta),
		Base:    binary.LittleEndian.Uint64(meta[8:]),
		BaseCRC: binary.LittleEndian.Uint32(meta[16:]),
	}}
	genCount := binary.LittleEndian.Uint32(meta[20:])
	if genCount > maxSnapshotGens {
		return nil, fmt.Errorf("concurrent: delta claims %d generations (limit %d)", genCount, maxSnapshotGens)
	}
	if d.Info.Version <= d.Info.Base {
		return nil, fmt.Errorf("concurrent: delta version %d does not follow its base %d", d.Info.Version, d.Info.Base)
	}
	if d.gens, err = mapGens[K](m, genCount); err != nil {
		return nil, err
	}
	if err := m.Done(); err != nil {
		return nil, err
	}
	return d, nil
}

// LoadDelta reads a delta container onto the heap; total is the input
// size in bytes (-1 to read to EOF). The container checksum verifies
// before the delta is returned.
func LoadDelta[K kv.Key](r io.Reader, total int64) (*Delta[K], error) {
	m, err := snap.ReadStream(r, total)
	if err != nil {
		return nil, err
	}
	return readDelta[K](m)
}

// LoadDeltaFile reads a delta container from a file.
func LoadDeltaFile[K kv.Key](path string) (*Delta[K], error) {
	m, err := snap.ReadStreamFile(path)
	if err != nil {
		return nil, err
	}
	d, err := readDelta[K](m)
	if err != nil {
		return nil, fmt.Errorf("concurrent: %s: %w", path, err)
	}
	return d, nil
}

// LenWith returns the live key count st would have with d's generation
// stack in place of its own — the replica verifies this against the
// manifest before InstallDelta, so a wrong-count delta is rejected
// without ever being served.
func (st *State[K]) LenWith(d *Delta[K]) int {
	s := snapshot[K]{view: st.view, gens: d.gens}
	return s.length()
}

// InstallState swaps st in as the index's entire content: the base view,
// the generation stack verbatim, and tag as the snapshot's install tag.
// The index also adopts st's base-layer geometry, so later compactions
// rebuild with the primary's configuration rather than the replica's
// bootstrap default. Serialises with writers and compactions; readers
// see either the old state or the new one, never a mixture.
//
//shift:swap(replication install under compactMu+mu)
func (ix *Index[K]) InstallState(st *State[K], tag uint64) error {
	gens := st.gens
	if len(gens) == 0 {
		gens = []*generation[K]{{}}
	}
	next := &snapshot[K]{view: st.view, gens: gens, tag: tag}
	if next.length() < 0 {
		return fmt.Errorf("concurrent: state generations cancel more occurrences than exist (corrupt snapshot)")
	}
	layer := st.layer

	// Full writer+compactor lock: an in-flight compaction's publish phase
	// must not resurrect the replaced state, and the layer adoption must
	// be atomic with the swap from any later compaction's point of view.
	ix.compactMu.Lock()
	defer ix.compactMu.Unlock()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.layer.Store(&layer)
	ix.snap.Store(next)
	return nil
}

// InstallDelta applies a shipped delta over st, which must be the
// currently installed base state: the snapshot keeps st's view and
// replaces the whole generation stack with the delta's. If the published
// view is no longer st's (a compaction ran, or a different state was
// installed) it returns ErrStaleBase and installs nothing.
//
//shift:swap(replication delta install under compactMu+mu)
func (ix *Index[K]) InstallDelta(st *State[K], d *Delta[K], tag uint64) error {
	gens := d.gens
	if len(gens) == 0 {
		gens = []*generation[K]{{}}
	}
	next := &snapshot[K]{view: st.view, gens: gens, tag: tag}
	if next.length() < 0 {
		return fmt.Errorf("concurrent: delta generations cancel more occurrences than exist (corrupt delta)")
	}

	ix.compactMu.Lock()
	defer ix.compactMu.Unlock()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.snap.Load().view != st.view {
		return ErrStaleBase
	}
	ix.snap.Store(next)
	return nil
}

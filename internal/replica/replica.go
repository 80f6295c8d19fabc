package replica

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/concurrent"
	"repro/internal/kv"
	"repro/internal/mapped"
	snap "repro/internal/snapshot"
)

// stateName is the replica's local warm-restart record: which version is
// installed and which local artifact files reproduce it. Same line
// discipline as the manifest (trailing self-CRC, strict parse); anything
// wrong with it means a cold start, never a wrong answer.
const stateName = "REPLICA_STATE"

// ReplicaConfig parameterises NewReplica.
type ReplicaConfig struct {
	// Retry bounds every fetch (zero value = documented defaults).
	Retry RetryPolicy
	// Seed seeds the backoff jitter (0 = fixed default seed; pass
	// something per-process for fleet decorrelation).
	Seed int64
}

// Replica serves one continuously-refreshed copy of a published index.
// Reads go through Index() — the lock-free concurrent.Index — and are
// never blocked, slowed, or torn by a sync: every fetched artifact is
// verified (manifest CRC, artifact size + CRC-32C during spool, container
// checksum, model fingerprint, key count) before the single atomic
// pointer swap installs it. A failed sync leaves the last-good state
// serving and is reported through Status.
type Replica[K kv.Key] struct {
	store Store
	dir   string
	cfg   ReplicaConfig
	ix    *concurrent.Index[K]

	mu       sync.Mutex // serialises Sync/Close; never held by readers
	rnd      *rand.Rand
	version  uint64 // installed version (0 = none)
	baseVer  uint64 // installed base full version
	baseCRC  uint32 // CRC-32C of the base artifact file, what deltas bind to
	baseFile string // local name of the base artifact file
	base     *concurrent.State[K]
	latest   uint64 // newest version a verified manifest announced
	fails    int    // consecutive failed Syncs
	lastErr  error
}

// NewReplica builds a replica fetching from store, keeping its local
// artifact copies and warm-restart state in dir. If dir holds a valid
// state record from a previous process, the recorded artifacts are
// re-verified and re-installed (warm restart — no network needed);
// otherwise the replica starts empty at version 0 and the first Sync
// populates it. Leftover fetch temporaries are swept either way.
func NewReplica[K kv.Key](store Store, dir string, cfg ReplicaConfig) (*Replica[K], error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The serving index never writes, and installs never wake its
	// compactor: it serves exactly the states it is given.
	ix, err := concurrent.New[K](nil, concurrent.Config{})
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	r := &Replica[K]{store: store, dir: dir, cfg: cfg, ix: ix, rnd: rand.New(rand.NewSource(seed))}
	r.sweepTemps()
	r.warmRestart()
	return r, nil
}

// Index returns the serving index. Valid for the replica's whole
// lifetime; the index survives Close (it just stops refreshing).
func (r *Replica[K]) Index() *concurrent.Index[K] { return r.ix }

// Close stops the serving index's background machinery.
func (r *Replica[K]) Close() { r.ix.Close() }

// Status is a point-in-time health report.
type Status struct {
	// Version is the installed (serving) version; 0 = nothing installed.
	Version uint64
	// Latest is the newest version a verified manifest has announced.
	Latest uint64
	// Stale reports Version < Latest: the replica knows it is behind
	// (it is still serving, just old data).
	Stale bool
	// Failures counts consecutive failed Syncs.
	Failures int
	// LastErr is the most recent Sync failure (nil after a success).
	LastErr error
	// Mapped reports whether the serving base table is a mapped view of
	// its artifact file (vs heap-resident), and MappedBytes the size of
	// that region.
	Mapped      bool
	MappedBytes int64
}

// Status returns the current health report.
func (r *Replica[K]) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Status{
		Version:     r.version,
		Latest:      r.latest,
		Stale:       r.version < r.latest,
		Failures:    r.fails,
		LastErr:     r.lastErr,
		Mapped:      r.ix.Mapped(),
		MappedBytes: r.ix.MappedBytes(),
	}
}

// loadState opens a verified-on-disk full artifact: mapped in place
// where the platform maps files, read onto the heap and verified
// otherwise. The mapped open performs no second CRC pass: every byte of
// the file was already checked against the manifest — by fetchArtifact's
// stream CRC as it spooled, or by fileSum when reusing a leftover copy —
// and the v2 geometry validation plus lazy section CRCs cover the rest.
// A legacy full (snapshot.ErrLegacy) is refused by either path; Sync
// reports it and does not retry it, since no refetch can change it.
func (r *Replica[K]) loadState(path string) (*concurrent.State[K], error) {
	if mapped.Supported() {
		return concurrent.MapStateFile[K](path)
	}
	return concurrent.LoadStateFile[K](path)
}

// Sync converges the replica to the store's latest version: fetch the
// manifest, plan delta-over-installed-base or full fetch, fetch and
// verify, swap. Every fetch runs under the retry policy; on overall
// failure the last-good state keeps serving, the failure is recorded,
// and the error is returned. Sync is idempotent and cheap when already
// fresh (one manifest fetch).
func (r *Replica[K]) Sync(ctx context.Context) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.sync(ctx)
	if err != nil {
		r.fails++
		r.lastErr = err
		return err
	}
	r.fails, r.lastErr = 0, nil
	return nil
}

func (r *Replica[K]) sync(ctx context.Context) error {
	m, err := r.fetchManifest(ctx)
	if err != nil {
		return err
	}
	r.latest = m.Latest
	if m.Latest <= r.version {
		// Already at (or past — a reset publisher) the announced version.
		// Never move backwards: version numbers are the replica's only
		// monotonicity anchor.
		return nil
	}
	target := m.Lookup(m.Latest)
	if target == nil {
		return fmt.Errorf("replica: manifest latest %d has no entry", m.Latest)
	}

	// Plan: a delta applies directly when its recorded base — by version
	// AND artifact content — is what we have installed. Anything else
	// goes through the target's full snapshot first.
	if target.Delta && r.base != nil && target.Base == r.baseVer && target.BaseCRC == r.baseCRC {
		return r.applyDelta(ctx, m, target)
	}
	fullEntry := target
	if target.Delta {
		fullEntry = m.Lookup(target.Base)
		if fullEntry == nil || fullEntry.Delta {
			return fmt.Errorf("replica: manifest delta %d has no full base entry %d", target.Version, target.Base)
		}
	}
	if err := r.installFull(ctx, fullEntry); err != nil {
		return err
	}
	if target.Delta {
		return r.applyDelta(ctx, m, target)
	}
	return nil
}

// fetchManifest gets and verifies the manifest under the retry policy.
func (r *Replica[K]) fetchManifest(ctx context.Context) (*Manifest, error) {
	var m *Manifest
	err := r.cfg.Retry.do(ctx, r.rnd, func(ctx context.Context) error {
		rc, err := r.store.Get(ctx, ManifestName)
		if err != nil {
			return err
		}
		defer rc.Close()
		data, err := io.ReadAll(io.LimitReader(rc, maxManifestBytes+1))
		if err != nil {
			return err
		}
		m, err = ParseManifest(data)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("replica: fetching manifest: %w", err)
	}
	return m, nil
}

// fetchArtifact spools one store object to a local temp file, verifying
// the manifest-recorded size and CRC-32C as the bytes land. Only a fully
// verified spool file is renamed to its final local name; a short,
// corrupt, or oversized stream fails the attempt (and retries). Returns
// the local path.
func (r *Replica[K]) fetchArtifact(ctx context.Context, file string, size int64, crc uint32) (string, error) {
	final := filepath.Join(r.dir, file)
	// A verified local copy from a previous (possibly killed) run is as
	// good as a fetch: content addressing by size+CRC.
	if sz, sum, err := fileSum(final); err == nil && sz == size && sum == crc {
		return final, nil
	}
	err := r.cfg.Retry.do(ctx, r.rnd, func(ctx context.Context) error {
		rc, err := r.store.Get(ctx, file)
		if err != nil {
			return err
		}
		defer rc.Close()
		tmp, err := os.CreateTemp(r.dir, ".fetch-*")
		if err != nil {
			return err
		}
		committed := false
		defer func() {
			if !committed {
				tmp.Close()
				os.Remove(tmp.Name())
			}
		}()
		h := crc32.New(castagnoli)
		n, err := io.Copy(io.MultiWriter(tmp, h), io.LimitReader(rc, size+1))
		if err != nil {
			return fmt.Errorf("replica: fetching %s: %w", file, err)
		}
		if n != size {
			return fmt.Errorf("replica: %s is %d bytes, manifest records %d", file, n, size)
		}
		if h.Sum32() != crc {
			return fmt.Errorf("replica: %s checksum mismatch: manifest records %08x, stream sums to %08x",
				file, crc, h.Sum32())
		}
		if err := tmp.Sync(); err != nil {
			return err
		}
		if err := tmp.Close(); err != nil {
			return err
		}
		if err := os.Rename(tmp.Name(), final); err != nil {
			return err
		}
		committed = true
		return nil
	})
	if err != nil {
		return "", err
	}
	return final, nil
}

// installFull fetches a full snapshot, verifies it, and swaps it in.
func (r *Replica[K]) installFull(ctx context.Context, e *Entry) error {
	path, err := r.fetchArtifact(ctx, e.File, e.Size, e.CRC)
	if err != nil {
		return err
	}
	// Warm load off the serving path: mapped installs view the spooled
	// (already stream-verified) artifact in place; heap installs re-verify
	// the container checksums at open. Either way nothing touches the
	// serving index until the state stands.
	st, err := r.loadState(path)
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("replica: loading %s: %w", e.File, err)
	}
	if got := st.ModelFingerprint(); got != e.Fingerprint {
		os.Remove(path)
		return fmt.Errorf("replica: %s model fingerprint %016x, manifest records %016x", e.File, got, e.Fingerprint)
	}
	if got := uint64(st.Len()); got != e.Keys {
		os.Remove(path)
		return fmt.Errorf("replica: %s holds %d live keys, manifest records %d", e.File, got, e.Keys)
	}
	if err := r.ix.InstallState(st, e.Version); err != nil {
		return err
	}
	r.version, r.baseVer, r.baseCRC, r.baseFile, r.base = e.Version, e.Version, e.CRC, e.File, st
	r.persistLocalState("")
	r.gc(e.File)
	return nil
}

// applyDelta fetches, verifies, and applies a generation-stack delta
// over the installed base.
func (r *Replica[K]) applyDelta(ctx context.Context, m *Manifest, e *Entry) error {
	path, err := r.fetchArtifact(ctx, e.File, e.Size, e.CRC)
	if err != nil {
		return err
	}
	d, err := concurrent.LoadDeltaFile[K](path)
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("replica: loading %s: %w", e.File, err)
	}
	if d.Info.Version != e.Version || d.Info.Base != e.Base || d.Info.BaseCRC != e.BaseCRC {
		os.Remove(path)
		return fmt.Errorf("replica: %s binds (v%d over v%d/%08x), manifest records (v%d over v%d/%08x)",
			e.File, d.Info.Version, d.Info.Base, d.Info.BaseCRC, e.Version, e.Base, e.BaseCRC)
	}
	if got := r.base.LenWith(d); got < 0 || uint64(got) != e.Keys {
		os.Remove(path)
		return fmt.Errorf("replica: %s would yield %d live keys, manifest records %d", e.File, got, e.Keys)
	}
	if err := r.ix.InstallDelta(r.base, d, e.Version); err != nil {
		return err
	}
	r.version = e.Version
	r.persistLocalState(e.File)
	r.gc(r.baseFile, e.File)
	return nil
}

// persistLocalState writes the warm-restart record (atomic rename; best
// effort — a failure only costs the next process a cold start).
func (r *Replica[K]) persistLocalState(deltaFile string) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "shift-replica-state 1\n")
	fmt.Fprintf(&b, "version %d\n", r.version)
	fmt.Fprintf(&b, "base %d %08x %s\n", r.baseVer, r.baseCRC, r.baseFile)
	if deltaFile != "" {
		fmt.Fprintf(&b, "delta %s\n", deltaFile)
	}
	fmt.Fprintf(&b, "crc32c %08x\n", crc32.Checksum(b.Bytes(), castagnoli))
	if r.baseFile == "" {
		return
	}
	_ = DirStore{Dir: r.dir}.Put(context.Background(), stateName, bytes.NewReader(b.Bytes()))
}

// warmRestart re-installs the recorded local state, re-verifying every
// artifact from disk. Any discrepancy — missing file, content drift,
// corrupt record — means the replica cold-starts at version 0 instead; a
// wrong warm start must never out-rank a correct empty one. A recorded
// base that no longer loads (a legacy full an earlier build fetched,
// snapshot.ErrLegacy) is also reported through Status.LastErr until the
// first Sync.
func (r *Replica[K]) warmRestart() {
	data, err := os.ReadFile(filepath.Join(r.dir, stateName))
	if err != nil {
		return
	}
	ls, err := parseLocalState(data)
	if err != nil || ls.baseFile == "" {
		return
	}
	st, err := r.restoreBase(filepath.Join(r.dir, ls.baseFile), ls.baseCRC)
	if err != nil {
		if errors.Is(err, snap.ErrLegacy) {
			r.lastErr = fmt.Errorf("replica: warm restart: %w", err)
		}
		return
	}
	if err := r.ix.InstallState(st, ls.baseVer); err != nil {
		return
	}
	r.version, r.baseVer, r.baseCRC, r.baseFile, r.base = ls.baseVer, ls.baseVer, ls.baseCRC, ls.baseFile, st
	if ls.deltaFile == "" || ls.ver == ls.baseVer {
		return
	}
	d, err := concurrent.LoadDeltaFile[K](filepath.Join(r.dir, ls.deltaFile))
	if err != nil || d.Info.Version != ls.ver || d.Info.Base != ls.baseVer || d.Info.BaseCRC != ls.baseCRC {
		return // base alone serves; next Sync re-fetches the delta
	}
	if err := r.ix.InstallDelta(r.base, d, ls.ver); err != nil {
		return
	}
	r.version = ls.ver
}

// restoreBase re-verifies and reopens the recorded base artifact for a
// warm restart, failing when anything disagrees. The container bytes the
// state will serve — the mapping, or the heap read where the platform
// does not map — must match the recorded whole-file CRC, the content
// binding the manifest made; a mapped open then stays O(sections) after
// that one sequential pass over the mapped bytes.
func (r *Replica[K]) restoreBase(basePath string, baseCRC uint32) (*concurrent.State[K], error) {
	open := snap.ReadFile
	if mapped.Supported() {
		open = snap.MapFile
	}
	m, err := open(basePath)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	if got := crc32.Checksum(m.Bytes(), castagnoli); got != baseCRC {
		return nil, fmt.Errorf("replica: %s sums to %08x, the record says %08x", basePath, got, baseCRC)
	}
	return concurrent.MapState[K](m)
}

// localState is the parsed warm-restart record. Only the version 1
// record form is read; any other (the version 2 form of an earlier
// build's format bridge) is a cold start, never a guess.
type localState struct {
	ver, baseVer uint64
	baseCRC      uint32 // CRC-32C of the base artifact file
	baseFile     string
	deltaFile    string
}

func parseLocalState(data []byte) (localState, error) {
	var ls localState
	tail := bytes.LastIndex(data, []byte("crc32c "))
	if tail < 0 {
		return ls, fmt.Errorf("no checksum line")
	}
	var want uint32
	if _, err := fmt.Sscanf(string(data[tail:]), "crc32c %08x\n", &want); err != nil {
		return ls, err
	}
	if crc32.Checksum(data[:tail], castagnoli) != want {
		return ls, fmt.Errorf("checksum mismatch")
	}
	sc := bufio.NewScanner(bytes.NewReader(data[:tail]))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		var err error
		switch f[0] {
		case "shift-replica-state":
			if len(f) != 2 || f[1] != "1" {
				return ls, fmt.Errorf("unsupported state version")
			}
		case "version":
			if len(f) != 2 {
				return ls, fmt.Errorf("malformed version line")
			}
			if ls.ver, err = strconv.ParseUint(f[1], 10, 64); err != nil {
				return ls, err
			}
		case "base":
			if len(f) != 4 || !validName(f[3]) {
				return ls, fmt.Errorf("malformed base line")
			}
			if ls.baseVer, err = strconv.ParseUint(f[1], 10, 64); err != nil {
				return ls, err
			}
			c, cerr := strconv.ParseUint(f[2], 16, 32)
			if cerr != nil {
				return ls, cerr
			}
			ls.baseCRC = uint32(c)
			ls.baseFile = f[3]
		case "delta":
			if len(f) != 2 || !validName(f[1]) {
				return ls, fmt.Errorf("malformed delta line")
			}
			ls.deltaFile = f[1]
		default:
			return ls, fmt.Errorf("unknown directive %q", f[0])
		}
	}
	return ls, sc.Err()
}

// sweepTemps removes fetch/put temporaries a killed predecessor left in
// the local dir. Final-named artifacts are content-verified before use,
// so only dot-prefixed temps need sweeping.
func (r *Replica[K]) sweepTemps() {
	ents, err := os.ReadDir(r.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		n := e.Name()
		// .fetch-* are fetchArtifact spools; .*.tmp-* are
		// snapshot.WriteFileAtomic temps (DirStore.Put, local state);
		// .put-* is the pre-helper Put temp naming, still swept so an
		// upgrade over an old crash leaves nothing behind.
		if strings.HasPrefix(n, ".fetch-") || strings.HasPrefix(n, ".put-") ||
			(strings.HasPrefix(n, ".") && strings.Contains(n, ".tmp-")) {
			os.Remove(filepath.Join(r.dir, n))
		}
	}
}

// gc removes local artifact copies no longer referenced by the
// installed state.
func (r *Replica[K]) gc(keep ...string) {
	keepSet := map[string]bool{stateName: true}
	for _, k := range keep {
		if k != "" {
			keepSet[k] = true
		}
	}
	ents, err := os.ReadDir(r.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		n := e.Name()
		if keepSet[n] || strings.HasPrefix(n, ".") {
			continue
		}
		if strings.HasPrefix(n, "full-") || strings.HasPrefix(n, "delta-") {
			p := filepath.Join(r.dir, n)
			// A superseded artifact may still back a live mapping: the
			// previous state's base table views its bytes, and readers
			// (or a captured State) can hold that table indefinitely.
			// Unlinking would be safe on POSIX, which keeps the pages
			// until munmap, but strands disk space no directory
			// listing shows. Leave it; the sweep after the next
			// install retries once the region is released.
			if mapped.PathInUse(p) {
				continue
			}
			os.Remove(p)
		}
	}
}

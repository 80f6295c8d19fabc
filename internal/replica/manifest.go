// Package replica distributes verified index snapshots from a primary to
// read replicas (DESIGN.md §10): a publisher writes versioned full
// snapshots plus sealed write-generation deltas into a manifest-described
// store (local directory or HTTP), and a replica fetches with per-attempt
// timeouts and capped exponential backoff, verifies CRC-32C and model
// fingerprint before anything is served, warm-loads off the serving path,
// and atomically swaps the new state in behind internal/concurrent's
// snapshot pointer. On any failure — corrupt, truncated, stalled, missing
// — the replica keeps serving its last-good state and reports staleness.
//
// The trust chain has three links, each verified before the next is used:
// the manifest carries its own trailing CRC-32C; every artifact's size and
// CRC-32C are checked against the manifest while the bytes spool to local
// disk (nothing is parsed from a stream that hasn't checksum-verified);
// and the loaded state's model fingerprint and key count are checked
// against the manifest before the atomic install. A fault anywhere leaves
// the serving index untouched.
package replica

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"

	"repro/internal/snapshot"
)

// ManifestName is the well-known object name replicas poll.
const ManifestName = "MANIFEST"

// ManifestVersion is the manifest format generation this build reads and
// writes. Any other version fails with snapshot.ErrVersionUnsupported —
// replicas must refuse manifests they cannot parse rather than misread
// them. That includes the version 2 form an earlier build's format
// negotiation wrote (DESIGN.md §13): a replica of this build keeps
// serving its last good state over such a store until the publisher
// writing it is upgraded.
const ManifestVersion = 1

// maxManifestBytes bounds a fetched manifest before parsing (a stalled or
// hostile store cannot balloon the replica).
const maxManifestBytes = 1 << 20

// castagnoli is the CRC-32C table shared by manifest self-checksums and
// artifact sums (same polynomial as the snapshot container).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Entry describes one published artifact.
type Entry struct {
	// Version is the replicated version the artifact produces when
	// applied. Strictly increasing across the manifest.
	Version uint64
	// Delta reports the artifact kind: a generation-stack delta over the
	// full snapshot at Base, or a self-contained full snapshot.
	Delta bool
	// Base is the full-snapshot version a delta layers over (delta only).
	Base uint64
	// BaseCRC is the CRC-32C of the base artifact file (delta only): a
	// content binding, so a republished base can never silently change
	// meaning under existing deltas.
	BaseCRC uint32
	// File is the artifact's object name in the store.
	File string
	// Size is the artifact's exact size in bytes.
	Size int64
	// CRC is the CRC-32C of the artifact file.
	CRC uint32
	// Fingerprint is the model fingerprint of the state at Version
	// (core.Table.ModelFingerprint); re-verified after load.
	Fingerprint uint64
	// Keys is the live key count at Version; re-verified after load.
	Keys uint64
}

// Manifest is the store's table of contents: every fetchable artifact
// plus the latest version replicas should converge to.
type Manifest struct {
	Latest  uint64
	Entries []Entry // strictly increasing Version
}

// Lookup returns the entry at version v, or nil.
func (m *Manifest) Lookup(v uint64) *Entry {
	for i := range m.Entries {
		if m.Entries[i].Version == v {
			return &m.Entries[i]
		}
	}
	return nil
}

// Encode renders the manifest in its line format, trailing self-CRC
// included.
func (m *Manifest) Encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "shift-manifest %d\n", ManifestVersion)
	fmt.Fprintf(&b, "latest %d\n", m.Latest)
	for _, e := range m.Entries {
		if e.Delta {
			fmt.Fprintf(&b, "delta %d %d %08x %s %d %08x %016x %d\n",
				e.Version, e.Base, e.BaseCRC, e.File, e.Size, e.CRC, e.Fingerprint, e.Keys)
			continue
		}
		fmt.Fprintf(&b, "full %d %s %d %08x %016x %d\n",
			e.Version, e.File, e.Size, e.CRC, e.Fingerprint, e.Keys)
	}
	fmt.Fprintf(&b, "crc32c %08x\n", crc32.Checksum(b.Bytes(), castagnoli))
	return b.Bytes()
}

// validName reports whether s is safe as a store object name: no path
// separators, no traversal, no hidden/temp prefixes a naive directory
// listing would confuse with artifacts.
func validName(s string) bool {
	if s == "" || len(s) > 255 || s[0] == '.' {
		return false
	}
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '-' || c == '_':
		default:
			return false
		}
	}
	return true
}

// ParseManifest parses and verifies the line format. Strict: unknown
// directives, unordered versions, dangling delta bases, and checksum
// mismatches are all errors — a replica never acts on a manifest it
// cannot fully account for. A future format version fails with
// snapshot.ErrVersionUnsupported.
func ParseManifest(data []byte) (*Manifest, error) {
	if len(data) > maxManifestBytes {
		return nil, fmt.Errorf("replica: manifest is %d bytes (limit %d)", len(data), maxManifestBytes)
	}
	// The self-CRC line covers every byte before it.
	tail := bytes.LastIndex(data, []byte("crc32c "))
	if tail < 0 || !bytes.HasSuffix(data, []byte("\n")) {
		return nil, fmt.Errorf("replica: manifest has no trailing checksum line")
	}
	var wantCRC uint32
	if _, err := fmt.Sscanf(string(data[tail:]), "crc32c %08x\n", &wantCRC); err != nil {
		return nil, fmt.Errorf("replica: malformed manifest checksum line: %v", err)
	}
	if got := crc32.Checksum(data[:tail], castagnoli); got != wantCRC {
		return nil, fmt.Errorf("replica: manifest checksum mismatch: file records %08x, content sums to %08x", wantCRC, got)
	}

	m := &Manifest{}
	sc := bufio.NewScanner(bytes.NewReader(data[:tail]))
	sc.Buffer(make([]byte, 0, 64*1024), maxManifestBytes)
	line := 0
	sawHeader, sawLatest := false, false
	for sc.Scan() {
		line++
		text := strings.TrimRight(sc.Text(), "\r")
		if text == "" {
			continue
		}
		f := strings.Fields(text)
		switch {
		case !sawHeader:
			if len(f) != 2 || f[0] != "shift-manifest" {
				return nil, fmt.Errorf("replica: manifest line %d: want header, got %q", line, text)
			}
			v, err := strconv.ParseUint(f[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("replica: manifest line %d: bad format version: %v", line, err)
			}
			if v != ManifestVersion {
				return nil, fmt.Errorf("replica: manifest format version %d, this build reads %d: %w",
					v, ManifestVersion, snapshot.ErrVersionUnsupported)
			}
			sawHeader = true
		case f[0] == "latest":
			if sawLatest || len(f) != 2 {
				return nil, fmt.Errorf("replica: manifest line %d: malformed latest line", line)
			}
			v, err := strconv.ParseUint(f[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("replica: manifest line %d: bad latest version: %v", line, err)
			}
			m.Latest = v
			sawLatest = true
		case f[0] == "full":
			// full <version> <file> <size> <crc32c> <fingerprint> <keys>
			if len(f) != 7 {
				return nil, fmt.Errorf("replica: manifest line %d: full entry wants 7 fields, got %d", line, len(f))
			}
			e, err := parseEntry(f[1], f[2], f[3], f[4], f[5], f[6])
			if err != nil {
				return nil, fmt.Errorf("replica: manifest line %d: %v", line, err)
			}
			if err := m.appendEntry(e); err != nil {
				return nil, fmt.Errorf("replica: manifest line %d: %v", line, err)
			}
		case f[0] == "delta":
			// delta <version> <base> <basecrc> <file> <size> <crc32c> <fingerprint> <keys>
			if len(f) != 9 {
				return nil, fmt.Errorf("replica: manifest line %d: delta entry wants 9 fields, got %d", line, len(f))
			}
			e, err := parseEntry(f[1], f[4], f[5], f[6], f[7], f[8])
			if err != nil {
				return nil, fmt.Errorf("replica: manifest line %d: %v", line, err)
			}
			e.Delta = true
			if e.Base, err = strconv.ParseUint(f[2], 10, 64); err != nil {
				return nil, fmt.Errorf("replica: manifest line %d: bad delta base: %v", line, err)
			}
			bcrc, err := strconv.ParseUint(f[3], 16, 32)
			if err != nil {
				return nil, fmt.Errorf("replica: manifest line %d: bad delta base crc: %v", line, err)
			}
			e.BaseCRC = uint32(bcrc)
			if e.Base >= e.Version {
				return nil, fmt.Errorf("replica: manifest line %d: delta version %d does not follow its base %d", line, e.Version, e.Base)
			}
			if err := m.appendEntry(e); err != nil {
				return nil, fmt.Errorf("replica: manifest line %d: %v", line, err)
			}
		default:
			return nil, fmt.Errorf("replica: manifest line %d: unknown directive %q", line, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("replica: manifest scan: %v", err)
	}
	if !sawHeader || !sawLatest {
		return nil, fmt.Errorf("replica: manifest is missing header or latest line")
	}
	if len(m.Entries) == 0 {
		return nil, fmt.Errorf("replica: manifest lists no artifacts")
	}
	if m.Lookup(m.Latest) == nil {
		return nil, fmt.Errorf("replica: manifest latest %d has no entry", m.Latest)
	}
	// Every delta's base must be a present full entry with the recorded
	// content binding — a replica can always converge from what's listed.
	for _, e := range m.Entries {
		if !e.Delta {
			continue
		}
		b := m.Lookup(e.Base)
		if b == nil || b.Delta {
			return nil, fmt.Errorf("replica: delta %d references base %d which is not a listed full snapshot", e.Version, e.Base)
		}
		if b.CRC != e.BaseCRC {
			return nil, fmt.Errorf("replica: delta %d binds base %d to crc %08x, but the base entry records %08x",
				e.Version, e.Base, e.BaseCRC, b.CRC)
		}
	}
	return m, nil
}

func parseEntry(ver, file, size, crc, fp, keys string) (Entry, error) {
	var e Entry
	v, err := strconv.ParseUint(ver, 10, 64)
	if err != nil {
		return e, fmt.Errorf("bad version: %v", err)
	}
	if v == 0 {
		return e, fmt.Errorf("version 0 is reserved for 'never synced'")
	}
	e.Version = v
	if !validName(file) {
		return e, fmt.Errorf("invalid artifact name %q", file)
	}
	e.File = file
	sz, err := strconv.ParseInt(size, 10, 64)
	if err != nil || sz <= 0 {
		return e, fmt.Errorf("bad size %q", size)
	}
	e.Size = sz
	c, err := strconv.ParseUint(crc, 16, 32)
	if err != nil {
		return e, fmt.Errorf("bad crc %q", crc)
	}
	e.CRC = uint32(c)
	if e.Fingerprint, err = strconv.ParseUint(fp, 16, 64); err != nil {
		return e, fmt.Errorf("bad fingerprint %q", fp)
	}
	if e.Keys, err = strconv.ParseUint(keys, 10, 64); err != nil {
		return e, fmt.Errorf("bad key count %q", keys)
	}
	return e, nil
}

func (m *Manifest) appendEntry(e Entry) error {
	if n := len(m.Entries); n > 0 && m.Entries[n-1].Version >= e.Version {
		return fmt.Errorf("entry versions not strictly increasing (%d after %d)", e.Version, m.Entries[n-1].Version)
	}
	m.Entries = append(m.Entries, e)
	return nil
}

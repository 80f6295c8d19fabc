package serve

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/concurrent"
	"repro/internal/kv"
	"repro/internal/replica"
)

// The serving tier's end-to-end correctness check rides version tags:
// every query response carries the snapshot version that produced it,
// and for every published version there is an oracle — the reference
// ranks of a deterministic query pool, computed on the PRIMARY from the
// published state's scan path (independent of the Find pipeline under
// test) BEFORE the manifest names the version. A load generator can
// then verify any (rank, version) response bit-exactly, even while the
// primary keeps publishing mid-run, by correlating on the tag. The
// oracle travels through the same replica.Store as the artifacts
// (object "oracle-<version>"), so out-of-process clients (shiftload)
// verify against exactly what in-process tests verify against.

// castagnoli mirrors the replica package's CRC-32C choice for the
// oracle object's self-checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// QueryPool derives the deterministic query pool shared by the oracle
// writer and every load generator: size keys drawn from seed as
// rnd.Uint64() % max (max 0 = rnd.Uint64(), uniform over the full uint64
// domain). The modulo is not uniform in [0, max) unless max is a power of
// two: each value below 2^64 mod max has one more preimage than the
// others. For a max above 2^63, such as serve-*'s (the largest face64
// key + 2), the lowest 2^64 − max values have two preimages and the rest
// one, so they take about 20.2% of the draws instead of 11.3%. A uniform
// draw would change every serve-* pool and oracle, so it waits for the
// ROADMAP's [benchmark] item.
func QueryPool(seed int64, size int, max uint64) []uint64 {
	rnd := rand.New(rand.NewSource(seed))
	qs := make([]uint64, size)
	for i := range qs {
		if max > 0 {
			qs[i] = rnd.Uint64() % max
		} else {
			qs[i] = rnd.Uint64()
		}
	}
	return qs
}

// OracleRanks computes the reference answers for pool over a quiescent
// published state via its scan path — deliberately independent of the
// batched Find pipeline the serving tier uses.
func OracleRanks[K kv.Key](st *concurrent.PublishedState[K], pool []K) []int {
	var live []K
	st.Scan(0, ^K(0), func(k K) bool {
		live = append(live, k)
		return true
	})
	out := make([]int, len(pool))
	for i, q := range pool {
		out[i] = kv.LowerBound(live, q)
	}
	return out
}

// Oracle is one version's reference answers plus the pool parameters
// that regenerate its queries.
type Oracle struct {
	Version uint64
	Seed    int64
	Max     uint64 // pool key bound (0 = full domain)
	Ranks   []int  // one per pool slot
}

// Pool regenerates the query pool this oracle answers.
func (o *Oracle) Pool() []uint64 { return QueryPool(o.Seed, len(o.Ranks), o.Max) }

// OracleName is the store object name for a version's oracle.
func OracleName(version uint64) string {
	return fmt.Sprintf("oracle-%09d", version)
}

// Encode renders the oracle in the repo's line format with a trailing
// self-CRC, same discipline as the manifest.
func (o *Oracle) Encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "shift-serve-oracle 1\n")
	fmt.Fprintf(&b, "version %d\n", o.Version)
	fmt.Fprintf(&b, "pool %d %d\n", o.Seed, o.Max)
	b.WriteString("ranks")
	for _, r := range o.Ranks {
		fmt.Fprintf(&b, " %d", r)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "crc32c %08x\n", crc32.Checksum(b.Bytes(), castagnoli))
	return b.Bytes()
}

// ParseOracle strictly parses an encoded oracle, checksum included.
func ParseOracle(data []byte) (*Oracle, error) {
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 5 {
		return nil, fmt.Errorf("serve: oracle: %d lines, want 5", len(lines))
	}
	last := lines[len(lines)-1]
	want, ok := strings.CutPrefix(last, "crc32c ")
	if !ok {
		return nil, fmt.Errorf("serve: oracle: missing crc32c trailer")
	}
	wantSum, err := strconv.ParseUint(want, 16, 32)
	if err != nil {
		return nil, fmt.Errorf("serve: oracle: bad crc32c %q", want)
	}
	body := strings.Join(lines[:len(lines)-1], "\n") + "\n"
	if got := crc32.Checksum([]byte(body), castagnoli); got != uint32(wantSum) {
		return nil, fmt.Errorf("serve: oracle: checksum %08x, recorded %08x", got, wantSum)
	}
	if lines[0] != "shift-serve-oracle 1" {
		return nil, fmt.Errorf("serve: oracle: bad header %q", lines[0])
	}
	o := &Oracle{}
	if _, err := fmt.Sscanf(lines[1], "version %d", &o.Version); err != nil {
		return nil, fmt.Errorf("serve: oracle: bad version line %q", lines[1])
	}
	if _, err := fmt.Sscanf(lines[2], "pool %d %d", &o.Seed, &o.Max); err != nil {
		return nil, fmt.Errorf("serve: oracle: bad pool line %q", lines[2])
	}
	fields := strings.Fields(lines[3])
	if len(fields) == 0 || fields[0] != "ranks" {
		return nil, fmt.Errorf("serve: oracle: bad ranks line")
	}
	o.Ranks = make([]int, len(fields)-1)
	for i, f := range fields[1:] {
		r, err := strconv.Atoi(f)
		if err != nil || r < 0 {
			return nil, fmt.Errorf("serve: oracle: bad rank %q", f)
		}
		o.Ranks[i] = r
	}
	return o, nil
}

// PutOracle publishes a version's oracle into the store. Call it BEFORE
// the version's Publish, so no replica can serve a version whose oracle
// does not exist yet.
func PutOracle(ctx context.Context, s replica.Store, o *Oracle) error {
	return s.Put(ctx, OracleName(o.Version), bytes.NewReader(o.Encode()))
}

// FetchOracle retrieves and parses a version's oracle from the store.
func FetchOracle(ctx context.Context, s replica.Store, version uint64) (*Oracle, error) {
	rc, err := s.Get(ctx, OracleName(version))
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	data, err := io.ReadAll(io.LimitReader(rc, 1<<24))
	if err != nil {
		return nil, err
	}
	o, err := ParseOracle(data)
	if err != nil {
		return nil, err
	}
	if o.Version != version {
		return nil, fmt.Errorf("serve: oracle object %s holds version %d", OracleName(version), o.Version)
	}
	return o, nil
}

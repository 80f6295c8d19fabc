package router

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/index"
	"repro/internal/kv"
	"repro/internal/snapshot"
)

// This file persists the hybrid router (DESIGN.md §9). The expensive part
// of building a router is not the winning backends — it is the per-shard
// candidate evaluation (five trained candidates per shard, cost-modelled
// or measured). The snapshot therefore stores the routing *plan* — shard
// cuts, chosen backend, estimate — plus, for shards whose backend can be
// persisted keylessly (a Shift-Table's model spec + layer, a bare model's
// spec), those sections attached by reference to the router's single key
// section; the remaining shards are rebuilt from their key slices at load
// time, which still skips the candidate search. Keys are never written
// twice, and restored shards share the router's key array exactly like
// cold-built ones.

// SnapshotKind identifies router snapshots.
const SnapshotKind = "router"

// Section ids of the router kind. Persisted shards contribute, in shard
// order, a model section and (for shift-table shards) a layer section.
const (
	secRouterKeys       = 1
	secRouterPlan       = 2
	secRouterShardModel = 3 // repeated
	secRouterShardLayer = 4 // repeated, shift-table shards only
)

// maxRouterShards bounds the shard count a plan may claim; real routers
// carry at most 64 shards (Config.Shards is clamped), so anything wildly
// larger is a corrupt header.
const maxRouterShards = 1 << 16

// Shard persistence modes recorded in the plan.
const (
	shardRebuild    = 0 // rebuild the backend over the shard's key slice
	shardTable      = 1 // model spec + layer sections follow
	shardModelIndex = 2 // model spec section follows
)

// SnapshotKind implements the index.Persister capability.
func (r *Router[K]) SnapshotKind() string { return SnapshotKind }

// PersistSnapshot writes the keys once, the routing plan, and the
// keyless sections of every natively-persistable shard.
func (r *Router[K]) PersistSnapshot(sw *snapshot.Writer) error {
	if err := snapshot.WriteKeySection(sw, secRouterKeys, r.keys); err != nil {
		return err
	}
	modes := make([]byte, len(r.shards))
	for i, sh := range r.shards {
		modes[i] = shardMode(sh)
	}
	plan := make([]byte, 0, 16+len(r.shards)*48)
	plan = binary.LittleEndian.AppendUint32(plan, uint32(len(r.shards)))
	for i, sh := range r.shards {
		c := r.choices[i]
		plan = binary.LittleEndian.AppendUint64(plan, uint64(r.bounds[i]))
		plan = binary.LittleEndian.AppendUint64(plan, uint64(r.offs[i]))
		plan = binary.LittleEndian.AppendUint64(plan, uint64(sh.Len()))
		plan = binary.LittleEndian.AppendUint64(plan, math.Float64bits(c.EstNs))
		plan = append(plan, boolByte(c.Measured), modes[i])
		plan = binary.LittleEndian.AppendUint32(plan, uint32(len(c.Backend)))
		plan = append(plan, c.Backend...)
	}
	if err := sw.Bytes(secRouterPlan, plan); err != nil {
		return err
	}
	for i, sh := range r.shards {
		var err error
		switch modes[i] {
		case shardTable:
			err = sh.(tablePersister).PersistModelAndLayer(sw, secRouterShardModel, secRouterShardLayer)
		case shardModelIndex:
			err = sh.(modelSpecPersister).PersistModelSpec(sw, secRouterShardModel)
		}
		if err != nil {
			return fmt.Errorf("router: persisting shard %d (%s): %w", i, r.choices[i].Backend, err)
		}
	}
	return nil
}

// tablePersister / modelSpecPersister are the keyless persistence shapes
// of core.Table and core.ModelIndex, matched structurally (the registry's
// IM+ST/RS+ST/RMI+ST shards promote core.Table's methods).
type tablePersister interface {
	PersistModelAndLayer(sw *snapshot.Writer, modelID, layerID uint32) error
}

type modelSpecPersister interface {
	PersistModelSpec(sw *snapshot.Writer, id uint32) error
}

// shardMode classifies how a shard persists: natively keyless where the
// backend supports it, rebuild-from-plan otherwise.
func shardMode[K kv.Key](sh index.Index[K]) byte {
	if _, ok := sh.(tablePersister); ok {
		return shardTable
	}
	if _, ok := sh.(modelSpecPersister); ok {
		return shardModelIndex
	}
	return shardRebuild
}

// planEntry is one decoded shard record of the plan section.
type planEntry struct {
	bound    uint64
	off      int
	length   int
	estNs    float64
	measured bool
	mode     byte
	backend  string
}

// decodePlan parses and cross-validates the plan section: shard count
// bounded, offsets contiguous from zero, lengths positive and summing to
// the key count. off and length are validated individually against n
// before any arithmetic that could wrap a hostile u64.
func decodePlan(plan []byte, n int) ([]planEntry, error) {
	if len(plan) < 4 {
		return nil, fmt.Errorf("router: plan section truncated")
	}
	count := int(binary.LittleEndian.Uint32(plan))
	plan = plan[4:]
	if count > maxRouterShards {
		return nil, fmt.Errorf("router: plan claims %d shards (limit %d)", count, maxRouterShards)
	}
	entries := make([]planEntry, 0, count)
	next := 0
	for i := 0; i < count; i++ {
		if len(plan) < 38 {
			return nil, fmt.Errorf("router: plan truncated at shard %d", i)
		}
		var e planEntry
		e.bound = binary.LittleEndian.Uint64(plan)
		off := binary.LittleEndian.Uint64(plan[8:])
		length := binary.LittleEndian.Uint64(plan[16:])
		e.estNs = math.Float64frombits(binary.LittleEndian.Uint64(plan[24:]))
		e.measured = plan[32] != 0
		e.mode = plan[33]
		nameLen := int(binary.LittleEndian.Uint32(plan[34:]))
		plan = plan[38:]
		if nameLen == 0 || nameLen > 255 || nameLen > len(plan) {
			return nil, fmt.Errorf("router: shard %d has invalid backend name length %d", i, nameLen)
		}
		e.backend = string(plan[:nameLen])
		plan = plan[nameLen:]
		if off != uint64(next) {
			return nil, fmt.Errorf("router: shard %d starts at rank %d, expected %d", i, off, next)
		}
		// Bound each field against n on its own before summing: a length
		// near 2^64 must not wrap off+length around the check.
		if length == 0 || length > uint64(n) || off+length > uint64(n) {
			return nil, fmt.Errorf("router: shard %d spans ranks [%d, %d) outside the %d keys",
				i, off, off+length, n)
		}
		e.off, e.length = int(off), int(length)
		next = e.off + e.length
		entries = append(entries, e)
	}
	if len(plan) != 0 {
		return nil, fmt.Errorf("router: %d trailing bytes after the plan entries", len(plan))
	}
	if next != n {
		return nil, fmt.Errorf("router: plan covers %d of %d keys", next, n)
	}
	return entries, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

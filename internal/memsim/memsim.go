// Package memsim simulates a processor cache hierarchy. The paper's
// evaluation leans on hardware performance counters (LLC miss rates in
// Fig. 2b and Fig. 8, the 36 ns DRAM latency floor from Intel MLC); Go has
// no portable access to PMCs, so this package substitutes a set-associative
// inclusive LRU cache model fed with the real memory addresses the search
// algorithms touch (see DESIGN.md §2).
//
// Every index package exposes a TraceFind twin of its lookup that emits its
// memory accesses; equality of TraceFind and Find results is property-tested
// package by package, so the simulated access pattern is the real one.
package memsim

import "fmt"

// LevelSpec describes one cache level.
type LevelSpec struct {
	Name      string
	SizeBytes int
	Assoc     int
	LineBytes int
	LatencyNs float64 // access latency when the lookup hits at this level
}

// Config describes a cache hierarchy, ordered from L1 down.
type Config struct {
	Levels []LevelSpec
	DRAMNs float64 // latency when every level misses
}

// Skylake returns the hierarchy of the paper's evaluation machine (Intel
// i7-6700: 32 KB 8-way L1d, 256 KB 4-way L2, 8 MB 16-way L3, 64 B lines),
// with the paper's measured 36 ns LLC-miss penalty as the DRAM latency.
func Skylake() Config {
	return Config{
		Levels: []LevelSpec{
			{Name: "L1", SizeBytes: 32 << 10, Assoc: 8, LineBytes: 64, LatencyNs: 1.2},
			{Name: "L2", SizeBytes: 256 << 10, Assoc: 4, LineBytes: 64, LatencyNs: 3.5},
			{Name: "L3", SizeBytes: 8 << 20, Assoc: 16, LineBytes: 64, LatencyNs: 12},
		},
		DRAMNs: 36,
	}
}

// LevelStats accumulates hit/miss counts for one level.
type LevelStats struct {
	Name   string
	Hits   int64
	Misses int64
}

// Stats is a snapshot of simulator counters.
type Stats struct {
	Accesses int64
	Levels   []LevelStats
	TotalNs  float64
}

// MissRatio returns misses/accesses for the named level (0 if unknown).
func (s Stats) MissRatio(name string) float64 {
	if s.Accesses == 0 {
		return 0
	}
	for _, l := range s.Levels {
		if l.Name == name {
			return float64(l.Misses) / float64(s.Accesses)
		}
	}
	return 0
}

// MissesPer returns the average number of misses at the named level per
// unit (e.g. per lookup when unit = number of lookups).
func (s Stats) MissesPer(name string, unit int64) float64 {
	if unit == 0 {
		return 0
	}
	for _, l := range s.Levels {
		if l.Name == name {
			return float64(l.Misses) / float64(unit)
		}
	}
	return 0
}

type level struct {
	spec LevelSpec
	sets int
	// tags[set] holds cached line tags in LRU order, most recent first.
	tags [][]uint64
}

// Sim is a cache hierarchy simulator. Not safe for concurrent use.
type Sim struct {
	levels []*level
	dramNs float64
	stats  Stats
}

// New builds a simulator for the hierarchy.
func New(cfg Config) (*Sim, error) {
	if len(cfg.Levels) == 0 {
		return nil, fmt.Errorf("memsim: hierarchy needs at least one level")
	}
	s := &Sim{dramNs: cfg.DRAMNs}
	for _, spec := range cfg.Levels {
		if spec.LineBytes <= 0 || spec.Assoc <= 0 || spec.SizeBytes <= 0 {
			return nil, fmt.Errorf("memsim: invalid level %+v", spec)
		}
		sets := spec.SizeBytes / (spec.LineBytes * spec.Assoc)
		if sets < 1 {
			return nil, fmt.Errorf("memsim: level %s smaller than one set", spec.Name)
		}
		lv := &level{spec: spec, sets: sets, tags: make([][]uint64, sets)}
		s.levels = append(s.levels, lv)
		s.stats.Levels = append(s.stats.Levels, LevelStats{Name: spec.Name})
	}
	return s, nil
}

// Access simulates one memory access of `width` bytes at `addr`, touching
// one or two cache lines.
func (s *Sim) Access(addr uint64, width int) {
	if width <= 0 {
		width = 1
	}
	line := s.levels[0].spec.LineBytes
	first := addr / uint64(line)
	last := (addr + uint64(width) - 1) / uint64(line)
	for ln := first; ln <= last; ln++ {
		s.accessLine(ln)
	}
}

// accessLine walks the hierarchy: hit at the highest level containing the
// line, promote into the levels above (inclusive fill), charge the latency
// of the hit level (or DRAM).
func (s *Sim) accessLine(ln uint64) {
	s.stats.Accesses++
	hitAt := -1
	for i, lv := range s.levels {
		if lv.touch(ln) {
			hitAt = i
			break
		}
	}
	if hitAt == -1 {
		s.stats.TotalNs += s.dramNs
		for i := range s.levels {
			s.stats.Levels[i].Misses++
			s.levels[i].fill(ln)
		}
		return
	}
	s.stats.TotalNs += s.levels[hitAt].spec.LatencyNs
	s.stats.Levels[hitAt].Hits++
	for i := 0; i < hitAt; i++ {
		s.stats.Levels[i].Misses++
		s.levels[i].fill(ln)
	}
}

// touch looks the line up and refreshes its LRU position on hit.
func (lv *level) touch(ln uint64) bool {
	set := int(ln % uint64(lv.sets))
	ways := lv.tags[set]
	for i, tag := range ways {
		if tag == ln {
			copy(ways[1:i+1], ways[:i])
			ways[0] = ln
			return true
		}
	}
	return false
}

// fill inserts the line at MRU position, evicting the LRU way when full.
func (lv *level) fill(ln uint64) {
	set := int(ln % uint64(lv.sets))
	ways := lv.tags[set]
	if len(ways) < lv.spec.Assoc {
		ways = append(ways, 0)
	}
	copy(ways[1:], ways)
	ways[0] = ln
	lv.tags[set] = ways
}

// Stats returns a copy of the counters.
func (s *Sim) Stats() Stats {
	out := s.stats
	out.Levels = append([]LevelStats(nil), s.stats.Levels...)
	return out
}

// ResetStats clears counters but keeps cache contents (use between warmup
// and measurement).
func (s *Sim) ResetStats() {
	for i := range s.stats.Levels {
		s.stats.Levels[i].Hits = 0
		s.stats.Levels[i].Misses = 0
	}
	s.stats.Accesses = 0
	s.stats.TotalNs = 0
}

// Flush empties every cache level (cold-cache measurements).
func (s *Sim) Flush() {
	for _, lv := range s.levels {
		for i := range lv.tags {
			lv.tags[i] = nil
		}
	}
}

// Package simhw simulates a hierarchical memory system: multiple levels of
// set-associative LRU caches plus a TLB, with distinct sequential and random
// fetch latencies per level.
//
// The paper's cache studies (§4) were done with hardware event counters on
// real CPUs; Go offers no portable access to those, so instrumented variants
// of the algorithms replay their exact memory reference streams into this
// simulator instead (cmd/experiments E1, E3–E5, E11 and E12 run on it).
// What the experiments need — the number and kind of misses per level as a
// function of algorithm parameters — is preserved exactly.
package simhw

import "fmt"

// Level describes one cache level.
type Level struct {
	Name     string
	Capacity int // bytes
	LineSize int // bytes
	Assoc    int // ways; 0 means fully associative

	// Latency (ns) charged when a miss at the level above is served from
	// this level; sequential (streamed/prefetched) fetches may be cheaper
	// than random ones, as on real DRAM.
	LatSeqNS  float64
	LatRandNS float64
}

// TLBConfig describes the translation lookaside buffer.
type TLBConfig struct {
	Entries  int
	PageSize int // bytes
	MissNS   float64
}

// Hierarchy is a full memory system description. Levels[0] is closest to
// the CPU; the last level is main memory (capacity ignored; it always hits).
type Hierarchy struct {
	Levels []Level
	TLB    TLBConfig
}

// Default returns a hierarchy shaped like the paper-era hardware (a
// Pentium4-Xeon-ish machine, cf. §4.3): 16KB L1, 512KB L2, 64-entry TLB.
func Default() Hierarchy {
	return Hierarchy{
		Levels: []Level{
			{Name: "L1", Capacity: 16 << 10, LineSize: 64, Assoc: 8, LatSeqNS: 1, LatRandNS: 1},
			{Name: "L2", Capacity: 512 << 10, LineSize: 64, Assoc: 8, LatSeqNS: 8, LatRandNS: 10},
			{Name: "RAM", LineSize: 64, LatSeqNS: 30, LatRandNS: 100},
		},
		TLB: TLBConfig{Entries: 64, PageSize: 4 << 10, MissNS: 50},
	}
}

// Small returns a deliberately tiny hierarchy so unit tests can provoke
// capacity and TLB misses with little data.
func Small() Hierarchy {
	return Hierarchy{
		Levels: []Level{
			{Name: "L1", Capacity: 1 << 10, LineSize: 64, Assoc: 2, LatSeqNS: 1, LatRandNS: 1},
			{Name: "L2", Capacity: 8 << 10, LineSize: 64, Assoc: 4, LatSeqNS: 8, LatRandNS: 10},
			{Name: "RAM", LineSize: 64, LatSeqNS: 30, LatRandNS: 100},
		},
		TLB: TLBConfig{Entries: 8, PageSize: 1 << 10, MissNS: 50},
	}
}

// LevelStats accumulates per-level counters.
type LevelStats struct {
	Hits       uint64
	SeqMisses  uint64 // misses served by the next level with a streamed fetch
	RandMisses uint64
}

// Misses returns total misses at the level.
func (l LevelStats) Misses() uint64 { return l.SeqMisses + l.RandMisses }

// Stats accumulates the counters of one simulation run.
type Stats struct {
	Accesses  uint64
	Levels    []LevelStats // aligned with Hierarchy.Levels[:len-1]
	TLBMisses uint64
	TimeNS    float64
}

// String renders a compact stats summary.
func (s Stats) String() string {
	out := fmt.Sprintf("acc=%d tlbmiss=%d t=%.0fns", s.Accesses, s.TLBMisses, s.TimeNS)
	for i, l := range s.Levels {
		out += fmt.Sprintf(" L%d[s=%d r=%d]", i+1, l.SeqMisses, l.RandMisses)
	}
	return out
}

// streamSlots is the number of concurrent sequential streams the modeled
// prefetcher tracks, as hardware stream prefetchers do.
const streamSlots = 16

// cache is one set-associative LRU cache.
type cache struct {
	lineShift uint
	sets      [][]uint64 // per set: tags in LRU order (front = MRU)
	setMask   uint64
	assoc     int

	// streams holds the last missed line of up to streamSlots concurrent
	// sequential access streams, for seq-vs-random miss classification.
	streams [streamSlots]uint64
	nstream int
	clock   int
}

func newCache(capacity, lineSize, assoc int) *cache {
	nlines := capacity / lineSize
	if assoc <= 0 || assoc > nlines {
		assoc = nlines // fully associative
	}
	nsets := nlines / assoc
	if nsets < 1 {
		nsets = 1
	}
	// round down to power of two for cheap masking
	p := 1
	for p*2 <= nsets {
		p *= 2
	}
	nsets = p
	c := &cache{assoc: assoc, setMask: uint64(nsets - 1), sets: make([][]uint64, nsets)}
	for lineSize > 1 {
		lineSize >>= 1
		c.lineShift++
	}
	return c
}

// access returns (hit, sequential) where sequential reports whether the
// missed line immediately follows the previously missed line (a streamed
// fetch a hardware prefetcher would have hidden).
func (c *cache) access(addr uint64) (hit, seq bool) {
	line := addr >> c.lineShift
	set := c.sets[line&c.setMask]
	for i, tag := range set {
		if tag == line {
			// move to front (LRU update)
			copy(set[1:i+1], set[:i])
			set[0] = line
			return true, false
		}
	}
	seq = c.noteStream(line)
	if len(set) < c.assoc {
		set = append(set, 0)
	}
	copy(set[1:], set)
	set[0] = line
	c.sets[line&c.setMask] = set
	return false, seq
}

// noteStream classifies a missed line as sequential if it extends one of
// the tracked streams, updating the stream table either way (round-robin
// replacement for new streams).
func (c *cache) noteStream(line uint64) bool {
	for i := 0; i < c.nstream; i++ {
		if line == c.streams[i]+1 {
			c.streams[i] = line
			return true
		}
	}
	if c.nstream < streamSlots {
		c.streams[c.nstream] = line
		c.nstream++
		return false
	}
	c.streams[c.clock] = line
	c.clock = (c.clock + 1) % streamSlots
	return false
}

// Sim is a running simulation over a Hierarchy. The zero value is not
// usable; construct with NewSim.
type Sim struct {
	h      Hierarchy
	caches []*cache
	tlb    *cache
	stats  Stats
	brk    uint64 // bump allocator for Alloc
}

// NewSim builds a simulator for h.
func NewSim(h Hierarchy) *Sim {
	if len(h.Levels) < 2 {
		panic("simhw: need at least one cache level plus memory")
	}
	s := &Sim{h: h, brk: h.Levels[0].lineBytes()}
	for _, l := range h.Levels[:len(h.Levels)-1] {
		s.caches = append(s.caches, newCache(l.Capacity, l.LineSize, l.Assoc))
	}
	s.tlb = newCache(h.TLB.Entries*h.TLB.PageSize, h.TLB.PageSize, 0)
	s.stats.Levels = make([]LevelStats, len(s.caches))
	return s
}

// lineBytes returns the line size in bytes, defaulting to 64.
func (l Level) lineBytes() uint64 {
	if l.LineSize == 0 {
		return 64
	}
	return uint64(l.LineSize)
}

// Hierarchy returns the simulated hardware description.
func (s *Sim) Hierarchy() Hierarchy { return s.h }

// Alloc reserves size bytes in the simulated address space and returns the
// base address, page aligned so regions never share TLB pages.
func (s *Sim) Alloc(size int) uint64 {
	ps := uint64(s.h.TLB.PageSize)
	base := (s.brk + ps - 1) / ps * ps
	s.brk = base + uint64(size)
	return base
}

// Read simulates a size-byte read at addr: every cache line covered is
// walked through the hierarchy and the TLB is consulted per page.
func (s *Sim) Read(addr uint64, size int) {
	s.touch(addr, size)
}

// Write simulates a size-byte write (write-allocate, same cost as read).
func (s *Sim) Write(addr uint64, size int) {
	s.touch(addr, size)
}

func (s *Sim) touch(addr uint64, size int) {
	if size <= 0 {
		size = 1
	}
	line0 := addr >> s.caches[0].lineShift
	line1 := (addr + uint64(size) - 1) >> s.caches[0].lineShift
	for ln := line0; ln <= line1; ln++ {
		s.touchLine(ln << s.caches[0].lineShift)
	}
}

func (s *Sim) touchLine(addr uint64) {
	s.stats.Accesses++
	s.stats.TimeNS += s.h.Levels[0].LatSeqNS // L1 hit time, always paid
	if hit, _ := s.tlb.access(addr); !hit {
		s.stats.TLBMisses++
		s.stats.TimeNS += s.h.TLB.MissNS
	}
	for i, c := range s.caches {
		hit, seq := c.access(addr)
		if hit {
			if i > 0 {
				s.stats.Levels[i].Hits++
			} else {
				s.stats.Levels[0].Hits++
			}
			return
		}
		next := s.h.Levels[i+1]
		if seq {
			s.stats.Levels[i].SeqMisses++
			s.stats.TimeNS += next.LatSeqNS
		} else {
			s.stats.Levels[i].RandMisses++
			s.stats.TimeNS += next.LatRandNS
		}
	}
}

// Stats returns a snapshot of the counters so far.
func (s *Sim) Stats() Stats {
	cp := s.stats
	cp.Levels = append([]LevelStats(nil), s.stats.Levels...)
	return cp
}

// Reset clears the counters but keeps cache contents (useful to measure a
// steady-state phase after warm-up).
func (s *Sim) Reset() {
	s.stats = Stats{Levels: make([]LevelStats, len(s.caches))}
}

// Package cache implements the set-associative tag arrays used for the L1
// and L2 caches of each node (Table 1: 64-KB 2-way L1, 512-KB 4-way L2,
// 64-byte lines, LRU replacement).
//
// The arrays track line presence and MOESI state only; the controller keeps
// a single canonical data image per node, so an L1 entry is a
// latency/permission filter over the L2 entry, exactly as the inclusive
// hierarchy in the paper behaves from the bus's point of view.
package cache

import (
	"fmt"

	"iqolb/internal/mem"
)

// Config sizes a cache.
type Config struct {
	SizeBytes int
	Ways      int
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / mem.LineSize / c.Ways }

// Validate checks that the geometry is a usable power-of-two arrangement.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.SizeBytes%(mem.LineSize*c.Ways) != 0 {
		return fmt.Errorf("cache: size %d not divisible by ways*linesize", c.SizeBytes)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

type entry struct {
	line  mem.LineID
	state mem.State
	used  uint64 // LRU stamp; larger = more recent
}

// Cache is a set-associative tag/state array with LRU replacement.
type Cache struct {
	cfg   Config
	sets  [][]entry
	mask  uint64
	clock uint64

	// Statistics.
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// New builds a cache from the configuration, panicking on invalid geometry
// (configurations are static and validated at machine construction).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Sets()
	sets := make([][]entry, n)
	backing := make([]entry, n*cfg.Ways)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &Cache{cfg: cfg, sets: sets, mask: uint64(n - 1)}
}

// Config returns the geometry the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) setFor(line mem.LineID) []entry {
	return c.sets[uint64(line)&c.mask]
}

func (c *Cache) find(line mem.LineID) *entry {
	set := c.setFor(line)
	for i := range set {
		if set[i].state != mem.Invalid && set[i].line == line {
			return &set[i]
		}
	}
	return nil
}

// State returns the MOESI state of the line, Invalid if absent.
func (c *Cache) State(line mem.LineID) mem.State {
	if e := c.find(line); e != nil {
		return e.state
	}
	return mem.Invalid
}

// Contains reports whether the line is present in any valid state.
func (c *Cache) Contains(line mem.LineID) bool { return c.find(line) != nil }

// Touch marks the line most recently used and counts a hit; it counts a
// miss and reports false when the line is absent.
func (c *Cache) Touch(line mem.LineID) bool {
	e := c.find(line)
	if e == nil {
		c.Misses++
		return false
	}
	c.clock++
	e.used = c.clock
	c.Hits++
	return true
}

// TouchN is n hits on a resident line at once: the clock, the line's LRU
// stamp and Hits end exactly as after n calls to Touch.
func (c *Cache) TouchN(line mem.LineID, n uint64) {
	if n == 0 {
		return
	}
	e := c.find(line)
	if e == nil {
		panic(fmt.Sprintf("cache: TouchN(%d) on absent line", line))
	}
	c.clock += n
	e.used = c.clock
	c.Hits += n
}

// SetState changes the state of a resident line. Setting Invalid removes
// the line. It panics if the line is absent: controllers must only
// transition lines they hold, and a silent no-op here would mask protocol
// bugs.
func (c *Cache) SetState(line mem.LineID, s mem.State) {
	e := c.find(line)
	if e == nil {
		panic(fmt.Sprintf("cache: SetState(%d, %s) on absent line", line, s))
	}
	e.state = s
}

// Invalidate removes the line if present and reports whether it was.
func (c *Cache) Invalidate(line mem.LineID) bool {
	e := c.find(line)
	if e == nil {
		return false
	}
	e.state = mem.Invalid
	return true
}

// Victim returns the line that Install would evict for an insertion
// mapping to line's set, without performing the eviction. It reports
// ok=false when a free way exists (no eviction needed).
func (c *Cache) Victim(line mem.LineID) (victim mem.LineID, state mem.State, ok bool) {
	set := c.setFor(line)
	var lru *entry
	for i := range set {
		if set[i].state == mem.Invalid {
			return 0, mem.Invalid, false
		}
		if lru == nil || set[i].used < lru.used {
			lru = &set[i]
		}
	}
	return lru.line, lru.state, true
}

// Install inserts the line in the given state, evicting the LRU entry of a
// full set. It returns the evicted line and its prior state when an
// eviction occurred. Installing over a resident line replaces its state in
// place (no eviction).
func (c *Cache) Install(line mem.LineID, s mem.State) (victim mem.LineID, victimState mem.State, evicted bool) {
	if s == mem.Invalid {
		panic("cache: Install with Invalid state")
	}
	c.clock++
	if e := c.find(line); e != nil {
		e.state = s
		e.used = c.clock
		return 0, mem.Invalid, false
	}
	set := c.setFor(line)
	var slot *entry
	for i := range set {
		if set[i].state == mem.Invalid {
			slot = &set[i]
			break
		}
	}
	if slot == nil {
		for i := range set {
			if slot == nil || set[i].used < slot.used {
				slot = &set[i]
			}
		}
		victim, victimState, evicted = slot.line, slot.state, true
		c.Evictions++
	}
	slot.line = line
	slot.state = s
	slot.used = c.clock
	return victim, victimState, evicted
}

// Lines returns all resident lines; used by invariant-checking tests.
func (c *Cache) Lines() []mem.LineID {
	var out []mem.LineID
	for _, set := range c.sets {
		for _, e := range set {
			if e.state != mem.Invalid {
				out = append(out, e.line)
			}
		}
	}
	return out
}

// Package cache implements a set-associative, write-back, write-allocate
// cache timing model with true-LRU replacement.
//
// The same model serves four roles in the simulated system: the per-core L1
// and L2 caches, the shared L3, and — centrally for this paper — the 32KB
// 8-way counter/MAC metadata cache inside the memory encryption engine
// (Table 1). The model tracks hit/miss/eviction behaviour, not data
// contents; functional data lives in the backing stores.
package cache

import "fmt"

// Config describes a cache geometry.
type Config struct {
	// SizeBytes is the total capacity. Must be Ways*LineBytes aligned.
	SizeBytes int
	// LineBytes is the line size (64 for everything in this system).
	LineBytes int
	// Ways is the set associativity.
	Ways int
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
}

// HitRate returns hits / (hits+misses), or 0 when idle.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// AccessResult reports the effect of one access.
type AccessResult struct {
	// Hit is true when the line was present.
	Hit bool
	// Evicted is true when the fill displaced a valid line.
	Evicted bool
	// EvictedAddr is the line address displaced (valid when Evicted).
	EvictedAddr uint64
	// EvictedDirty is true when the displaced line needs a writeback.
	EvictedDirty bool
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // higher = more recently used
}

// Cache is a set-associative cache model. It is not safe for concurrent use;
// the simulator is single-threaded by design (deterministic).
type Cache struct {
	cfg      Config
	sets     [][]line
	numSets  uint64
	lineBits uint
	tick     uint64
	stats    Stats
}

// New validates the geometry and builds the cache.
func New(cfg Config) (*Cache, error) {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d not a power of two", cfg.LineBytes)
	}
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: ways %d must be positive", cfg.Ways)
	}
	if cfg.SizeBytes <= 0 || cfg.SizeBytes%(cfg.LineBytes*cfg.Ways) != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible by ways*line (%d)",
			cfg.SizeBytes, cfg.LineBytes*cfg.Ways)
	}
	// Set counts need not be a power of two (e.g. a 10MB 16-way L3 has
	// 10240 sets); indexing uses modulo arithmetic.
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	c := &Cache{
		cfg:     cfg,
		sets:    make([][]line, numSets),
		numSets: uint64(numSets),
	}
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Ways)
	}
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		c.lineBits++
	}
	return c, nil
}

// MustNew is New that panics on bad geometry.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	lineAddr := addr >> c.lineBits
	return lineAddr % c.numSets, lineAddr / c.numSets
}

// Access looks up addr, allocating on miss (write-allocate). write marks the
// line dirty. The result reports hit/miss and any eviction the fill caused.
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	set, tag := c.index(addr)
	c.tick++
	lines := c.sets[set]
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			lines[i].lru = c.tick
			if write {
				lines[i].dirty = true
			}
			c.stats.Hits++
			return AccessResult{Hit: true}
		}
	}
	c.stats.Misses++
	// Fill: pick an invalid way, else the LRU way.
	victim := 0
	for i := range lines {
		if !lines[i].valid {
			victim = i
			break
		}
		if lines[i].lru < lines[victim].lru {
			victim = i
		}
	}
	res := AccessResult{}
	if lines[victim].valid {
		res.Evicted = true
		res.EvictedAddr = c.lineAddrOf(set, lines[victim].tag)
		res.EvictedDirty = lines[victim].dirty
		c.stats.Evictions++
		if lines[victim].dirty {
			c.stats.Writebacks++
		}
	}
	lines[victim] = line{tag: tag, valid: true, dirty: write, lru: c.tick}
	return res
}

// Probe reports whether addr is present without disturbing LRU or stats.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	for _, l := range c.sets[set] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Flush invalidates everything, returning the number of dirty lines dropped.
func (c *Cache) Flush() (dirty int) {
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].valid && c.sets[s][w].dirty {
				dirty++
			}
			c.sets[s][w] = line{}
		}
	}
	return dirty
}

// Stats returns cumulative event counts.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) lineAddrOf(set, tag uint64) uint64 {
	return (tag*c.numSets + set) << c.lineBits
}

// Package cpu implements the trace-driven multi-core timing model — the
// MARSSx86 substitute of this reproduction.
//
// Each core executes a memory-access trace: non-memory instructions retire
// at the issue width, loads stall until the hierarchy returns data, stores
// retire through a store buffer without stalling (their fills and
// writebacks still generate traffic). Cores share an L3 and the secure
// memory controller; the simulation interleaves cores in global time order,
// so cross-core contention (L3 capacity, DRAM banks and buses, metadata
// cache) emerges naturally and deterministically.
//
// The model is deliberately first-order: the paper's Figure 8 effect is
// "extra DRAM transactions per miss lengthen effective miss latency", which
// a bounded-issue stall model exposes without out-of-order bookkeeping.
package cpu

import (
	"fmt"

	"authmem/internal/cache"
	"authmem/internal/trace"
)

// MemoryBackend is what the hierarchy sits on — in this system, the secure
// memory controller's timing model.
type MemoryBackend interface {
	// ReadMiss returns the cycle at which a missing line is available.
	ReadMiss(now, addr uint64) uint64
	// WriteBack accepts an evicted dirty line.
	WriteBack(now, addr uint64) uint64
}

// Config describes the modeled chip (Table 1).
type Config struct {
	// Cores is the number of cores (= trace streams).
	Cores int
	// IssueWidth is instructions retired per cycle outside stalls.
	IssueWidth int
	// L1, L2 are per-core; L3 is shared.
	L1, L2, L3 cache.Config
	// Hit latencies in cycles. L1 hits are charged on loads.
	L1HitCycles, L2HitCycles, L3HitCycles uint64
	// MLP is the memory-level-parallelism divisor an out-of-order window
	// applies to load-miss stalls: independent misses overlap, so the
	// core observes roughly latency/MLP per miss. 0 or 1 means fully
	// serialized misses.
	MLP int
	// NextLinePrefetch enables a simple next-line prefetcher: every load
	// miss also pulls the following line into the hierarchy without
	// stalling the core. Off by default (the paper's Table 1 does not
	// specify one); useful as an ablation — prefetching amplifies
	// metadata traffic, since speculative lines need verification too.
	NextLinePrefetch bool
}

// Table1 returns the paper's configuration: 4 cores, 4-wide, 32KB L1 /
// 256KB L2 per core, 10MB 16-way shared L3.
func Table1() Config {
	return Config{
		Cores:       4,
		IssueWidth:  4,
		L1:          cache.Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
		L2:          cache.Config{SizeBytes: 256 << 10, LineBytes: 64, Ways: 8},
		L3:          cache.Config{SizeBytes: 10 << 20, LineBytes: 64, Ways: 16},
		L1HitCycles: 1,
		L2HitCycles: 12,
		L3HitCycles: 35,
		MLP:         4,
	}
}

// Result summarizes a run.
type Result struct {
	// Instructions is the total retired across cores.
	Instructions uint64
	// Cycles is the wall-clock of the slowest core.
	Cycles uint64
	// IPC is Instructions / Cycles / Cores — per-core IPC, matching how
	// Figure 8 reports it.
	IPC float64
	// LoadStallCycles accumulates cycles lost to load misses.
	LoadStallCycles uint64
	// L3Misses counts demand misses that reached the controller.
	L3Misses uint64
	// Writebacks counts dirty L3 evictions sent to the controller.
	Writebacks uint64
	// Prefetches counts next-line prefetches issued.
	Prefetches uint64
	// PerCore breaks the run down by core.
	PerCore []CoreResult
}

// CoreResult is one core's share of a run.
type CoreResult struct {
	Instructions uint64
	Cycles       uint64
	IPC          float64
}

type coreState struct {
	gen     trace.Generator
	l1, l2  *cache.Cache
	now     uint64
	retired uint64
	done    bool
}

// System is a multi-core trace-driven simulator.
type System struct {
	cfg   Config
	cores []*coreState
	l3    *cache.Cache
	mem   MemoryBackend
	res   Result
}

// New builds a system. gens supplies one trace per core.
func New(cfg Config, gens []trace.Generator, mem MemoryBackend) (*System, error) {
	if cfg.Cores <= 0 || cfg.IssueWidth <= 0 {
		return nil, fmt.Errorf("cpu: cores and issue width must be positive")
	}
	if len(gens) != cfg.Cores {
		return nil, fmt.Errorf("cpu: %d generators for %d cores", len(gens), cfg.Cores)
	}
	if mem == nil {
		return nil, fmt.Errorf("cpu: nil memory backend")
	}
	s := &System{cfg: cfg, mem: mem}
	l3, err := cache.New(cfg.L3)
	if err != nil {
		return nil, fmt.Errorf("cpu: L3: %w", err)
	}
	s.l3 = l3
	for i := 0; i < cfg.Cores; i++ {
		l1, err := cache.New(cfg.L1)
		if err != nil {
			return nil, fmt.Errorf("cpu: L1: %w", err)
		}
		l2, err := cache.New(cfg.L2)
		if err != nil {
			return nil, fmt.Errorf("cpu: L2: %w", err)
		}
		s.cores = append(s.cores, &coreState{gen: gens[i], l1: l1, l2: l2})
	}
	return s, nil
}

// l3Access goes to the shared L3 and, on miss, the memory controller.
// Returns data-ready cycle. Fills propagate; dirty evictions write back.
func (s *System) l3Access(now, addr uint64, dirtyFill bool) uint64 {
	res := s.l3.Access(addr, dirtyFill)
	if res.Evicted && res.EvictedDirty {
		s.res.Writebacks++
		s.mem.WriteBack(now, res.EvictedAddr)
	}
	if res.Hit {
		return now + s.cfg.L3HitCycles
	}
	s.res.L3Misses++
	return s.mem.ReadMiss(now+s.cfg.L3HitCycles, addr)
}

// l2Access goes to a core's L2 and below.
func (s *System) l2Access(c *coreState, now, addr uint64, dirtyFill bool) uint64 {
	res := c.l2.Access(addr, dirtyFill)
	if res.Evicted && res.EvictedDirty {
		// Dirty L2 victim moves into L3.
		s.l3Access(now, res.EvictedAddr, true)
	}
	if res.Hit {
		return now + s.cfg.L2HitCycles
	}
	return s.l3Access(now+s.cfg.L2HitCycles, addr, false)
}

// l1Access performs one memory instruction and returns the data-ready cycle.
func (s *System) l1Access(c *coreState, now, addr uint64, store bool) uint64 {
	res := c.l1.Access(addr, store)
	if res.Evicted && res.EvictedDirty {
		s.l2Access(c, now, res.EvictedAddr, true)
	}
	if res.Hit {
		return now + s.cfg.L1HitCycles
	}
	return s.l2Access(c, now, addr, false)
}

// cacheHasLine probes the core-visible hierarchy without disturbing state.
func (s *System) cacheHasLine(c *coreState, addr uint64) bool {
	return c.l1.Probe(addr) || c.l2.Probe(addr) || s.l3.Probe(addr)
}

// step executes one trace record on a core.
func (s *System) step(c *coreState) {
	rec, ok := c.gen.Next()
	if !ok {
		c.done = true
		return
	}
	// Non-memory instructions retire at the issue width.
	c.now += (uint64(rec.Gap) + uint64(s.cfg.IssueWidth) - 1) / uint64(s.cfg.IssueWidth)
	c.retired += uint64(rec.Gap) + 1

	addr := rec.Addr &^ 63
	if rec.Op == trace.Store {
		// Stores retire through the store buffer: traffic happens,
		// the core does not wait.
		s.l1Access(c, c.now, addr, true)
		c.now++
		return
	}
	hitBefore := s.cacheHasLine(c, addr)
	ready := s.l1Access(c, c.now, addr, false)
	if s.cfg.NextLinePrefetch && !hitBefore {
		// Pull the next line in without stalling; its traffic and
		// fills are real.
		s.l1Access(c, c.now, addr+64, false)
		s.res.Prefetches++
	}
	stall := ready - c.now
	if mlp := uint64(s.cfg.MLP); mlp > 1 && stall > s.cfg.L2HitCycles {
		// Long-latency misses overlap in the OoO window; short on-chip
		// hits are exposed as-is.
		stall = s.cfg.L2HitCycles + (stall-s.cfg.L2HitCycles)/mlp
	}
	if stall > s.cfg.L1HitCycles {
		s.res.LoadStallCycles += stall - s.cfg.L1HitCycles
	}
	c.now += stall
}

// Run executes all traces to completion and returns the result.
func (s *System) Run() Result {
	for {
		// Advance the core with the smallest local clock, keeping
		// shared-resource interleaving causal and deterministic.
		var next *coreState
		for _, c := range s.cores {
			if c.done {
				continue
			}
			if next == nil || c.now < next.now {
				next = c
			}
		}
		if next == nil {
			break
		}
		s.step(next)
	}
	for _, c := range s.cores {
		s.res.Instructions += c.retired
		if c.now > s.res.Cycles {
			s.res.Cycles = c.now
		}
		cr := CoreResult{Instructions: c.retired, Cycles: c.now}
		if c.now > 0 {
			cr.IPC = float64(c.retired) / float64(c.now)
		}
		s.res.PerCore = append(s.res.PerCore, cr)
	}
	if s.res.Cycles > 0 {
		s.res.IPC = float64(s.res.Instructions) / float64(s.res.Cycles) / float64(s.cfg.Cores)
	}
	return s.res
}

package core

import (
	"encoding/binary"
	"sync/atomic"
)

// Verified-block cache: the functional analogue of the on-chip cache slice
// that sits above the memory-encryption engine.
//
// A data block that passed MAC verification and was decrypted is trusted
// plaintext; in hardware it lives in the processor's cache hierarchy, inside
// the trust boundary, and later hits never reach the encryption engine at
// all. The counter cache (countercache.go) already models the metadata half
// of that boundary; this cache models the data half. On a hit a read pays
// neither the tree walk nor the MAC nor the AES pad — exactly like an LLC
// hit bypassing the memory controller.
//
// Concurrency: entries are epoch-versioned seqlocks, so a warm hit needs no
// lock at all. Every field of an entry is an atomic word; writers (always
// under the owning shard's lock, so at most one at a time) bump the entry's
// generation counter to an odd value, mutate, and bump it back to even.
// A lock-free reader snapshots the generation, copies the payload with
// atomic loads, and re-checks the generation: any torn read — a writer
// started or finished mid-copy — shows up as an odd or changed generation
// and the reader retries, falling back to the locked slow path after a
// bounded number of attempts. Because payload words are only ever accessed
// atomically, the protocol is race-detector-clean, and the double generation
// check makes a multi-word copy consistent without a lock.
//
// Whole-cache invalidation (tree-node tamper, metadata repair) is an O(1)
// epoch bump: entries stamp the cache epoch at install, and a probe treats
// any entry from an older epoch as empty. Eviction and epoch publication
// both run under the writer protocol, which is what keeps the lock-free
// path coherent with the fault model: every tamper/quarantine/repair path
// evicts or epoch-flushes the affected lines *before* the fault lands in
// DRAM state, so a probe that overlaps the eviction either retries (it saw
// the generation move) or is linearized before the fault landed. A reader
// can never observe stale-but-trusted plaintext after a fault is in place.
//
// Consistency points, all internal to the engine:
//   - storeBlock installs the fresh plaintext (write-allocate, so a
//     read-after-write hits);
//   - readVerified installs the just-decrypted plaintext on success;
//   - tamper/replay APIs evict or flush — injected faults land in DRAM, and
//     the campaign's job is to exercise the detection path a cold cache
//     would take, not to mask faults behind a warm one;
//   - repairMetadata flushes, so post-repair reads re-verify end to end;
//   - quarantineBlock evicts, so a poisoned block never serves cached
//     plaintext — which is also why the lock-free probe needs no quarantine
//     check: a quarantined block is by invariant never resident;
//   - a resumed engine starts cold.
//
// Group re-encryption changes ciphertext but not plaintext, so resident
// lines stay valid across counter-overflow sweeps — including the parallel
// sweep (reencrypt.go), whose workers never touch the cache; only the
// serial epilogue evicts the lines of blocks it quarantines.
//
// Every encrypting engine has one (NewEngine sizes it from the region), so a
// sharded engine has one per shard. That is the architectural point of the
// sharded design: each shard brings a private cache slice, so the aggregate
// trusted on-chip state — and with it lock-free read throughput over a fixed
// hot set — scales linearly with the partition count.

// blockCacheWords is the payload size in 64-bit words.
const blockCacheWords = BlockBytes / 8

// seqlockMaxRetries bounds a probe's retry loop. A retry only happens while
// a writer is mid-update on the same line, so more than a couple of retries
// means the line is contended and the locked slow path (which waits properly
// instead of spinning) is the right place to be.
const seqlockMaxRetries = 4

// blockCacheEntry is one direct-mapped, seqlock-protected line of verified
// plaintext.
type blockCacheEntry struct {
	// gen is the seqlock generation: odd while a writer is mid-update, even
	// and stable otherwise.
	gen atomic.Uint64
	// tag is the owning block number +1; 0 means empty.
	tag atomic.Uint64
	// epoch stamps the cache epoch at install; entries from older epochs are
	// treated as empty (O(1) whole-cache flush).
	epoch atomic.Uint64
	// pt is the verified plaintext, word-wise so lock-free readers can copy
	// it with atomic loads.
	pt [blockCacheWords]atomic.Uint64
}

// blockCache is a direct-mapped cache of verified, decrypted data blocks.
type blockCache struct {
	entries []blockCacheEntry
	mask    uint64
	epoch   atomic.Uint64
	hits    atomic.Uint64
	misses  atomic.Uint64
}

// newBlockCache builds a cache with the given power-of-two entry count.
func newBlockCache(entries int) *blockCache {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil
	}
	return &blockCache{
		entries: make([]blockCacheEntry, entries),
		mask:    uint64(entries - 1),
	}
}

// probe copies blk's verified plaintext into dst if resident, without taking
// any lock. retries reports how many torn-read restarts the seqlock needed
// (0 on the uncontended path). probe does not touch the hit/miss counters —
// the caller banks the outcome, since a miss here is re-probed by the locked
// slow path and must not be double-counted.
//
// Indexing is by the block number directly (like a physically-indexed
// cache), so a contiguous hot region up to the cache size is conflict-free.
func (c *blockCache) probe(blk uint64, dst []byte) (hit bool, retries int) {
	e := &c.entries[blk&c.mask]
	epoch := c.epoch.Load()
	for ; retries <= seqlockMaxRetries; retries++ {
		g := e.gen.Load()
		if g&1 == 1 {
			continue // writer mid-update; retry
		}
		if e.tag.Load() != blk+1 || e.epoch.Load() != epoch {
			return false, retries
		}
		var w [blockCacheWords]uint64
		for i := range w {
			w[i] = e.pt[i].Load()
		}
		if e.gen.Load() != g {
			continue // torn read; retry
		}
		for i, v := range w {
			binary.LittleEndian.PutUint64(dst[i*8:], v)
		}
		return true, retries
	}
	// Retry budget exhausted: a writer owns the line right now. Treat as a
	// miss; the locked slow path serializes behind it.
	return false, retries
}

// lookup serves blk into dst under the owning lock, banking the hit/miss
// counters. With the lock held no writer can race the probe, so the copy
// succeeds on the first attempt.
func (c *blockCache) lookup(blk uint64, dst []byte) bool {
	hit, _ := c.probe(blk, dst)
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return hit
}

// insert installs a copy of blk's verified plaintext, displacing whatever
// shared its slot. Caller holds the owning lock; the generation bumps
// publish the update to lock-free probes.
func (c *blockCache) insert(blk uint64, pt []byte) {
	e := &c.entries[blk&c.mask]
	e.gen.Add(1) // odd: writer in progress
	e.tag.Store(blk + 1)
	e.epoch.Store(c.epoch.Load())
	for i := 0; i < blockCacheWords; i++ {
		e.pt[i].Store(binary.LittleEndian.Uint64(pt[i*8:]))
	}
	e.gen.Add(1) // even: published
}

// evict drops blk's line if resident. Caller holds the owning lock. The
// generation protocol guarantees a concurrent probe either retries or
// completed before the eviction — it can never half-see it.
func (c *blockCache) evict(blk uint64) {
	e := &c.entries[blk&c.mask]
	if e.tag.Load() != blk+1 {
		return
	}
	e.gen.Add(1)
	e.tag.Store(0)
	e.gen.Add(1)
}

// flush empties the cache in O(1) by advancing the epoch: every resident
// entry is now stamped with an older epoch and probes treat it as empty.
// Probes already in flight that sampled the old epoch complete against
// pre-flush state, which linearizes them before the flush — the flush
// callers (tamper APIs, repairMetadata) all flush *before* mutating DRAM
// state, so no probe can pair stale cache contents with a landed fault.
func (c *blockCache) flush() {
	c.epoch.Add(1)
}

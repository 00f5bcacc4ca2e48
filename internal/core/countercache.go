package core

import "sync/atomic"

// Verified-counter cache: the functional analogue of the paper's Table 1
// on-chip metadata cache (32KB, 8-way in the timing model).
//
// A counter block whose image has passed its integrity-tree walk is trusted
// until evicted — that is the Bonsai Merkle tree contract: the tree
// authenticates what crosses the trust boundary, and anything already inside
// (SRAM) needs no re-verification. The seed engine re-walked the tree on
// every read; with this cache, a read whose counter block is resident skips
// the walk entirely and pays only MAC verification and decryption.
//
// Entries hold a private copy of the verified image, so later tampering with
// the DRAM copy cannot retroactively corrupt the cached one. A hit hands the
// image to the same single-slot decode a miss uses (ctr.Decode*: two loads,
// a shift, a mask, an add).
//
// Concurrency: entries carry the same epoch-versioned seqlock protocol as
// the verified-block cache (blockcache.go) — an atomic generation counter
// bumped odd/even around every mutation, an atomic tag, and an install-time
// epoch stamp so whole-cache invalidation is an O(1) epoch bump. Unlike the
// block cache, counter-cache hits stay under the shard lock: a metadata hit
// only removes the tree walk, and everything after it (MAC verification,
// keystream decryption, correction write-backs) mutates engine state the
// lock protects. The payload is therefore a plain field, accessed only with
// the lock held; the generation/epoch words exist so evictions and flushes
// publish through one protocol across both caches — the trust-boundary
// argument in DESIGN.md §6d covers them together.
//
// Consistency points, all internal to the engine:
//   - the write pipeline's deferCommit/Flush refresh the cached copy
//     (write-back cache behaviour) — the image they install always comes
//     from the trusted scheme state machine, so a resident line stays
//     trusted even while its tree leaf is dirty (the tree only vouches for
//     what crosses the boundary; a cached line never left);
//   - repairMetadata and tamper APIs flush — injected faults land in DRAM,
//     and the campaign's job is to exercise the detection path a cold
//     metadata cache would take, not to mask faults behind a warm one;
//   - a resumed engine starts cold.
//
// Every encrypting engine has one (NewEngine sizes it from the region), so a
// sharded engine has one per shard, which is the architectural point:
// private metadata caches scale linearly with shard count, exactly like
// per-core caches.

// counterCacheEntry is one direct-mapped cache line.
type counterCacheEntry struct {
	// gen/tag/epoch follow the blockCacheEntry seqlock protocol; tag is the
	// metadata block index +1 (0 means empty).
	gen   atomic.Uint64
	tag   atomic.Uint64
	epoch atomic.Uint64

	// The payload below is guarded by the owning shard's lock (see the file
	// comment); the generation protocol brackets its mutations so the line's
	// validity is still decided by atomic words alone.
	img [BlockBytes]byte
}

// counterCache is a direct-mapped cache of tree-verified counter images.
type counterCache struct {
	entries []counterCacheEntry
	mask    uint64
	epoch   atomic.Uint64
}

// newCounterCache builds a cache with the given power-of-two entry count.
func newCounterCache(entries int) *counterCache {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil
	}
	return &counterCache{
		entries: make([]counterCacheEntry, entries),
		mask:    uint64(entries - 1),
	}
}

// resident reports whether e currently holds midx under cache epoch.
func (c *counterCache) resident(e *counterCacheEntry, midx uint64) bool {
	return e.tag.Load() == midx+1 && e.epoch.Load() == c.epoch.Load()
}

// lookup returns the cached (already tree-verified) image of midx, or nil on
// miss. Caller holds the owning lock.
func (c *counterCache) lookup(midx uint64) []byte {
	e := &c.entries[midx&c.mask]
	if c.resident(e, midx) {
		return e.img[:]
	}
	return nil
}

// insert installs a copy of the just-verified image for midx, displacing
// whatever shared its slot. Caller holds the owning lock.
func (c *counterCache) insert(midx uint64, img []byte) {
	e := &c.entries[midx&c.mask]
	e.gen.Add(1)
	e.tag.Store(midx + 1)
	e.epoch.Store(c.epoch.Load())
	copy(e.img[:], img)
	e.gen.Add(1)
}

// update refreshes midx's cached copy if resident (write-back on commit).
// Non-resident blocks are not allocated: a write stream that never re-reads
// must not evict the read working set.
func (c *counterCache) update(midx uint64, img []byte) {
	e := &c.entries[midx&c.mask]
	if !c.resident(e, midx) {
		return
	}
	e.gen.Add(1)
	copy(e.img[:], img)
	e.gen.Add(1)
}

// evict drops midx if resident. Caller holds the owning lock.
func (c *counterCache) evict(midx uint64) {
	e := &c.entries[midx&c.mask]
	if !c.resident(e, midx) {
		return
	}
	e.gen.Add(1)
	e.tag.Store(0)
	e.gen.Add(1)
}

// flush empties the cache in O(1) by advancing the epoch (see
// blockCache.flush for the linearization argument).
func (c *counterCache) flush() {
	c.epoch.Add(1)
}

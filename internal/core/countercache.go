package core

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
// Concurrency: the cache is plain state guarded by the owning shard's lock.
// Every caller holds it — the engine's read and write paths, and the
// off-chip map's writes through ShardedEngine.onShard — and nothing reads
// the cache without it: a metadata hit only removes the tree walk, and
// everything after it (MAC verification, keystream decryption, correction
// write-backs) mutates engine state the lock protects. So it has no seqlock;
// whole-cache invalidation is still an O(1) epoch bump, and an entry from an
// older epoch is empty.
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
	// tag is the metadata block index +1; 0 means empty.
	tag uint64
	// epoch stamps the cache epoch at install.
	epoch uint64
	img   [BlockBytes]byte
}

// counterCache is a direct-mapped cache of tree-verified counter images.
type counterCache struct {
	entries []counterCacheEntry
	mask    uint64
	epoch   uint64
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
	return e.tag == midx+1 && e.epoch == c.epoch
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
	e.tag, e.epoch = midx+1, c.epoch
	copy(e.img[:], img)
}

// update refreshes midx's cached copy if resident (write-back on commit).
// Non-resident blocks are not allocated: a write stream that never re-reads
// must not evict the read working set.
func (c *counterCache) update(midx uint64, img []byte) {
	if e := &c.entries[midx&c.mask]; c.resident(e, midx) {
		copy(e.img[:], img)
	}
}

// evict drops midx if resident. Caller holds the owning lock.
func (c *counterCache) evict(midx uint64) {
	if e := &c.entries[midx&c.mask]; c.resident(e, midx) {
		e.tag = 0
	}
}

// flush empties the cache in O(1) by advancing the epoch. Caller holds the
// owning lock.
func (c *counterCache) flush() {
	c.epoch++
}

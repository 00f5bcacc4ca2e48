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
// under the owning shard's lock, so at most one at a time) set the entry's
// generation counter to an odd value, mutate, and set it back to even.
// An install publishes through publishLine, which on amd64 is one store
// kernel of plain MOVQs: x86-64 (TSO) keeps stores, and loads, in program
// order, so the probe's loads see the odd generation before any new word.
// A lock-free reader (probeSpan, one call per span) snapshots the
// generation, loads the payload into registers and re-checks the
// generation: any torn read — a writer started or finished mid-copy — shows
// up as an odd or changed generation and the reader retries, falling back
// to the locked slow path after a bounded number of attempts. On amd64 the
// payload loads are four 16-byte MOVOUs in an assembly kernel. They need
// not be single-copy atomic, because nothing they load is used unless the
// re-check passes, and x86-64 does not reorder loads with other loads, so
// the re-load cannot be satisfied before them: a reader that loaded any
// word of a new install also sees its odd or advanced generation. The
// probe copies into the caller's buffer only after the re-check passes, so
// a miss never writes a byte. Under the race detector publishLine and
// probeSpan are Go bodies of atomic stores and loads, so every payload word
// is accessed atomically and the detector checks the protocol; the double
// generation check makes a multi-word copy consistent without a lock.
//
// Banking: a probe banks nothing, and a lock-free span banks LockFreeHits
// only (engineShard.bank); Engine.Stats adds that count to Reads and
// DataCacheHits, so a warm hit pays one atomic add, not three.
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
//   - writeChunk installs the fresh plaintext (write-allocate, so a
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
// lines stay valid across counter-overflow sweeps; the sweep only evicts the
// lines of blocks it quarantines.
//
// Every encrypting engine has one (NewEngine sizes it from the region), so a
// sharded engine has one per shard. That is the architectural point of the
// sharded design: each shard brings a private cache slice, so the aggregate
// trusted on-chip state — and with it lock-free read throughput over a fixed
// hot set — scales linearly with the partition count.

// blockCacheWords is the payload size in 64-bit words. probeSpan unrolls the
// copy over exactly eight of them (four 16-byte moves in the kernel).
const blockCacheWords = BlockBytes / 8

const (
	_ uint = blockCacheWords - 8
	_ uint = 8 - blockCacheWords
)

// seqlockMaxRetries bounds a probe's retry loop. A retry only happens while
// a writer is mid-update on the same line, so more than a couple of retries
// means the line is contended and the locked slow path (which waits properly
// instead of spinning) is the right place to be.
const seqlockMaxRetries = 4

// The probeSpan kernel hard-codes seqlockMaxRetries+1 = 5 attempts a block.
const (
	_ uint = seqlockMaxRetries - 4
	_ uint = 4 - seqlockMaxRetries
)

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

// probeSpanGeneric is probeSpan in Go. It serves the longest resident
// prefix of dst, a span of whole blocks starting at block blk (a partial
// tail is never written), from the cache
// without taking any lock, and returns the bytes served and the torn-read
// restarts the seqlock needed (0 on the uncontended path). It banks nothing:
// the caller banks the outcome, since a miss here is re-probed by the locked
// slow path and must not be double-counted. It runs off amd64 and under the
// race detector, which cannot see the assembly kernel, and is the kernel's
// reference (TestProbeSpanMatchesGeneric).
//
// Each block makes at most seqlockMaxRetries+1 attempts, against the cache
// epoch loaded before its first one; the span stops at the first miss. A
// block's 64 bytes are written only from a snapshot the re-check validated,
// so nothing past the served prefix is touched.
//
// Indexing is by the block number directly (like a physically-indexed
// cache), so a contiguous hot region up to the cache size is conflict-free.
func probeSpanGeneric(c *blockCache, blk uint64, dst []byte) (served int, retries uint64) {
span:
	for ; served+BlockBytes <= len(dst); served, blk = served+BlockBytes, blk+1 {
		e := &c.entries[blk&c.mask]
		epoch := c.epoch.Load()
		for attempt := 0; attempt <= seqlockMaxRetries; attempt, retries = attempt+1, retries+1 {
			g := e.gen.Load()
			if g&1 == 1 {
				continue // writer mid-update; retry
			}
			if e.tag.Load() != blk+1 || e.epoch.Load() != epoch {
				break span
			}
			w0, w1, w2, w3 := e.pt[0].Load(), e.pt[1].Load(), e.pt[2].Load(), e.pt[3].Load()
			w4, w5, w6, w7 := e.pt[4].Load(), e.pt[5].Load(), e.pt[6].Load(), e.pt[7].Load()
			if e.gen.Load() != g {
				continue // torn read; retry
			}
			d := (*[BlockBytes]byte)(dst[served:])
			binary.LittleEndian.PutUint64(d[0:], w0)
			binary.LittleEndian.PutUint64(d[8:], w1)
			binary.LittleEndian.PutUint64(d[16:], w2)
			binary.LittleEndian.PutUint64(d[24:], w3)
			binary.LittleEndian.PutUint64(d[32:], w4)
			binary.LittleEndian.PutUint64(d[40:], w5)
			binary.LittleEndian.PutUint64(d[48:], w6)
			binary.LittleEndian.PutUint64(d[56:], w7)
			continue span
		}
		// Retry budget exhausted: a writer owns the line right now. Treat as
		// a miss; the locked slow path serializes behind it.
		break
	}
	return served, retries
}

// insert installs a copy of blk's verified plaintext, displacing whatever
// shared its slot. Caller holds the owning lock, which orders successive
// writers; publishLine publishes the line to lock-free probes.
func (c *blockCache) insert(blk uint64, pt []byte) {
	e := &c.entries[blk&c.mask]
	publishLine(e, e.gen.Load(), blk+1, c.epoch.Load(), (*[BlockBytes]byte)(pt))
}

// publishLineGeneric is publishLine in Go: it stores gen+1 (odd: writer in
// progress), the tag, the epoch, the eight plaintext words and gen+2 (even:
// published), in that order. It runs off amd64 and under the race detector,
// which cannot see the assembly kernel.
func publishLineGeneric(e *blockCacheEntry, gen, tag, epoch uint64, pt *[BlockBytes]byte) {
	e.gen.Store(gen + 1)
	e.tag.Store(tag)
	e.epoch.Store(epoch)
	for i := range e.pt {
		e.pt[i].Store(binary.LittleEndian.Uint64(pt[i*8:]))
	}
	e.gen.Store(gen + 2)
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

package core

import "authmem/internal/ctr"

// Cold path: gather, then compute.
//
// A block the verified-block cache does not hold costs a read or a write a
// string of line fills: the block's cache entry, its chunk's presence word,
// its ciphertext, its metadata lane, and — once per span — the counter
// cache's entry and the stored counter image. The loops take those misses
// nearly one after another: a block's loads sit behind hundreds of
// instructions of the block before (a MAC, a pad, a tree check), out of
// reach of the core's out-of-order window. gather issues one load to every
// such line of a batch of blocks back to back before the loops run, so the
// core overlaps the misses and the loops find the lines filled: group
// prefetching (Chen, Ailamaki, Gibbons and Mowry, ICDE 2004), the software
// form of MAC-in-ECC fetching the tag alongside the data instead of after
// it.
//
// gather only loads. It writes nothing but the engine's sink word, calls
// nothing that can fail, materializes nothing and counts nothing, so every
// verification, seal, count and error of the loops after it happens as it
// would without it. Go has no prefetch intrinsic: the block-cache words are
// loaded atomically (a lock-free probe may be reading them), and every
// loaded value is folded into e.sink, which keeps the compiler from
// dropping the loads. The caller holds the shard lock (or owns the engine),
// so the sink's write races nothing.

// gatherBlocks bounds one gather: a block-group, the most one writeChunk
// covers.
const gatherBlocks = ctr.GroupBlocks

// gather loads one word of each line that reading or writing the n blocks
// from first will touch (at most gatherBlocks of them): both lines of each
// block's verified-block cache entry, its chunk's presence word and, if the
// block is stored, its ciphertext and metadata lane; then the counter-cache
// entry of midx, the batch's metadata block, and its stored image if there
// is one. It leaves out what is not stored: there is nothing to fetch, and
// the first load of an arena page nothing has written yet would fault in a
// zero page only for the write that follows to fault again (a region's
// first fill would pay two faults a page instead of one).
func (e *Engine) gather(first uint64, n int, midx uint64) {
	sink := e.sink
	for j := 0; j < min(n, gatherBlocks); j++ {
		blk := first + uint64(j)
		line := &e.bc.entries[blk&e.bc.mask]
		sink ^= line.gen.Load() ^ line.pt[blockCacheWords-1].Load()
		if c, i := e.store.chunk(blk); c != nil {
			if w := c.present[i/64]; w>>(i%64)&1 == 1 {
				sink ^= w ^ c.meta[i] ^ uint64(c.data[i*BlockBytes])
			}
		}
	}
	cl := &e.cc.entries[midx&e.cc.mask]
	sink ^= cl.tag ^ uint64(cl.img[BlockBytes-1])
	if c := e.images.chunks[midx/chunkBlocks]; c != nil {
		if i := midx % chunkBlocks; c.present[i/64]>>(i%64)&1 == 1 {
			sink ^= uint64(c.data[i*BlockBytes])
		}
	}
	e.sink = sink
}

package core

import "math/bits"

// Flat slice-backed storage for the engine's DRAM-visible state.
//
// The seed engine kept five map[uint64]*... stores (ciphertext, ECC-lane
// meta, inline tags, SEC-DED bytes, counter-block images). Every access
// paid a hash + pointer chase, every write a per-block heap allocation, and
// the layout scattered a "DRAM region" across the heap. This file replaces
// them with chunked arenas: fixed-size chunks of contiguous ciphertext
// indexed directly by block number, with a presence bitmap per chunk.
//
// Chunks (64KB of data each) are materialized on first touch, so a sparse
// 512MB region does not commit 512MB up front, while a resident block costs
// one shift, one mask, and no allocation. Iteration order is ascending
// block index, which also makes persistence and scrubbing deterministic.

// chunkBlocks is the number of 64-byte blocks per arena chunk (64KB of
// ciphertext). It must be a power of two and a multiple of 64 (one
// presence-bitmap word covers 64 blocks).
const chunkBlocks = 1024

// blockChunk is one arena chunk: contiguous ciphertext plus the per-block
// 8-byte metadata lane (ECC-lane image under MACInECC, MAC tag under
// MACInline) and, for the inline placement only, the codec's check bytes.
//
// data and meta are allocations of their own, each a whole number of 8 KiB
// allocator pages (8 and 1). Inline in the struct they made a 73 856-byte
// object, which the allocator rounds up to 10 pages: a ninth of the arena
// was slack (and of the image arena an eighth).
type blockChunk struct {
	present [chunkBlocks / 64]uint64
	data    *[chunkBlocks * BlockBytes]byte
	meta    *[chunkBlocks]uint64
	check   []byte // chunkBlocks*checkBytes codec bytes; nil under MACInECC
}

// blockStore is a chunked arena over the protected region's blocks.
type blockStore struct {
	nblocks uint64
	// checkBytes is the per-block check stride (the inline codec's
	// CheckBytes; 0 under MACInECC or with encryption disabled).
	checkBytes int
	chunks     []*blockChunk
	resident   int
}

func newBlockStore(nblocks uint64, checkBytes int) *blockStore {
	return &blockStore{
		nblocks:    nblocks,
		checkBytes: checkBytes,
		chunks:     make([]*blockChunk, (nblocks+chunkBlocks-1)/chunkBlocks),
	}
}

// chunk returns the chunk holding blk, or nil if never materialized.
func (s *blockStore) chunk(blk uint64) (*blockChunk, uint64) {
	return s.chunks[blk/chunkBlocks], blk % chunkBlocks
}

// Present reports whether blk holds stored ciphertext.
func (s *blockStore) Present(blk uint64) bool {
	c, i := s.chunk(blk)
	return c != nil && c.present[i/64]>>(i%64)&1 == 1
}

// Len returns the number of resident blocks.
func (s *blockStore) Len() int { return s.resident }

// Ciphertext returns blk's 64-byte ciphertext slice, or nil if the block
// was never written. The slice points into the arena; callers may mutate it
// in place (fault repair does).
func (s *blockStore) Ciphertext(blk uint64) []byte {
	c, i := s.chunk(blk)
	if c == nil || c.present[i/64]>>(i%64)&1 == 0 {
		return nil
	}
	return c.data[i*BlockBytes : (i+1)*BlockBytes : (i+1)*BlockBytes]
}

// Materialize marks blk resident and returns its (possibly stale) 64-byte
// arena slice for the caller to overwrite.
func (s *blockStore) Materialize(blk uint64) []byte {
	ci := blk / chunkBlocks
	c := s.chunks[ci]
	if c == nil {
		c = &blockChunk{data: new([chunkBlocks * BlockBytes]byte), meta: new([chunkBlocks]uint64)}
		if s.checkBytes > 0 {
			c.check = make([]byte, chunkBlocks*s.checkBytes)
		}
		s.chunks[ci] = c
	}
	i := blk % chunkBlocks
	if c.present[i/64]>>(i%64)&1 == 0 {
		c.present[i/64] |= 1 << (i % 64)
		s.resident++
	}
	return c.data[i*BlockBytes : (i+1)*BlockBytes : (i+1)*BlockBytes]
}

// Meta returns blk's 8-byte metadata lane (zero when absent).
func (s *blockStore) Meta(blk uint64) uint64 {
	c, i := s.chunk(blk)
	if c == nil {
		return 0
	}
	return c.meta[i]
}

// SetMeta stores blk's metadata lane. The block must be resident.
func (s *blockStore) SetMeta(blk uint64, v uint64) {
	c, i := s.chunk(blk)
	c.meta[i] = v
}

// Check returns blk's codec check bytes (inline placement only). The block
// must be resident; the slice points into the arena.
func (s *blockStore) Check(blk uint64) []byte {
	c, i := s.chunk(blk)
	cb := uint64(s.checkBytes)
	return c.check[i*cb : (i+1)*cb : (i+1)*cb]
}

// forEach visits every resident block in ascending order.
func (s *blockStore) forEach(fn func(blk uint64, ct []byte, meta *uint64, check []byte)) {
	for ci, c := range s.chunks {
		if c == nil {
			continue
		}
		base := uint64(ci) * chunkBlocks
		for w, words := range c.present {
			for words != 0 {
				i := uint64(w)*64 + uint64(bits.TrailingZeros64(words))
				words &= words - 1
				var check []byte
				if c.check != nil {
					cb := uint64(s.checkBytes)
					check = c.check[i*cb : (i+1)*cb]
				}
				fn(base+i, c.data[i*BlockBytes:(i+1)*BlockBytes:(i+1)*BlockBytes], &c.meta[i], check)
			}
		}
	}
}

// imageChunk is one chunk of 64-byte counter-block images; data is its own
// page-exact allocation, as in blockChunk.
type imageChunk struct {
	present [chunkBlocks / 64]uint64
	data    *[chunkBlocks * BlockBytes]byte
}

// imageStore is a chunked arena over counter-block (metadata) images.
type imageStore struct {
	n        uint64
	chunks   []*imageChunk
	resident int
}

// zeroImage is the shared all-zero image returned for absent metadata
// blocks. Callers of Load must treat the result as read-only.
var zeroImage [BlockBytes]byte

func newImageStore(n uint64) *imageStore {
	return &imageStore{n: n, chunks: make([]*imageChunk, (n+chunkBlocks-1)/chunkBlocks)}
}

// Len returns the number of resident images.
func (s *imageStore) Len() int { return s.resident }

// Present reports whether image midx has been stored.
func (s *imageStore) Present(midx uint64) bool {
	c := s.chunks[midx/chunkBlocks]
	i := midx % chunkBlocks
	return c != nil && c.present[i/64]>>(i%64)&1 == 1
}

// Load returns the 64-byte image of metadata block midx, or the shared
// all-zero image if it was never stored. The result is read-only.
func (s *imageStore) Load(midx uint64) []byte {
	c := s.chunks[midx/chunkBlocks]
	if c == nil {
		return zeroImage[:]
	}
	i := midx % chunkBlocks
	if c.present[i/64]>>(i%64)&1 == 0 {
		return zeroImage[:]
	}
	return c.data[i*BlockBytes : (i+1)*BlockBytes : (i+1)*BlockBytes]
}

// Store marks midx resident and returns its writable 64-byte arena slice.
func (s *imageStore) Store(midx uint64) []byte {
	ci := midx / chunkBlocks
	c := s.chunks[ci]
	if c == nil {
		c = &imageChunk{data: new([chunkBlocks * BlockBytes]byte)}
		s.chunks[ci] = c
	}
	i := midx % chunkBlocks
	if c.present[i/64]>>(i%64)&1 == 0 {
		c.present[i/64] |= 1 << (i % 64)
		s.resident++
	}
	return c.data[i*BlockBytes : (i+1)*BlockBytes : (i+1)*BlockBytes]
}

// forEach visits every resident image in ascending order.
func (s *imageStore) forEach(fn func(midx uint64, img []byte)) {
	for ci, c := range s.chunks {
		if c == nil {
			continue
		}
		base := uint64(ci) * chunkBlocks
		for w, words := range c.present {
			for words != 0 {
				i := uint64(w)*64 + uint64(bits.TrailingZeros64(words))
				words &= words - 1
				fn(base+i, c.data[i*BlockBytes:(i+1)*BlockBytes:(i+1)*BlockBytes])
			}
		}
	}
}

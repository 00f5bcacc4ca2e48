// Package keystream implements the counter-mode encryption pad used for
// memory encryption.
//
// As in §2.1 of the paper, each 64-byte block is encrypted by XOR with a
// keystream generated from AES over (physical address, counter) seeds. The
// address makes pads unique across blocks; the counter makes them unique
// across writes to the same block. The critical security invariant —
// never reuse a (address, counter) pair under one key — is what the
// counter schemes in internal/ctr exist to maintain.
//
// This package is the from-scratch reference: the same pad construction as
// the production path (internal/crypto, over crypto/aes) built on the
// repository's own FIPS-197 T-table AES (internal/aes). Nothing outside
// tests seals or opens a block with it; the conformance suite and fuzz
// targets in internal/crypto hold the production pads bit-equal to these.
package keystream

import (
	"encoding/binary"
	"fmt"

	"authmem/internal/aes"
)

// BlockSize is the encryption granularity in bytes (one cache line).
const BlockSize = 64

// lanes is the number of AES blocks per pad.
const lanes = BlockSize / aes.BlockSize

// Cipher generates 64-byte keystream pads with AES-128.
//
// The block cipher is held as the concrete *aes.Cipher so the per-lane AES
// calls devirtualize and their buffers stay on the stack; Pad and XOR are
// allocation-free.
type Cipher struct {
	blk *aes.Cipher
}

// New creates a Cipher from a 16-byte AES-128 key (24/32 bytes select
// AES-192/256). The block cipher is the repository's own FIPS-197
// implementation (internal/aes), cross-validated against crypto/aes.
func New(key []byte) (*Cipher, error) {
	blk, err := aes.New(key)
	if err != nil {
		return nil, fmt.Errorf("keystream: %w", err)
	}
	return &Cipher{blk: blk}, nil
}

// generate writes the four-lane AES pad for (addr, counter) into dst,
// which must be at least BlockSize bytes.
func (c *Cipher) generate(dst []byte, addr, counter uint64) {
	var in [16]byte
	binary.LittleEndian.PutUint64(in[:8], addr)
	for lane := 0; lane < lanes; lane++ {
		// Mix the lane index into the top byte of the counter half so
		// the four AES inputs are distinct. Counters are at most 56
		// bits, so the top byte is free.
		binary.LittleEndian.PutUint64(in[8:], counter|uint64(lane)<<56)
		c.blk.Encrypt(dst[lane*16:(lane+1)*16], in[:])
	}
}

// Pad writes the 64-byte keystream for (addr, counter) into dst.
// The pad is four AES blocks over (addr, counter, lane) tuples.
func (c *Cipher) Pad(dst []byte, addr, counter uint64) error {
	if len(dst) != BlockSize {
		return fmt.Errorf("keystream: dst must be %d bytes, got %d", BlockSize, len(dst))
	}
	c.generate(dst, addr, counter)
	return nil
}

// PadN writes the keystreams of len(dst)/BlockSize contiguous blocks into
// dst: block i gets the pad for (addr + i*BlockSize, counter). This is the
// pad shape of a group re-encryption sweep, which re-pads a whole group
// under one shared counter. len(dst) must be a positive multiple of
// BlockSize.
func (c *Cipher) PadN(dst []byte, addr, counter uint64) error {
	if len(dst) == 0 || len(dst)%BlockSize != 0 {
		return fmt.Errorf("keystream: dst length %d not a positive multiple of %d", len(dst), BlockSize)
	}
	for off := 0; off < len(dst); off += BlockSize {
		c.generate(dst[off:off+BlockSize], addr+uint64(off), counter)
	}
	return nil
}

// XOR applies the keystream for (addr, counter) to src, writing into dst.
// dst and src may alias; both must be 64 bytes. Calling XOR twice with the
// same seeds is the identity, so the same call path encrypts and decrypts.
func (c *Cipher) XOR(dst, src []byte, addr, counter uint64) error {
	if len(src) != BlockSize || len(dst) != BlockSize {
		return fmt.Errorf("keystream: src/dst must be %d bytes", BlockSize)
	}
	var pad [BlockSize]byte
	c.generate(pad[:], addr, counter)
	xorBlock(dst, src, &pad)
	return nil
}

// XORBlocks applies the keystreams of len(src)/BlockSize contiguous blocks
// to src, writing into dst: block i is XORed with the pad for
// (addr + i*BlockSize, counter). dst and src must have equal length, a
// positive multiple of BlockSize, and may alias exactly (dst == src);
// partially overlapping buffers are not supported.
func (c *Cipher) XORBlocks(dst, src []byte, addr, counter uint64) error {
	if len(src) != len(dst) {
		return fmt.Errorf("keystream: src/dst length mismatch (%d vs %d)", len(src), len(dst))
	}
	if len(src) == 0 || len(src)%BlockSize != 0 {
		return fmt.Errorf("keystream: length %d not a positive multiple of %d", len(src), BlockSize)
	}
	var pad [BlockSize]byte
	for off := 0; off < len(src); off += BlockSize {
		c.generate(pad[:], addr+uint64(off), counter)
		xorBlock(dst[off:off+BlockSize], src[off:off+BlockSize], &pad)
	}
	return nil
}

// xorBlock XORs one 64-byte block word-wise. dst and src may be the same
// slice.
func xorBlock(dst, src []byte, pad *[BlockSize]byte) {
	_ = src[BlockSize-1]
	_ = dst[BlockSize-1]
	for i := 0; i < BlockSize; i += 8 {
		v := binary.LittleEndian.Uint64(src[i:]) ^ binary.LittleEndian.Uint64(pad[i:])
		binary.LittleEndian.PutUint64(dst[i:], v)
	}
}

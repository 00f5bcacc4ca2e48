// Package mac implements the 56-bit Carter-Wegman message authentication
// code the paper adopts from Intel SGX (Gueron, "Memory Encryption for
// General-Purpose Processors").
//
// The tag for a 64-byte ciphertext block C stored at physical address A
// under write counter CTR is
//
//	tag = truncate56( PolyHash_h(C) XOR PRF_k(A, CTR) )
//
// where PolyHash_h is a polynomial hash over GF(2^64) keyed by the secret
// field point h, and PRF_k is AES-128 over the (address, counter) nonce.
// Binding the counter into the tag is what makes Bonsai Merkle trees sound:
// protecting counter integrity transitively protects data integrity,
// because replaying stale data with the current counter changes the tag.
//
// 56 bits is short by general-purpose MAC standards, but as §3.2 of the
// paper argues (following SGX's analysis), forgery attempts are rate-limited
// by the memory bus of the machine under attack, which pushes expected
// forgery time to millions of years.
//
// Key is the from-scratch reference: the same construction as the production
// crypto.MAC (internal/crypto, PRF over crypto/aes) with the PRF on the
// repository's own T-table AES (internal/aes). Nothing outside tests tags a
// stored block with it; the conformance suite and fuzz targets in
// internal/crypto hold the production tags bit-equal to these. The tag-width
// constants below are shared by both.
//
// Performance: the polynomial hash is evaluated as a table-driven dot
// product. NewKey precomputes one windowed gf64.Table per key power
// h^8..h^1 (the weight of each of the block's eight words), so Tag costs
// eight table multiplies and one AES block instead of eight bit-serial
// GF(2^64) multiplications — the software stand-in for the paper's
// one-cycle hardware Carter-Wegman multiplier. The Horner-form hash over
// the bit-serial gf64.Mul is retained in tests as the reference oracle.
package mac

import (
	"encoding/binary"
	"fmt"

	"authmem/internal/aes"
	"authmem/internal/gf64"
)

// TagBits is the width of a truncated tag.
const TagBits = 56

// TagMask masks a uint64 down to a 56-bit tag.
const TagMask = (uint64(1) << TagBits) - 1

// BlockSize is the protected data granularity in bytes.
const BlockSize = 64

// blockWords is the number of 64-bit words hashed per block.
const blockWords = BlockSize / 8

// Key holds the two secrets of the Carter-Wegman construction: the
// polynomial-hash point and an AES key for the pad PRF.
//
// The prf field is the concrete cipher type rather than cipher.Block: the
// devirtualized call lets the AES input/output buffers stay on the stack,
// which is what makes Tag allocation-free.
type Key struct {
	h   uint64 // GF(2^64) hash point; must be secret and nonzero
	prf *aes.Cipher

	// pow[i] is the windowed multiplication table of h^(blockWords-i),
	// the hash weight of word i; Tag is a dot product over these tables.
	pow [blockWords]*gf64.Table
}

// NewKey derives a MAC key from 24 bytes of key material: the first 8 bytes
// seed the hash point, the remaining 16 form the AES-128 PRF key.
func NewKey(material []byte) (*Key, error) {
	if len(material) != 24 {
		return nil, fmt.Errorf("mac: key material must be 24 bytes, got %d", len(material))
	}
	h := binary.LittleEndian.Uint64(material[:8])
	if h == 0 {
		// A zero hash point would collapse the polynomial hash; any
		// fixed nonzero substitute preserves uniformity of the family.
		h = 1
	}
	blk, err := aes.New(material[8:])
	if err != nil {
		return nil, fmt.Errorf("mac: %w", err)
	}
	k := &Key{h: h, prf: blk}
	for i := 0; i < blockWords; i++ {
		k.pow[i] = gf64.NewTable(gf64.Pow(h, uint64(blockWords-i)))
	}
	return k, nil
}

// HashPoint returns the secret GF(2^64) hash point. It is exposed (within
// this module only) for the MAC-in-ECC flip-and-check accelerator, which
// precomputes per-bit tag contributions from it; hardware would wire the
// same secret into the correction engine.
func (k *Key) HashPoint() uint64 { return k.h }

// Tag computes the 56-bit tag for a 64-byte ciphertext block at the given
// physical block address and counter value. It performs no allocations.
func (k *Key) Tag(ciphertext []byte, addr uint64, counter uint64) (uint64, error) {
	if len(ciphertext) != BlockSize {
		return 0, fmt.Errorf("mac: ciphertext must be %d bytes, got %d", BlockSize, len(ciphertext))
	}
	// Dot product: word i carries hash weight h^(8-i), matching the
	// Horner form sum m[i] * x^(n-i).
	var hash uint64
	for i := 0; i < blockWords; i++ {
		hash ^= k.pow[i].Mul(binary.LittleEndian.Uint64(ciphertext[i*8:]))
	}
	return (hash ^ k.pad(addr, counter)) & TagMask, nil
}

// TagBatch computes the tags of len(tags) contiguous ciphertext blocks
// sharing one counter: block i of ciphertexts is tagged for address
// addr + i*BlockSize — the seal shape of a group re-encryption sweep and of a
// coalesced multi-block write. len(ciphertexts) must be len(tags)*BlockSize.
func (k *Key) TagBatch(tags []uint64, ciphertexts []byte, addr uint64, counter uint64) error {
	if len(ciphertexts) != len(tags)*BlockSize {
		return fmt.Errorf("mac: ciphertexts must be %d bytes for %d tags, got %d",
			len(tags)*BlockSize, len(tags), len(ciphertexts))
	}
	for i := range tags {
		t, err := k.Tag(ciphertexts[i*BlockSize:(i+1)*BlockSize], addr+uint64(i*BlockSize), counter)
		if err != nil {
			return err
		}
		tags[i] = t
	}
	return nil
}

// Verify reports whether tag authenticates the ciphertext at (addr, counter).
func (k *Key) Verify(ciphertext []byte, addr, counter, tag uint64) (bool, error) {
	want, err := k.Tag(ciphertext, addr, counter)
	if err != nil {
		return false, err
	}
	return want == tag&TagMask, nil
}

// pad computes PRF_k(addr, counter): one AES block over the nonce,
// truncated to 64 bits.
func (k *Key) pad(addr, counter uint64) uint64 {
	var in, out [16]byte
	binary.LittleEndian.PutUint64(in[:8], addr)
	binary.LittleEndian.PutUint64(in[8:], counter)
	k.prf.Encrypt(out[:], in[:])
	return binary.LittleEndian.Uint64(out[:8])
}

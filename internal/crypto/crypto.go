// Package crypto holds the engine's cipher and MAC kernels: AES-CTR pads
// and the 56-bit Carter-Wegman tag, both over crypto/aes.
//
// The paper's delta+ECC scheme spends its residual overhead in exactly these
// two kernels. There is one implementation and no selection: crypto/aes
// (AES-NI / ARMv8 crypto extensions where the CPU has them, the standard
// library's generic code elsewhere) under scalar per-block loops, with the
// GF(2^64) polynomial hash on the windowed gf64 tables. DESIGN §5b records
// the end-to-end numbers behind "scalar loops, no batching, no pad cache".
//
// internal/keystream, internal/aes and mac.Key are the from-scratch
// reference the conformance suite and the two fuzz targets hold this package
// bit-equal to; nothing outside tests seals or verifies with them.
//
// Concurrency contract: a Stream or MAC is single-owner. cipher.Block is an
// interface, so a buffer passed to Encrypt escapes; the scratch therefore
// lives in the struct (allocated once, at construction), which is what keeps
// every call here at 0 allocs/op. Callers that fan out (parallel
// re-encryption) construct one instance per worker.
package crypto

import (
	stdaes "crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"

	"authmem/internal/gf64"
	"authmem/internal/mac"
)

// BlockSize is the encryption/MAC granularity in bytes (one cache line).
const BlockSize = 64

// lanes is the number of 16-byte AES blocks per 64-byte pad.
const lanes = BlockSize / stdaes.BlockSize

// Stream generates and applies 64-byte AES-CTR keystream pads. As in §2.1
// of the paper, a block's pad is AES over (physical address, counter): the
// address makes pads unique across blocks, the counter across writes to one
// block. Never reusing an (address, counter) pair under one key is the
// invariant the counter schemes in internal/ctr exist to maintain.
type Stream struct {
	blk cipher.Block

	nonce [stdaes.BlockSize]byte
	pad   [BlockSize]byte
}

// NewStream builds a Stream from a 16-byte AES-128 key (24/32 bytes select
// AES-192/256).
func NewStream(key []byte) (*Stream, error) {
	blk, err := stdaes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("crypto: %w", err)
	}
	return &Stream{blk: blk}, nil
}

// generate writes the pad for (addr, counter) into dst: four AES blocks over
// LE64(addr) ‖ LE64(counter | lane<<56). Counters are at most 56 bits, so
// the top byte is free to make the four inputs distinct.
func (s *Stream) generate(dst []byte, addr, counter uint64) {
	binary.LittleEndian.PutUint64(s.nonce[:8], addr)
	for lane := 0; lane < lanes; lane++ {
		binary.LittleEndian.PutUint64(s.nonce[8:], counter|uint64(lane)<<56)
		s.blk.Encrypt(dst[lane*16:(lane+1)*16], s.nonce[:])
	}
}

// PadN writes the pads of len(dst)/BlockSize contiguous blocks into dst:
// block i gets the pad for (addr + i*BlockSize, counter). len(dst) must be
// a positive multiple of BlockSize.
func (s *Stream) PadN(dst []byte, addr, counter uint64) error {
	if err := checkSpanLen(len(dst)); err != nil {
		return err
	}
	for off := 0; off < len(dst); off += BlockSize {
		s.generate(dst[off:off+BlockSize], addr+uint64(off), counter)
	}
	return nil
}

// XOR applies the pad for (addr, counter) to one block. dst and src may
// alias exactly; applying it twice is the identity, so the same call
// encrypts and decrypts.
func (s *Stream) XOR(dst, src []byte, addr, counter uint64) error {
	if len(src) != BlockSize || len(dst) != BlockSize {
		return fmt.Errorf("crypto: src/dst must be %d bytes, got %d/%d", BlockSize, len(src), len(dst))
	}
	s.generate(s.pad[:], addr, counter)
	xorPad(dst, src, &s.pad)
	return nil
}

// XORBlocks applies the pads of len(src)/BlockSize contiguous blocks sharing
// one counter — the shape of a group re-encryption sweep and of a coalesced
// span write. dst and src must have equal length, a positive multiple of
// BlockSize, and may alias exactly.
func (s *Stream) XORBlocks(dst, src []byte, addr, counter uint64) error {
	if len(src) != len(dst) {
		return fmt.Errorf("crypto: src/dst length mismatch (%d vs %d)", len(src), len(dst))
	}
	if err := checkSpanLen(len(src)); err != nil {
		return err
	}
	for off := 0; off < len(src); off += BlockSize {
		s.generate(s.pad[:], addr+uint64(off), counter)
		xorPad(dst[off:off+BlockSize], src[off:off+BlockSize], &s.pad)
	}
	return nil
}

// xorPad XORs one 64-byte block with a pad, word-wise. dst and src may be
// the same slice.
func xorPad(dst, src []byte, pad *[BlockSize]byte) {
	_ = src[BlockSize-1]
	_ = dst[BlockSize-1]
	for i := 0; i < BlockSize; i += 8 {
		v := binary.LittleEndian.Uint64(src[i:]) ^ binary.LittleEndian.Uint64(pad[i:])
		binary.LittleEndian.PutUint64(dst[i:], v)
	}
}

func checkSpanLen(n int) error {
	if n == 0 || n%BlockSize != 0 {
		return fmt.Errorf("crypto: length %d not a positive multiple of %d", n, BlockSize)
	}
	return nil
}

// blockWords is the number of 64-bit words hashed per block.
const blockWords = BlockSize / 8

// MAC computes the 56-bit Carter-Wegman tag of a 64-byte ciphertext block,
//
//	tag = truncate56( PolyHash_h(C) XOR PRF_k(addr, counter) )
//
// (see internal/mac for the construction and its security argument). The
// hash is a dot product over one windowed gf64.Table per key power h^8..h^1;
// the PRF is one AES block.
type MAC struct {
	h   uint64
	blk cipher.Block
	pow [blockWords]*gf64.Table

	in, out [stdaes.BlockSize]byte
}

// NewMAC derives a MAC from 24 bytes of key material: the first 8 seed the
// hash point, the remaining 16 are the AES-128 PRF key.
func NewMAC(material []byte) (*MAC, error) {
	if len(material) != 24 {
		return nil, fmt.Errorf("crypto: MAC key material must be 24 bytes, got %d", len(material))
	}
	h := binary.LittleEndian.Uint64(material[:8])
	if h == 0 {
		// A zero hash point would collapse the polynomial hash; any fixed
		// nonzero substitute preserves uniformity of the family.
		h = 1
	}
	blk, err := stdaes.NewCipher(material[8:])
	if err != nil {
		return nil, fmt.Errorf("crypto: %w", err)
	}
	m := &MAC{h: h, blk: blk}
	for i := range m.pow {
		m.pow[i] = gf64.NewTable(gf64.Pow(h, uint64(blockWords-i)))
	}
	return m, nil
}

// HashPoint returns the secret GF(2^64) hash point, for the MAC-in-ECC
// flip-and-check contribution tables (see internal/macecc).
func (m *MAC) HashPoint() uint64 { return m.h }

// prf computes PRF_k(addr, counter): one AES block over the nonce, low 64
// bits.
func (m *MAC) prf(addr, counter uint64) uint64 {
	binary.LittleEndian.PutUint64(m.in[:8], addr)
	binary.LittleEndian.PutUint64(m.in[8:], counter)
	m.blk.Encrypt(m.out[:], m.in[:])
	return binary.LittleEndian.Uint64(m.out[:8])
}

// Tag computes the tag of one block at (addr, counter).
func (m *MAC) Tag(ciphertext []byte, addr, counter uint64) (uint64, error) {
	if len(ciphertext) != BlockSize {
		return 0, fmt.Errorf("crypto: ciphertext must be %d bytes, got %d", BlockSize, len(ciphertext))
	}
	var hash uint64
	for i := 0; i < blockWords; i++ {
		hash ^= m.pow[i].Mul(binary.LittleEndian.Uint64(ciphertext[i*8:]))
	}
	return (hash ^ m.prf(addr, counter)) & mac.TagMask, nil
}

// Verify reports whether tag authenticates the block at (addr, counter).
func (m *MAC) Verify(ciphertext []byte, addr, counter, tag uint64) (bool, error) {
	want, err := m.Tag(ciphertext, addr, counter)
	if err != nil {
		return false, err
	}
	return want == tag&mac.TagMask, nil
}

// TagBatch tags len(tags) contiguous blocks sharing one counter (block i at
// addr + i*BlockSize). len(ciphertexts) must be len(tags)*BlockSize.
func (m *MAC) TagBatch(tags []uint64, ciphertexts []byte, addr, counter uint64) error {
	if len(ciphertexts) != len(tags)*BlockSize {
		return fmt.Errorf("crypto: ciphertexts must be %d bytes for %d tags, got %d",
			len(tags)*BlockSize, len(tags), len(ciphertexts))
	}
	for i := range tags {
		// Each slice is exactly BlockSize long, the only thing Tag rejects.
		tags[i], _ = m.Tag(ciphertexts[i*BlockSize:(i+1)*BlockSize], addr+uint64(i*BlockSize), counter)
	}
	return nil
}

// Kernels and Lookup are kept for the frozen benchmark harness only:
// bench/kernels.go, which a PR may not edit, builds its unit-cost kernels
// through crypto.Lookup(cfg.CryptoBackend).NewMAC / .NewStream. No second
// value exists; the next benchmark PR removes both (ROADMAP).
type Kernels struct{}

// Lookup accepts only the empty name.
func Lookup(name string) (Kernels, error) {
	if name != "" {
		return Kernels{}, fmt.Errorf("crypto: no selectable backend (got %q): crypto/aes is the only cipher path", name)
	}
	return Kernels{}, nil
}

// NewStream calls the package's NewStream.
func (Kernels) NewStream(key []byte) (*Stream, error) { return NewStream(key) }

// NewMAC calls the package's NewMAC.
func (Kernels) NewMAC(material []byte) (*MAC, error) { return NewMAC(material) }

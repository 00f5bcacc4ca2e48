// Package crypto holds the engine's cipher and MAC kernels: AES-CTR pads
// and the 56-bit Carter-Wegman tag.
//
// The paper's delta+ECC scheme spends its residual overhead in exactly these
// two kernels. There is one implementation per platform and no selection.
// On amd64 with AES-NI (CPUID, read once) the pads and the tag's PRF run on
// one assembly kernel (aes_amd64.s): an AES-128 schedule built with
// AESKEYGENASSIST, a span loop that builds each block's four nonces in
// registers and runs the four lanes' AESENC rounds interleaved, and a
// one-block PRF. Where that instruction is missing, crypto/aes runs the
// same nonces one lane at a time. The GF(2^64) polynomial hash runs on the
// CPU's carry-less multiplier (PCLMULQDQ, gf64.PolyHash) on amd64 and on the
// windowed gf64 tables only where that instruction is missing. The choice
// follows the platform; there is no option. DESIGN §5b records the
// end-to-end numbers behind "no batching across blocks, no pad cache".
//
// The reference this package is held bit-equal to is test code: refPad and
// refTag (reference_test.go) spell the pad and the tag out once on
// crypto/aes and the bit-serial gf64.Mul, and the conformance suite, the
// goldens and the two fuzz targets compare against them.
//
// Concurrency contract: a Stream or MAC is single-owner; each engine builds
// its own pair and serializes every call, the re-encryption sweep included.
// On AES-NI the kernels are //go:noescape assembly and nothing escapes. On
// the fallback cipher.Block is an interface, so a buffer passed to Encrypt
// escapes; the scratch therefore lives in the struct (allocated once, at
// construction). Either way every call here is 0 allocs/op.
package crypto

import (
	stdaes "crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"

	"authmem/internal/ecc"
	"authmem/internal/gf64"
)

// BlockSize is the encryption/MAC granularity in bytes (one cache line).
const BlockSize = 64

// lanes is the number of 16-byte AES blocks per 64-byte pad.
const lanes = BlockSize / stdaes.BlockSize

// roundKeys is an expanded AES-128 key: the eleven round keys in the byte
// order AESENC takes them, round 0 (the cipher key itself) first.
type roundKeys [11 * stdaes.BlockSize]byte

// newAES keys AES-128 for this platform: the AES-NI kernel's schedule, or,
// where the instruction is missing, a crypto/aes cipher. key is 16 bytes.
func newAES(key []byte) (*roundKeys, cipher.Block) {
	if aesni {
		xk := new(roundKeys)
		expandKey(xk, (*[16]byte)(key))
		return xk, nil
	}
	// crypto/aes accepts every 16-byte key.
	blk, _ := stdaes.NewCipher(key)
	return nil, blk
}

// Stream generates and applies 64-byte AES-CTR keystream pads. As in §2.1
// of the paper, a block's pad is AES over (physical address, counter): the
// address makes pads unique across blocks, the counter across writes to one
// block. Never reusing an (address, counter) pair under one key is the
// invariant the counter schemes in internal/ctr exist to maintain.
type Stream struct {
	// xk is the AES-NI kernel's schedule; nil when crypto/aes runs the
	// pads (blk).
	xk  *roundKeys
	blk cipher.Block

	nonce [stdaes.BlockSize]byte
	pad   [BlockSize]byte
}

// NewStream builds a Stream from a 16-byte AES-128 key. It refuses every
// other length, 24- and 32-byte AES keys included: the engine's pads are
// AES-128, so the kernel has one schedule and one round count.
func NewStream(key []byte) (*Stream, error) {
	if len(key) != 16 {
		return nil, fmt.Errorf("crypto: Stream key must be 16 bytes (AES-128), got %d", len(key))
	}
	xk, blk := newAES(key)
	return &Stream{xk: xk, blk: blk}, nil
}

// generate writes the pad for (addr, counter) into dst on crypto/aes: four
// AES blocks over LE64(addr) ‖ LE64(counter | lane<<56). Counters are at
// most 56 bits, so the top byte is free to make the four inputs distinct.
// The AES-NI kernel builds the same four nonces.
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
	if s.xk != nil {
		clear(dst)
		xorPads(s.xk, &dst[0], &dst[0], len(dst)/BlockSize, addr, counter)
		return nil
	}
	for off := 0; off < len(dst); off += BlockSize {
		s.generate(dst[off:off+BlockSize], addr+uint64(off), counter)
	}
	return nil
}

// XORBlocks applies the pads of len(src)/BlockSize contiguous blocks sharing
// one counter — one block on the read path, a run of blocks in a span write
// or a group re-encryption sweep. dst and src must have equal length, a
// positive multiple of BlockSize, and may alias exactly; applying the pads
// twice is the identity, so the same call encrypts and decrypts. On AES-NI
// the whole span is one kernel call.
func (s *Stream) XORBlocks(dst, src []byte, addr, counter uint64) error {
	if len(src) != len(dst) {
		return fmt.Errorf("crypto: src/dst length mismatch (%d vs %d)", len(src), len(dst))
	}
	if err := checkSpanLen(len(src)); err != nil {
		return err
	}
	if s.xk != nil {
		xorPads(s.xk, &dst[0], &src[0], len(src)/BlockSize, addr, counter)
		return nil
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

// MAC computes the 56-bit Carter-Wegman tag of a 64-byte ciphertext block,
//
//	tag = truncate56( PolyHash_h(C) XOR PRF_k(addr, counter) )
//
// where PolyHash_h(C) = c0·h^8 ⊕ c1·h^7 ⊕ … ⊕ c7·h over the block's eight
// little-endian words. This is the construction the paper adopts from Intel
// SGX (Gueron, "Memory Encryption for General-Purpose Processors"). Binding
// the counter into the tag is what makes Bonsai Merkle trees sound: a
// replay of stale data under the current counter changes the tag. 56 bits
// is short for a general-purpose MAC, but as §3.2 argues, forgery attempts
// are rate-limited by the memory bus of the machine under attack.
//
// Where the CPU has a carry-less multiplier (gf64.CLMUL) the hash is
// gf64.PolyHash over the eight powers h^8…h: eight PCLMULQDQ products and
// one reduction, constant-time, and NewMAC builds no tables. Elsewhere it
// runs as two interleaved Horner chains in h², one over the even words and
// one over the odd:
//
//	a = c0·h^6 ⊕ c2·h^4 ⊕ c4·h^2 ⊕ c6
//	b = c1·h^6 ⊕ c3·h^4 ⊕ c5·h^2 ⊕ c7
//	PolyHash_h(C) = h²·a ⊕ h·b
//
// on two 8-bit-windowed gf64.Tables (h² and h), so the two chains'
// dependent multiplies overlap. The PRF is one AES-128 block: the AES-NI
// kernel's prfBlock where the CPU has it, crypto/aes elsewhere.
type MAC struct {
	h uint64
	// xk is the PRF's AES-NI schedule; nil when crypto/aes runs it (blk).
	xk  *roundKeys
	blk cipher.Block
	pow [8]uint64 // h^8, h^7, …, h: gf64.PolyHash's multiplicands
	// h2, h1 are the fallback's tables; nil when the hash runs on CLMUL.
	h2, h1 *gf64.Table

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
	m := &MAC{h: h}
	m.xk, m.blk = newAES(material[8:])
	p := h
	for i := len(m.pow) - 1; i >= 0; i-- {
		m.pow[i] = p
		p = gf64.Mul(p, h)
	}
	if !gf64.CLMUL {
		m.buildTables()
	}
	return m, nil
}

// buildTables switches the hash to the two-chain table path.
func (m *MAC) buildTables() {
	m.h2, m.h1 = gf64.NewTable(m.pow[6]), gf64.NewTable(m.pow[7])
}

// HashPoint returns the secret GF(2^64) hash point, for the MAC-in-ECC
// flip-and-check contribution tables (see internal/macecc).
func (m *MAC) HashPoint() uint64 { return m.h }

// prf computes PRF_k(addr, counter): one AES block over the nonce, low 64
// bits.
func (m *MAC) prf(addr, counter uint64) uint64 {
	if m.xk != nil {
		return prfBlock(m.xk, addr, counter)
	}
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
	return (m.hash((*[BlockSize]byte)(ciphertext)) ^ m.prf(addr, counter)) & ecc.TagMask, nil
}

// hash returns PolyHash_h(c): the CLMUL kernel, or the two table chains.
func (m *MAC) hash(c *[BlockSize]byte) uint64 {
	if m.h1 == nil {
		return gf64.PolyHash(&m.pow, c)
	}
	var a, b uint64
	for i := 0; i < BlockSize; i += 16 {
		a = m.h2.Mul(a) ^ binary.LittleEndian.Uint64(c[i:])
		b = m.h2.Mul(b) ^ binary.LittleEndian.Uint64(c[i+8:])
	}
	return m.h2.Mul(a) ^ m.h1.Mul(b)
}

// Verify reports whether tag authenticates the block at (addr, counter).
func (m *MAC) Verify(ciphertext []byte, addr, counter, tag uint64) (bool, error) {
	want, err := m.Tag(ciphertext, addr, counter)
	if err != nil {
		return false, err
	}
	return want == tag&ecc.TagMask, nil
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
		return Kernels{}, fmt.Errorf("crypto: no selectable backend (got %q): this package is the only cipher path", name)
	}
	return Kernels{}, nil
}

// NewStream calls the package's NewStream.
func (Kernels) NewStream(key []byte) (*Stream, error) { return NewStream(key) }

// NewMAC calls the package's NewMAC.
func (Kernels) NewMAC(material []byte) (*MAC, error) { return NewMAC(material) }

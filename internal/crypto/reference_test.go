package crypto_test

// The reference the production kernels are held to: the §2.1 pad and the
// §3.2 tag, each spelled out once on stdlib crypto/aes and the bit-serial
// gf64.Mul, sharing no code with crypto.go. The conformance suite, the
// golden vectors and the two fuzz targets compare crypto.Stream and
// crypto.MAC against these.

import (
	stdaes "crypto/aes"
	"encoding/binary"
	"testing"

	"authmem/internal/ecc"
	"authmem/internal/gf64"
)

// refPad writes the pad of the block at (addr, counter) under a 16-byte
// AES-128 key into dst[:blockSize]: lane i is AES over
// LE64(addr) ‖ LE64(counter | i<<56).
func refPad(tb testing.TB, key, dst []byte, addr, counter uint64) {
	tb.Helper()
	blk, err := stdaes.NewCipher(key)
	if err != nil {
		tb.Fatal(err)
	}
	var nonce [16]byte
	binary.LittleEndian.PutUint64(nonce[:8], addr)
	for lane := 0; lane < blockSize/16; lane++ {
		binary.LittleEndian.PutUint64(nonce[8:], counter|uint64(lane)<<56)
		blk.Encrypt(dst[16*lane:16*(lane+1)], nonce[:])
	}
}

// refTag is the tag of one 64-byte block under 24 bytes of key material:
// (Horner_h(c0, …, c7) ⊕ PRF(addr, counter)) truncated to ecc.TagBits, with
// h the material's first 8 bytes (0 replaced by 1) and the PRF the low 64
// bits of AES-128, keyed by the other 16, over LE64(addr) ‖ LE64(counter).
func refTag(tb testing.TB, material, ct []byte, addr, counter uint64) uint64 {
	tb.Helper()
	h := max(binary.LittleEndian.Uint64(material[:8]), 1)
	var hash uint64
	for i := 0; i < blockSize; i += 8 {
		hash = gf64.Mul(hash^binary.LittleEndian.Uint64(ct[i:]), h)
	}
	blk, err := stdaes.NewCipher(material[8:24])
	if err != nil {
		tb.Fatal(err)
	}
	var in, out [16]byte
	binary.LittleEndian.PutUint64(in[:8], addr)
	binary.LittleEndian.PutUint64(in[8:], counter)
	blk.Encrypt(out[:], in[:])
	return (hash ^ binary.LittleEndian.Uint64(out[:8])) & ecc.TagMask
}

package crypto

import (
	"bytes"
	stdaes "crypto/aes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// streamPair returns the Stream NewStream builds from key (the AES-NI
// kernel on a CPU that has it) and one over the same key on crypto/aes's
// per-lane loop.
func streamPair(tb testing.TB, key []byte) (kernel, std *Stream) {
	tb.Helper()
	s, err := NewStream(key)
	if err != nil {
		tb.Fatal(err)
	}
	if !aesni {
		tb.Skip("no AES-NI: NewStream runs crypto/aes, which the conformance suite covers")
	}
	if s.xk == nil || s.blk != nil {
		tb.Fatal("NewStream did not pick the AES-NI kernel on an AES-NI CPU")
	}
	blk, err := stdaes.NewCipher(key)
	if err != nil {
		tb.Fatal(err)
	}
	return s, &Stream{blk: blk}
}

// encryptLane0 is one AES block on the kernel: lane 0 of a pad is AES over
// LE64(addr) ‖ LE64(counter | 0), so any 16-byte input is a nonce.
func encryptLane0(s *Stream, in []byte) []byte {
	pad := make([]byte, BlockSize)
	if err := s.PadN(pad, binary.LittleEndian.Uint64(in[:8]), binary.LittleEndian.Uint64(in[8:])); err != nil {
		panic(err)
	}
	return pad[:stdaes.BlockSize]
}

// TestAESNIMatchesStdlib holds the AES-NI kernel to FIPS-197 and to
// crypto/aes: the key schedule, the span kernel behind XORBlocks and PadN,
// and the MAC's one-block PRF.
func TestAESNIMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(39))

	t.Run("schedule", func(t *testing.T) {
		// FIPS-197 Appendix A.1: the expansion of a 128-bit cipher key,
		// rounds 0 to 10.
		key, _ := hex.DecodeString("2b7e151628aed2a6abf7158809cf4f3c")
		want := "2b7e151628aed2a6abf7158809cf4f3c" +
			"a0fafe1788542cb123a339392a6c7605" +
			"f2c295f27a96b9435935807a7359f67f" +
			"3d80477d4716fe3e1e237e446d7a883b" +
			"ef44a541a8525b7fb671253bdb0bad00" +
			"d4d1c6f87c839d87caf2b8bc11f915bc" +
			"6d88a37a110b3efddbf98641ca0093fd" +
			"4e54f70e5f5fc9f384a64fb24ea6dc4f" +
			"ead27321b58dbad2312bf5607f8d292f" +
			"ac7766f319fadc2128d12941575c006e" +
			"d014f9a8c9ee2589e13f0cc8b6630ca6"
		s, _ := streamPair(t, key)
		if got := hex.EncodeToString(s.xk[:]); got != want {
			t.Fatalf("schedule of the A.1 key\n got %s\nwant %s", got, want)
		}
		// FIPS-197 Appendix C.1: one AES-128 block.
		key, _ = hex.DecodeString("000102030405060708090a0b0c0d0e0f")
		in, _ := hex.DecodeString("00112233445566778899aabbccddeeff")
		s, _ = streamPair(t, key)
		if got := hex.EncodeToString(encryptLane0(s, in)); got != "69c4e0d86a7b0430d8cdb78070b4c55a" {
			t.Fatalf("C.1 ciphertext %s", got)
		}
		// Random keys: round 0 is the key, and the kernel's AES agrees with
		// crypto/aes on random blocks.
		in = make([]byte, stdaes.BlockSize)
		want16 := make([]byte, stdaes.BlockSize)
		for trial := 0; trial < 200; trial++ {
			rng.Read(key)
			s, std := streamPair(t, key)
			if !bytes.Equal(s.xk[:16], key) {
				t.Fatalf("round key 0 %x, key %x", s.xk[:16], key)
			}
			for i := 0; i < 8; i++ {
				rng.Read(in)
				std.blk.Encrypt(want16, in)
				if got := encryptLane0(s, in); !bytes.Equal(got, want16) {
					t.Fatalf("key %x block %x: kernel %x, crypto/aes %x", key, in, got, want16)
				}
			}
		}
	})

	t.Run("spans", func(t *testing.T) {
		key := make([]byte, 16)
		rng.Read(key)
		s, std := streamPair(t, key)
		const maxBlocks = 130
		src := make([]byte, maxBlocks*BlockSize)
		got := make([]byte, len(src))
		want := make([]byte, len(src))
		pairs := [][2]uint64{
			{0, 0},
			{64, 1<<56 - 1},
			{^uint64(0) &^ 63, 5},              // the second block wraps to address 0
			{^uint64(0) - 64*64 + 1, 1 << 55},  // wraps mid-span
			{1 << 40, 0x0100000000000000},      // counter top byte set: the lane tag is ORed
			{0x1000, 0xFF00000000000001},       // every lane ORs into 0xFF
			{rng.Uint64() &^ 63, rng.Uint64()}, // anything, top byte included
		}
		for _, p := range pairs {
			addr, ctr := p[0], p[1]
			for n := 1; n <= maxBlocks; n++ {
				span := n * BlockSize
				rng.Read(src[:span])
				check := func(what string, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if !bytes.Equal(got[:span], want[:span]) {
						t.Fatalf("%s(addr=%#x ctr=%#x n=%d) diverges from crypto/aes", what, addr, ctr, n)
					}
				}
				if err := std.XORBlocks(want[:span], src[:span], addr, ctr); err != nil {
					t.Fatal(err)
				}
				check("XORBlocks", s.XORBlocks(got[:span], src[:span], addr, ctr))
				copy(got, src[:span])
				check("aliased XORBlocks", s.XORBlocks(got[:span], got[:span], addr, ctr))

				if err := std.PadN(want[:span], addr, ctr); err != nil {
					t.Fatal(err)
				}
				copy(got, src[:span]) // PadN must not depend on what dst held
				check("PadN", s.PadN(got[:span], addr, ctr))
			}
		}
	})

	t.Run("prf", func(t *testing.T) {
		if !aesni {
			t.Skip("no AES-NI: NewMAC runs the PRF on crypto/aes, which the conformance suite covers")
		}
		material := make([]byte, 24)
		for trial := 0; trial < 50; trial++ {
			rng.Read(material)
			m, err := NewMAC(material)
			if err != nil {
				t.Fatal(err)
			}
			if m.xk == nil || m.blk != nil {
				t.Fatal("NewMAC did not pick the AES-NI PRF on an AES-NI CPU")
			}
			blk, err := stdaes.NewCipher(material[8:])
			if err != nil {
				t.Fatal(err)
			}
			std := *m
			std.xk, std.blk = nil, blk
			for i := 0; i < 64; i++ {
				addr, ctr := rng.Uint64(), rng.Uint64()
				if i == 0 {
					addr, ctr = 0, 0
				}
				if got, want := m.prf(addr, ctr), std.prf(addr, ctr); got != want {
					t.Fatalf("PRF(%#x, %#x) = %#x, crypto/aes %#x", addr, ctr, got, want)
				}
			}
		}
	})
}

// BenchmarkPad applies the pads of 1, 4 and 64 blocks in place — a read's
// block, a four-block span, a counter group's re-encryption — on each cipher
// path; ns/op is per span.
func BenchmarkPad(b *testing.B) {
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(i*29 + 3)
	}
	s, err := NewStream(key)
	if err != nil {
		b.Fatal(err)
	}
	blk, err := stdaes.NewCipher(key)
	if err != nil {
		b.Fatal(err)
	}
	paths := []struct {
		name string
		s    *Stream
	}{{"aesni", s}, {"stdlib", &Stream{blk: blk}}}
	buf := make([]byte, 64*BlockSize)
	for _, p := range paths {
		b.Run(p.name, func(b *testing.B) {
			if p.name == "aesni" && !aesni {
				b.Skip("no AES-NI")
			}
			for _, n := range []int{1, 4, 64} {
				b.Run(fmt.Sprint(n), func(b *testing.B) {
					span := buf[:n*BlockSize]
					b.SetBytes(int64(len(span)))
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := p.s.XORBlocks(span, span, uint64(i)*BlockSize, 7); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

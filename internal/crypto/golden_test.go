package crypto_test

// Known answers: FIPS-197's AES vectors and the repository's stored-bit
// goldens. Each runs on whichever path NewStream and NewMAC pick — the AES-NI
// kernel on amd64, crypto/aes elsewhere (CI runs this package under
// GOARCH=386 too).

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"authmem/internal/crypto"
)

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// lane0Block is one AES-128 block through Stream.PadN: lane 0 of the pad
// for (addr, counter) is AES over LE64(addr) ‖ LE64(counter), so any 16-byte
// input is a nonce.
func lane0Block(t testing.TB, key, in []byte) []byte {
	t.Helper()
	s, err := crypto.NewStream(key)
	if err != nil {
		t.Fatal(err)
	}
	pad := make([]byte, blockSize)
	if err := s.PadN(pad, binary.LittleEndian.Uint64(in[:8]), binary.LittleEndian.Uint64(in[8:])); err != nil {
		t.Fatal(err)
	}
	return pad[:16]
}

// TestFIPS197Vectors pins the appendix-C known-answer tests. The pads are
// AES-128 only, so C.1 runs through the stream and the C.2 and C.3 keys
// (AES-192, AES-256) must be refused.
func TestFIPS197Vectors(t *testing.T) {
	pt := mustHex(t, "00112233445566778899aabbccddeeff")
	cases := []struct{ key, ct string }{
		{"000102030405060708090a0b0c0d0e0f",
			"69c4e0d86a7b0430d8cdb78070b4c55a"},
		{"000102030405060708090a0b0c0d0e0f1011121314151617",
			"dda97ca4864cdfe06eaf70a0ec0d7191"},
		{"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
			"8ea2b7ca516745bfeafc49904b496089"},
	}
	for _, c := range cases {
		key := mustHex(t, c.key)
		if len(key) != 16 {
			if _, err := crypto.NewStream(key); err == nil {
				t.Errorf("NewStream accepted the %d-byte key %s", len(key), c.key)
			}
			continue
		}
		if got := lane0Block(t, key, pt); !bytes.Equal(got, mustHex(t, c.ct)) {
			t.Fatalf("key %s: got %x, want %s", c.key, got, c.ct)
		}
	}
}

// TestAppendixB pins the FIPS-197 appendix-B worked example.
func TestAppendixB(t *testing.T) {
	got := lane0Block(t, mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c"), mustHex(t, "3243f6a8885a308d313198a2e0370734"))
	if want := mustHex(t, "3925841d02dc09fbdc118597196a0b32"); !bytes.Equal(got, want) {
		t.Fatalf("got %x, want %x", got, want)
	}
}

// TestGoldenPad pins the pad for a fixed key and seed, on crypto.Stream
// (which seals every stored block) and on the reference. Persisted NVMM
// images embed ciphertext produced by this pad; a change here breaks stored
// images.
func TestGoldenPad(t *testing.T) {
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(i + 1)
	}
	prod, err := crypto.NewStream(key)
	if err != nil {
		t.Fatal(err)
	}
	const want = "68e1bce720b39ac16ab3b68ed709071d"
	for name, padN := range map[string]func(dst []byte, addr, counter uint64) error{
		"crypto.Stream": prod.PadN,
		"reference": func(dst []byte, addr, counter uint64) error {
			refPad(t, key, dst, addr, counter)
			return nil
		},
	} {
		pad := make([]byte, blockSize)
		if err := padN(pad, 0x40, 7); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(pad[:16]); got != want {
			t.Fatalf("%s: pad prefix %s, want %s", name, got, want)
		}
	}
}

// TestGoldenTags pins tag values for a fixed key and inputs, on crypto.MAC
// (which tags every stored block) and on the reference. Persisted NVMM
// images embed these MACs, so a change here breaks stored images: bump the
// persistence format if these must move.
func TestGoldenTags(t *testing.T) {
	material := make([]byte, 24)
	for i := range material {
		material[i] = byte(i*7 + 3)
	}
	prod, err := crypto.NewMAC(material)
	if err != nil {
		t.Fatal(err)
	}
	ct := make([]byte, blockSize)
	for i := range ct {
		ct[i] = byte(i)
	}
	golden := []struct {
		addr, ctr, tag uint64
	}{
		{0x0, 0, 0x00e395f701fd4f0d},
		{0x1000, 1, 0x005a8156e4cc7d95},
		{0xffffc0, 123456, 0x0037848c3a55993c},
	}
	for name, tagOf := range map[string]func(ct []byte, addr, counter uint64) (uint64, error){
		"crypto.MAC": prod.Tag,
		"reference": func(ct []byte, addr, counter uint64) (uint64, error) {
			return refTag(t, material, ct, addr, counter), nil
		},
	} {
		for _, g := range golden {
			tag, err := tagOf(ct, g.addr, g.ctr)
			if err != nil {
				t.Fatal(err)
			}
			if tag != g.tag {
				t.Fatalf("%s: tag(%#x,%d) = %#016x, want %#016x", name, g.addr, g.ctr, tag, g.tag)
			}
		}
	}
}

package mac

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"authmem/internal/ecc"
	"authmem/internal/gf64"
)

// naiveMulTag is the textbook evaluation of the same construction: a
// Horner-form polynomial hash over the bit-serial gf64.Mul, plus the AES
// pad. It shares no code with the table-driven dot product in Tag (beyond
// the pad PRF, which both must use by definition), so agreement pins the
// windowed-table path — including table construction in NewKey — against
// first principles.
func naiveMulTag(k *Key, ciphertext []byte, addr, counter uint64) uint64 {
	var hash uint64
	for i := 0; i < blockWords; i++ {
		hash = gf64.Mul(hash^binary.LittleEndian.Uint64(ciphertext[i*8:]), k.h)
	}
	return (hash ^ k.pad(addr, counter)) & ecc.TagMask
}

// TestTagDifferential cross-checks mac.Tag against the naive reference on
// 10k messages: structured edge patterns first (the all-zero block, single
// nonzero words in each position, short tails where only the first n words
// are populated, single-bit messages, all-ones), then random blocks under
// random addresses and counters.
func TestTagDifferential(t *testing.T) {
	material := make([]byte, 24)
	for i := range material {
		material[i] = byte(i*29 + 3)
	}
	k, err := NewKey(material)
	if err != nil {
		t.Fatal(err)
	}
	// A second key with a different hash point, so agreement is not an
	// artifact of one lucky h.
	material[0] ^= 0xA5
	k2, err := NewKey(material)
	if err != nil {
		t.Fatal(err)
	}

	check := func(msg []byte, addr, counter uint64) {
		t.Helper()
		for _, key := range []*Key{k, k2} {
			got, err := key.Tag(msg, addr, counter)
			if err != nil {
				t.Fatal(err)
			}
			if want := naiveMulTag(key, msg, addr, counter); got != want {
				t.Fatalf("Tag mismatch: got %#x want %#x\nmsg %x addr %#x counter %d", got, want, msg, addr, counter)
			}
		}
	}

	msg := make([]byte, BlockSize)
	cases := 0

	// Empty message.
	check(msg, 0, 0)
	cases++

	// Exactly one nonzero word, in each position, with edge values.
	for w := 0; w < blockWords; w++ {
		for _, v := range []uint64{1, 0x8000000000000000, ^uint64(0), 0x0123456789ABCDEF} {
			clear(msg)
			binary.LittleEndian.PutUint64(msg[w*8:], v)
			check(msg, uint64(w)*64, uint64(v&0xFF))
			cases++
		}
	}

	// Short tails: only the first n words populated, n = 0..8 — the
	// pattern a partially filled cache line produces.
	rng := rand.New(rand.NewSource(77))
	for n := 0; n <= blockWords; n++ {
		clear(msg)
		for w := 0; w < n; w++ {
			binary.LittleEndian.PutUint64(msg[w*8:], rng.Uint64())
		}
		check(msg, uint64(n), uint64(n)<<32)
		cases++
	}
	// And the mirror image: only the last n words populated.
	for n := 0; n <= blockWords; n++ {
		clear(msg)
		for w := blockWords - n; w < blockWords; w++ {
			binary.LittleEndian.PutUint64(msg[w*8:], rng.Uint64())
		}
		check(msg, uint64(n)<<20, uint64(n))
		cases++
	}

	// Every single-bit message.
	for bit := 0; bit < BlockSize*8; bit++ {
		clear(msg)
		msg[bit/8] = 1 << uint(bit%8)
		check(msg, 0x1000, uint64(bit))
		cases++
	}

	// Random blocks to 10k total, with random (addr, counter) including
	// extremes.
	for ; cases < 10_000; cases++ {
		rng.Read(msg)
		addr := rng.Uint64()
		counter := rng.Uint64()
		switch cases % 97 {
		case 0:
			addr, counter = 0, 0
		case 1:
			addr, counter = ^uint64(0), ^uint64(0)
		}
		check(msg, addr, counter)
	}
}

// TestTagRejectsBadLength pins the only input the reference cannot model:
// Tag must refuse non-block-sized messages rather than guess a padding.
func TestTagRejectsBadLength(t *testing.T) {
	material := make([]byte, 24)
	for i := range material {
		material[i] = byte(i + 1)
	}
	k, err := NewKey(material)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 63, 65, 128} {
		if _, err := k.Tag(make([]byte, n), 0, 0); err == nil {
			t.Errorf("Tag accepted %d-byte message", n)
		}
	}
}

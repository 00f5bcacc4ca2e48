package keystream

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"

	"authmem/internal/crypto"
)

func testCipher(t testing.TB) *Cipher {
	t.Helper()
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(i + 1)
	}
	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadKey(t *testing.T) {
	for _, n := range []int{0, 8, 15, 17} {
		if _, err := New(make([]byte, n)); err == nil {
			t.Errorf("New with %d-byte key should fail", n)
		}
	}
	// 24/32-byte keys are valid AES variants and should be accepted.
	for _, n := range []int{24, 32} {
		if _, err := New(make([]byte, n)); err != nil {
			t.Errorf("New with %d-byte key failed: %v", n, err)
		}
	}
}

func TestPadSizeChecks(t *testing.T) {
	c := testCipher(t)
	if err := c.Pad(make([]byte, 32), 0, 0); err == nil {
		t.Fatal("short dst should fail")
	}
	if err := c.XOR(make([]byte, 64), make([]byte, 32), 0, 0); err == nil {
		t.Fatal("short src should fail")
	}
}

func TestXORRoundTrip(t *testing.T) {
	c := testCipher(t)
	f := func(seed int64, addr, ctr uint64) bool {
		rng := rand.New(rand.NewSource(seed))
		pt := make([]byte, BlockSize)
		rng.Read(pt)
		ct := make([]byte, BlockSize)
		if err := c.XOR(ct, pt, addr, ctr); err != nil {
			return false
		}
		back := make([]byte, BlockSize)
		if err := c.XOR(back, ct, addr, ctr); err != nil {
			return false
		}
		return bytes.Equal(back, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestXORInPlace(t *testing.T) {
	c := testCipher(t)
	pt := make([]byte, BlockSize)
	rand.New(rand.NewSource(1)).Read(pt)
	buf := append([]byte(nil), pt...)
	if err := c.XOR(buf, buf, 7, 9); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, pt) {
		t.Fatal("in-place XOR left plaintext unchanged")
	}
	if err := c.XOR(buf, buf, 7, 9); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pt) {
		t.Fatal("in-place round trip failed")
	}
}

func TestPadUniqueAcrossAddresses(t *testing.T) {
	c := testCipher(t)
	a := make([]byte, BlockSize)
	b := make([]byte, BlockSize)
	if err := c.Pad(a, 0x1000, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Pad(b, 0x1040, 5); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("same pad for different addresses")
	}
}

func TestPadUniqueAcrossCounters(t *testing.T) {
	c := testCipher(t)
	a := make([]byte, BlockSize)
	b := make([]byte, BlockSize)
	if err := c.Pad(a, 0x1000, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Pad(b, 0x1000, 6); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("same pad for different counters")
	}
}

func TestPadLanesDistinct(t *testing.T) {
	// The four 16-byte AES lanes within one pad must differ, otherwise
	// the pad would leak equality of plaintext quarters.
	c := testCipher(t)
	pad := make([]byte, BlockSize)
	if err := c.Pad(pad, 0x2000, 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if bytes.Equal(pad[i*16:(i+1)*16], pad[j*16:(j+1)*16]) {
				t.Fatalf("pad lanes %d and %d identical", i, j)
			}
		}
	}
}

func TestPadDeterministic(t *testing.T) {
	c := testCipher(t)
	a := make([]byte, BlockSize)
	b := make([]byte, BlockSize)
	if err := c.Pad(a, 42, 42); err != nil {
		t.Fatal(err)
	}
	if err := c.Pad(b, 42, 42); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("pad is not deterministic")
	}
}

// TestPadByteDistribution is a coarse statistical sanity check: over many
// pads, each byte position should be close to uniform (chi-square over 256
// bins stays below a generous threshold).
func TestPadByteDistribution(t *testing.T) {
	c := testCipher(t)
	const pads = 4096
	var counts [256]uint64
	buf := make([]byte, BlockSize)
	for i := 0; i < pads; i++ {
		if err := c.Pad(buf, uint64(i)*64, uint64(i)); err != nil {
			t.Fatal(err)
		}
		for _, b := range buf {
			counts[b]++
		}
	}
	total := float64(pads * BlockSize)
	expected := total / 256
	var chi2 float64
	for _, n := range counts {
		d := float64(n) - expected
		chi2 += d * d / expected
	}
	// 255 degrees of freedom; mean 255, stddev ~22.6. 400 is ~6 sigma.
	if chi2 > 400 {
		t.Fatalf("keystream bytes non-uniform: chi2 = %.1f", chi2)
	}
}

// TestPadBitBalance checks the monobit property: about half of all
// keystream bits are set.
func TestPadBitBalance(t *testing.T) {
	c := testCipher(t)
	var ones, total int
	buf := make([]byte, BlockSize)
	for i := 0; i < 2048; i++ {
		if err := c.Pad(buf, uint64(i)*64, 7); err != nil {
			t.Fatal(err)
		}
		for _, b := range buf {
			for bit := 0; bit < 8; bit++ {
				if b>>uint(bit)&1 == 1 {
					ones++
				}
				total++
			}
		}
	}
	frac := float64(ones) / float64(total)
	if frac < 0.495 || frac > 0.505 {
		t.Fatalf("keystream bit balance %.4f, want ~0.5", frac)
	}
}

// TestPadNMatchesPad proves the batch pad equal to per-block Pad calls.
func TestPadNMatchesPad(t *testing.T) {
	c := testCipher(t)
	for _, nblocks := range []int{1, 2, 7, 64} {
		batch := make([]byte, nblocks*BlockSize)
		if err := c.PadN(batch, 0x8000, 11); err != nil {
			t.Fatal(err)
		}
		one := make([]byte, BlockSize)
		for i := 0; i < nblocks; i++ {
			if err := c.Pad(one, 0x8000+uint64(i)*BlockSize, 11); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(one, batch[i*BlockSize:(i+1)*BlockSize]) {
				t.Fatalf("PadN block %d of %d differs from Pad", i, nblocks)
			}
		}
	}
}

func TestPadNSizeChecks(t *testing.T) {
	c := testCipher(t)
	for _, n := range []int{0, 32, 65, 100} {
		if err := c.PadN(make([]byte, n), 0, 0); err == nil {
			t.Errorf("PadN with %d bytes should fail", n)
		}
	}
	if err := c.XORBlocks(make([]byte, 64), make([]byte, 128), 0, 0); err == nil {
		t.Error("XORBlocks length mismatch should fail")
	}
	if err := c.XORBlocks(make([]byte, 96), make([]byte, 96), 0, 0); err == nil {
		t.Error("XORBlocks non-multiple length should fail")
	}
}

// TestXORBlocksMatchesScalarXOR proves the batch XOR equal to per-block
// scalar XOR, in both the separate-buffer and the exactly-aliasing
// (dst == src) arrangements.
func TestXORBlocksMatchesScalarXOR(t *testing.T) {
	c := testCipher(t)
	rng := rand.New(rand.NewSource(9))
	for _, nblocks := range []int{1, 3, 64} {
		src := make([]byte, nblocks*BlockSize)
		rng.Read(src)
		const addr, ctr = 0x4000, 21

		// Reference: scalar XOR block by block.
		want := make([]byte, len(src))
		for i := 0; i < nblocks; i++ {
			if err := c.XOR(want[i*BlockSize:(i+1)*BlockSize],
				src[i*BlockSize:(i+1)*BlockSize], addr+uint64(i)*BlockSize, ctr); err != nil {
				t.Fatal(err)
			}
		}

		// Separate dst.
		got := make([]byte, len(src))
		if err := c.XORBlocks(got, src, addr, ctr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: XORBlocks differs from scalar XOR", nblocks)
		}

		// Exact aliasing: dst == src.
		alias := append([]byte(nil), src...)
		if err := c.XORBlocks(alias, alias, addr, ctr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(alias, want) {
			t.Fatalf("n=%d: aliased XORBlocks differs from scalar XOR", nblocks)
		}
		// And the round trip must restore the plaintext.
		if err := c.XORBlocks(alias, alias, addr, ctr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(alias, src) {
			t.Fatalf("n=%d: aliased round trip failed", nblocks)
		}
	}
}

func BenchmarkPad(b *testing.B) {
	c := testCipher(b)
	pad := make([]byte, BlockSize)
	b.SetBytes(BlockSize)
	for i := 0; i < b.N; i++ {
		if err := c.Pad(pad, uint64(i)*64, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXOR(b *testing.B) {
	c := testCipher(b)
	buf := make([]byte, BlockSize)
	b.SetBytes(BlockSize)
	for i := 0; i < b.N; i++ {
		if err := c.XOR(buf, buf, uint64(i)*64, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXORBlocks64(b *testing.B) {
	c := testCipher(b)
	buf := make([]byte, 64*BlockSize)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.XORBlocks(buf, buf, 0, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGoldenPad pins the keystream for a fixed key and seed, on the
// production path (crypto.Stream, which seals every stored block) and on
// this reference. Persisted NVMM images embed ciphertext produced by this
// pad; a change here breaks stored images.
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
		"crypto.Stream":    prod.PadN,
		"keystream.Cipher": testCipher(t).PadN,
	} {
		pad := make([]byte, BlockSize)
		if err := padN(pad, 0x40, 7); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(pad[:16]); got != want {
			t.Fatalf("%s: pad prefix %s, want %s", name, got, want)
		}
	}
}

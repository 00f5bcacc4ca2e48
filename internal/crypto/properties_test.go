package crypto_test

// Properties of the production kernels the security argument rests on
// (SECURITY.md's "Integrity" and "Anti-splicing" rows cite the tag tests):
// every ciphertext bit, the address and the counter feed the 56-bit tag, and
// a pad is unique per (address, counter) and lane, deterministic, and
// statistically flat.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"authmem/internal/crypto"
	"authmem/internal/ecc"
)

// words is the number of 64-bit words hashed per block.
const words = blockSize / 8

// macMaterial is the 24 bytes of key material testMAC keys with.
func macMaterial() []byte {
	material := make([]byte, 24)
	for i := range material {
		material[i] = byte(i*7 + 3)
	}
	return material
}

func testMAC(t testing.TB) *crypto.MAC {
	t.Helper()
	k, err := crypto.NewMAC(macMaterial())
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func testStream(t testing.TB) *crypto.Stream {
	t.Helper()
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(i + 1)
	}
	s, err := crypto.NewStream(key)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewKeyRejectsBadLength(t *testing.T) {
	for _, n := range []int{0, 16, 23, 25, 32} {
		if _, err := crypto.NewMAC(make([]byte, n)); err == nil {
			t.Errorf("NewMAC with %d bytes should fail", n)
		}
	}
}

func TestNewKeyZeroHashPoint(t *testing.T) {
	// All-zero material exercises the h==0 fallback; the key must work.
	k, err := crypto.NewMAC(make([]byte, 24))
	if err != nil {
		t.Fatal(err)
	}
	tag, err := k.Tag(make([]byte, blockSize), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := k.Verify(make([]byte, blockSize), 0, 0, tag)
	if err != nil || !ok {
		t.Fatalf("verify failed: ok=%v err=%v", ok, err)
	}
}

func TestTagFitsIn56Bits(t *testing.T) {
	k := testMAC(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		ct := make([]byte, blockSize)
		rng.Read(ct)
		tag, err := k.Tag(ct, rng.Uint64(), rng.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		if tag&^ecc.TagMask != 0 {
			t.Fatalf("tag %#x exceeds 56 bits", tag)
		}
	}
}

func TestTagRejectsBadBlockSize(t *testing.T) {
	k := testMAC(t)
	if _, err := k.Tag(make([]byte, 32), 0, 0); err == nil {
		t.Fatal("short ciphertext should fail")
	}
	if _, err := k.Verify(make([]byte, 128), 0, 0, 0); err == nil {
		t.Fatal("long ciphertext should fail")
	}
}

func TestVerifyRoundTrip(t *testing.T) {
	k := testMAC(t)
	f := func(seed int64, addr, counter uint64) bool {
		rng := rand.New(rand.NewSource(seed))
		ct := make([]byte, blockSize)
		rng.Read(ct)
		tag, err := k.Tag(ct, addr, counter)
		if err != nil {
			return false
		}
		ok, err := k.Verify(ct, addr, counter, tag)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAnyBitFlipChangesTag(t *testing.T) {
	k := testMAC(t)
	rng := rand.New(rand.NewSource(2))
	ct := make([]byte, blockSize)
	rng.Read(ct)
	tag, _ := k.Tag(ct, 0x1000, 42)
	for bit := 0; bit < blockSize*8; bit++ {
		ct[bit/8] ^= 1 << uint(bit%8)
		ok, err := k.Verify(ct, 0x1000, 42, tag)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("flip of ciphertext bit %d went undetected", bit)
		}
		ct[bit/8] ^= 1 << uint(bit%8)
	}
}

func TestTagBoundToAddress(t *testing.T) {
	// Block-swap attack: same ciphertext and counter at a different
	// address must not verify.
	k := testMAC(t)
	ct := make([]byte, blockSize)
	rand.New(rand.NewSource(3)).Read(ct)
	tag, _ := k.Tag(ct, 0x40, 7)
	ok, _ := k.Verify(ct, 0x80, 7, tag)
	if ok {
		t.Fatal("tag verified at a different address")
	}
}

func TestTagBoundToCounter(t *testing.T) {
	// Replay attack: same ciphertext and address at an older counter must
	// not verify once the counter has advanced.
	k := testMAC(t)
	ct := make([]byte, blockSize)
	rand.New(rand.NewSource(4)).Read(ct)
	tag, _ := k.Tag(ct, 0x40, 7)
	ok, _ := k.Verify(ct, 0x40, 8, tag)
	if ok {
		t.Fatal("stale tag verified under a newer counter")
	}
}

func TestDifferentKeysDisagree(t *testing.T) {
	k1 := testMAC(t)
	m2 := make([]byte, 24)
	for i := range m2 {
		m2[i] = byte(200 - i)
	}
	k2, err := crypto.NewMAC(m2)
	if err != nil {
		t.Fatal(err)
	}
	ct := make([]byte, blockSize)
	rand.New(rand.NewSource(5)).Read(ct)
	t1, _ := k1.Tag(ct, 0, 0)
	t2, _ := k2.Tag(ct, 0, 0)
	if t1 == t2 {
		t.Fatal("independent keys produced identical tags")
	}
}

func TestTagDistribution(t *testing.T) {
	// Coarse uniformity check: over 4096 random blocks, every tag byte
	// position should take many distinct values.
	k := testMAC(t)
	rng := rand.New(rand.NewSource(6))
	seen := make([]map[byte]bool, 7)
	for i := range seen {
		seen[i] = make(map[byte]bool)
	}
	ct := make([]byte, blockSize)
	for i := 0; i < 4096; i++ {
		rng.Read(ct)
		tag, _ := k.Tag(ct, uint64(i)*64, uint64(i))
		for b := 0; b < 7; b++ {
			seen[b][byte(tag>>uint(8*b))] = true
		}
	}
	for b, m := range seen {
		if len(m) < 200 {
			t.Errorf("tag byte %d only took %d distinct values", b, len(m))
		}
	}
}

// TestTagDifferential cross-checks Tag against the reference on 10k
// messages: structured edge patterns first (the all-zero block, single
// nonzero words in each position, short tails where only the first n words
// are populated, single-bit messages, all-ones), then random blocks under
// random addresses and counters.
func TestTagDifferential(t *testing.T) {
	material := make([]byte, 24)
	for i := range material {
		material[i] = byte(i*29 + 3)
	}
	// A second key with a different hash point, so agreement is not an
	// artifact of one lucky h.
	material2 := bytes.Clone(material)
	material2[0] ^= 0xA5
	materials := [][]byte{material, material2}
	keys := make([]*crypto.MAC, len(materials))
	for i, m := range materials {
		k, err := crypto.NewMAC(m)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}

	check := func(msg []byte, addr, counter uint64) {
		t.Helper()
		for i, key := range keys {
			got, err := key.Tag(msg, addr, counter)
			if err != nil {
				t.Fatal(err)
			}
			if want := refTag(t, materials[i], msg, addr, counter); got != want {
				t.Fatalf("Tag mismatch: got %#x want %#x\nmsg %x addr %#x counter %d", got, want, msg, addr, counter)
			}
		}
	}

	msg := make([]byte, blockSize)
	cases := 0

	// Empty message.
	check(msg, 0, 0)
	cases++

	// Exactly one nonzero word, in each position, with edge values.
	for w := 0; w < words; w++ {
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
	for n := 0; n <= words; n++ {
		clear(msg)
		for w := 0; w < n; w++ {
			binary.LittleEndian.PutUint64(msg[w*8:], rng.Uint64())
		}
		check(msg, uint64(n), uint64(n)<<32)
		cases++
	}
	// And the mirror image: only the last n words populated.
	for n := 0; n <= words; n++ {
		clear(msg)
		for w := words - n; w < words; w++ {
			binary.LittleEndian.PutUint64(msg[w*8:], rng.Uint64())
		}
		check(msg, uint64(n)<<20, uint64(n))
		cases++
	}

	// Every single-bit message.
	for bit := 0; bit < blockSize*8; bit++ {
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
	k := testMAC(t)
	for _, n := range []int{0, 1, 63, 65, 128} {
		if _, err := k.Tag(make([]byte, n), 0, 0); err == nil {
			t.Errorf("Tag accepted %d-byte message", n)
		}
	}
}

// TestTagMatchesHornerReference: 10 000 random (block, address, counter)
// tags and the all-zero and all-ones blocks equal the Horner-form refTag.
func TestTagMatchesHornerReference(t *testing.T) {
	k := testMAC(t)
	material := macMaterial()
	rng := rand.New(rand.NewSource(8))
	ct := make([]byte, blockSize)
	check := func(addr, counter uint64, what string) {
		t.Helper()
		got, err := k.Tag(ct, addr, counter)
		if err != nil {
			t.Fatal(err)
		}
		if want := refTag(t, material, ct, addr, counter); got != want {
			t.Fatalf("Tag = %#x, reference = %#x (%s)", got, want, what)
		}
	}
	for i := 0; i < 10_000; i++ {
		rng.Read(ct)
		check(rng.Uint64(), rng.Uint64(), "random block")
	}
	for _, fill := range []byte{0x00, 0xFF} {
		for i := range ct {
			ct[i] = fill
		}
		check(0x40, 1, "filled block")
	}
}

func TestTagZeroAllocs(t *testing.T) {
	k := testMAC(t)
	ct := make([]byte, blockSize)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := k.Tag(ct, 0x1000, 7); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Tag performed %v allocs/op, want 0", allocs)
	}
}

// TestStreamXORRoundTrip: XORBlocks over one block is its own inverse at
// arbitrary (address, counter) pairs.
func TestStreamXORRoundTrip(t *testing.T) {
	s := testStream(t)
	f := func(seed int64, addr, ctr uint64) bool {
		rng := rand.New(rand.NewSource(seed))
		pt := make([]byte, blockSize)
		rng.Read(pt)
		ct := make([]byte, blockSize)
		if err := s.XORBlocks(ct, pt, addr, ctr); err != nil {
			return false
		}
		back := make([]byte, blockSize)
		if err := s.XORBlocks(back, ct, addr, ctr); err != nil {
			return false
		}
		return bytes.Equal(back, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPadUniqueAcrossAddresses(t *testing.T) {
	s := testStream(t)
	a := make([]byte, blockSize)
	b := make([]byte, blockSize)
	if err := s.PadN(a, 0x1000, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.PadN(b, 0x1040, 5); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("same pad for different addresses")
	}
}

func TestPadUniqueAcrossCounters(t *testing.T) {
	s := testStream(t)
	a := make([]byte, blockSize)
	b := make([]byte, blockSize)
	if err := s.PadN(a, 0x1000, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.PadN(b, 0x1000, 6); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("same pad for different counters")
	}
}

func TestPadLanesDistinct(t *testing.T) {
	// The four 16-byte AES lanes within one pad must differ, otherwise
	// the pad would leak equality of plaintext quarters.
	s := testStream(t)
	pad := make([]byte, blockSize)
	if err := s.PadN(pad, 0x2000, 3); err != nil {
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
	s := testStream(t)
	a := make([]byte, blockSize)
	b := make([]byte, blockSize)
	if err := s.PadN(a, 42, 42); err != nil {
		t.Fatal(err)
	}
	if err := s.PadN(b, 42, 42); err != nil {
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
	s := testStream(t)
	const pads = 4096
	var counts [256]uint64
	buf := make([]byte, blockSize)
	for i := 0; i < pads; i++ {
		if err := s.PadN(buf, uint64(i)*64, uint64(i)); err != nil {
			t.Fatal(err)
		}
		for _, b := range buf {
			counts[b]++
		}
	}
	total := float64(pads * blockSize)
	expected := total / 256
	var chi2 float64
	for _, n := range counts {
		d := float64(n) - expected
		chi2 += d * d / expected
	}
	// 255 degrees of freedom; mean 255, stddev ~22.6. 400 is ~6 sigma.
	if chi2 > 400 {
		t.Fatalf("pad bytes non-uniform: chi2 = %.1f", chi2)
	}
}

// TestPadBitBalance checks the monobit property: about half of all pad
// bits are set.
func TestPadBitBalance(t *testing.T) {
	s := testStream(t)
	var ones, total int
	buf := make([]byte, blockSize)
	for i := 0; i < 2048; i++ {
		if err := s.PadN(buf, uint64(i)*64, 7); err != nil {
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
		t.Fatalf("pad bit balance %.4f, want ~0.5", frac)
	}
}

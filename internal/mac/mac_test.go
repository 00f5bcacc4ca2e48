package mac

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"authmem/internal/gf64"
)

func testKey(t testing.TB) *Key {
	t.Helper()
	material := make([]byte, 24)
	for i := range material {
		material[i] = byte(i*7 + 3)
	}
	k, err := NewKey(material)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestNewKeyRejectsBadLength(t *testing.T) {
	for _, n := range []int{0, 16, 23, 25, 32} {
		if _, err := NewKey(make([]byte, n)); err == nil {
			t.Errorf("NewKey with %d bytes should fail", n)
		}
	}
}

func TestNewKeyZeroHashPoint(t *testing.T) {
	// All-zero material exercises the h==0 fallback; the key must work.
	k, err := NewKey(make([]byte, 24))
	if err != nil {
		t.Fatal(err)
	}
	tag, err := k.Tag(make([]byte, BlockSize), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := k.Verify(make([]byte, BlockSize), 0, 0, tag)
	if err != nil || !ok {
		t.Fatalf("verify failed: ok=%v err=%v", ok, err)
	}
}

func TestTagFitsIn56Bits(t *testing.T) {
	k := testKey(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		ct := make([]byte, BlockSize)
		rng.Read(ct)
		tag, err := k.Tag(ct, rng.Uint64(), rng.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		if tag&^TagMask != 0 {
			t.Fatalf("tag %#x exceeds 56 bits", tag)
		}
	}
}

func TestTagRejectsBadBlockSize(t *testing.T) {
	k := testKey(t)
	if _, err := k.Tag(make([]byte, 32), 0, 0); err == nil {
		t.Fatal("short ciphertext should fail")
	}
	if _, err := k.Verify(make([]byte, 128), 0, 0, 0); err == nil {
		t.Fatal("long ciphertext should fail")
	}
}

func TestVerifyRoundTrip(t *testing.T) {
	k := testKey(t)
	f := func(seed int64, addr, counter uint64) bool {
		rng := rand.New(rand.NewSource(seed))
		ct := make([]byte, BlockSize)
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
	k := testKey(t)
	rng := rand.New(rand.NewSource(2))
	ct := make([]byte, BlockSize)
	rng.Read(ct)
	tag, _ := k.Tag(ct, 0x1000, 42)
	for bit := 0; bit < BlockSize*8; bit++ {
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
	k := testKey(t)
	ct := make([]byte, BlockSize)
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
	k := testKey(t)
	ct := make([]byte, BlockSize)
	rand.New(rand.NewSource(4)).Read(ct)
	tag, _ := k.Tag(ct, 0x40, 7)
	ok, _ := k.Verify(ct, 0x40, 8, tag)
	if ok {
		t.Fatal("stale tag verified under a newer counter")
	}
}

func TestDifferentKeysDisagree(t *testing.T) {
	k1 := testKey(t)
	m2 := make([]byte, 24)
	for i := range m2 {
		m2[i] = byte(200 - i)
	}
	k2, err := NewKey(m2)
	if err != nil {
		t.Fatal(err)
	}
	ct := make([]byte, BlockSize)
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
	k := testKey(t)
	rng := rand.New(rand.NewSource(6))
	seen := make([]map[byte]bool, 7)
	for i := range seen {
		seen[i] = make(map[byte]bool)
	}
	ct := make([]byte, BlockSize)
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

// referenceTag recomputes a tag with the Horner-form hash over the
// bit-serial constant-time gf64.Mul — the oracle the table-driven dot
// product in Tag must match bit-for-bit.
func referenceTag(k *Key, ciphertext []byte, addr, counter uint64) uint64 {
	var words [blockWords]uint64
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(ciphertext[i*8:])
	}
	return (gf64.Horner(k.h, words[:]) ^ k.pad(addr, counter)) & TagMask
}

// TestTagMatchesHornerReference proves the table-driven dot product
// equivalent to the Horner/bit-serial reference on 10k random inputs.
func TestTagMatchesHornerReference(t *testing.T) {
	k := testKey(t)
	rng := rand.New(rand.NewSource(8))
	ct := make([]byte, BlockSize)
	for i := 0; i < 10_000; i++ {
		rng.Read(ct)
		addr, counter := rng.Uint64(), rng.Uint64()
		got, err := k.Tag(ct, addr, counter)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceTag(k, ct, addr, counter); got != want {
			t.Fatalf("Tag = %#x, reference = %#x (iter %d)", got, want, i)
		}
	}
	// Edge blocks: all-zero, all-ones, single bit set at each word.
	for _, fill := range []byte{0x00, 0xFF} {
		for i := range ct {
			ct[i] = fill
		}
		got, _ := k.Tag(ct, 0x40, 1)
		if want := referenceTag(k, ct, 0x40, 1); got != want {
			t.Fatalf("Tag(fill %#x) = %#x, reference = %#x", fill, got, want)
		}
	}
}

// TestTagZeroAllocs pins the steady-state allocation count of Tag at zero —
// the property the engine's zero-alloc read path depends on.
func TestTagZeroAllocs(t *testing.T) {
	k := testKey(t)
	ct := make([]byte, BlockSize)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := k.Tag(ct, 0x1000, 7); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Tag performed %v allocs/op, want 0", allocs)
	}
}

func BenchmarkTag(b *testing.B) {
	k := testKey(b)
	ct := make([]byte, BlockSize)
	rand.New(rand.NewSource(7)).Read(ct)
	b.SetBytes(BlockSize)
	b.ResetTimer()
	var acc uint64
	for i := 0; i < b.N; i++ {
		tag, err := k.Tag(ct, uint64(i), uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		acc ^= tag
	}
	sink = acc
}

var sink uint64

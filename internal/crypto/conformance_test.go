package crypto_test

// Production-vs-reference differential conformance suite.
//
// crypto.Stream and crypto.MAC (the AES-NI kernel, or crypto/aes where the
// instruction is missing) seal and verify every stored block; refPad and
// refTag (reference_test.go) are the construction they must stay
// BIT-IDENTICAL to — every image, WAL and campaign verdict written before
// the engine had one cipher path was produced by one of three
// then-selectable implementations, all held equal to that construction. The
// suite diffs pads, ciphertexts and tags over randomized and adversarial
// input grids, span kernels against n scalar calls for every span length up
// to two counter groups, and the rejection of malformed lengths.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"authmem/internal/crypto"
)

const blockSize = crypto.BlockSize

func testKeyMaterial(seed byte) []byte {
	k := make([]byte, 40)
	for i := range k {
		k[i] = byte(i)*3 + seed
	}
	return k
}

// interestingPairs returns (addr, counter) pairs mixing boundary values
// (zero, max 56-bit counter, high addresses, lane-byte edge cases) with
// seeded random draws.
func interestingPairs(rng *rand.Rand, n int) [][2]uint64 {
	pairs := [][2]uint64{
		{0, 0},
		{0, 1},
		{64, 1},
		{64, (1 << 56) - 1},                  // max counter: lane bits must not collide
		{1 << 32, 1 << 55},                   // high counter bit vs lane byte
		{(1 << 40) - 64, 0x00FFFFFFFFFFFFFF}, // all-ones 56-bit counter
		{0xFFFFFFC0, 127},                    // split-counter overflow edge
	}
	for i := 0; i < n; i++ {
		addr := (rng.Uint64() << 6) & 0xFFFFFFFFFF // block-aligned, 40-bit
		ctr := rng.Uint64() & ((1 << 56) - 1)
		pairs = append(pairs, [2]uint64{addr, ctr})
	}
	return pairs
}

// newStream builds the production stream from the last 16 bytes of 40-byte
// key material; refPad takes the same 16.
func newStream(t testing.TB, key []byte) *crypto.Stream {
	t.Helper()
	s, err := crypto.NewStream(key[24:40])
	if err != nil {
		t.Fatalf("crypto.NewStream: %v", err)
	}
	return s
}

// newMAC builds the production MAC from the first 24 bytes of 40-byte key
// material; refTag takes the same 24.
func newMAC(t testing.TB, key []byte) *crypto.MAC {
	t.Helper()
	m, err := crypto.NewMAC(key[:24])
	if err != nil {
		t.Fatalf("crypto.NewMAC: %v", err)
	}
	return m
}

// refXOR is the reference seal and open: src XOR refPad, block by block.
func refXOR(t testing.TB, key, dst, src []byte, addr, counter uint64) {
	t.Helper()
	pad := make([]byte, blockSize)
	for off := 0; off < len(src); off += blockSize {
		refPad(t, key[24:40], pad, addr+uint64(off), counter)
		for i := range pad {
			dst[off+i] = src[off+i] ^ pad[i]
		}
	}
}

// TestPadConformance: single-block pads bit-equal to the reference over the
// input grid.
func TestPadConformance(t *testing.T) {
	key := testKeyMaterial(1)
	prod := newStream(t, key)
	want := make([]byte, blockSize)
	got := make([]byte, blockSize)
	for _, p := range interestingPairs(rand.New(rand.NewSource(11)), 64) {
		addr, ctr := p[0], p[1]
		refPad(t, key[24:40], want, addr, ctr)
		if err := prod.PadN(got, addr, ctr); err != nil {
			t.Fatalf("PadN(%#x,%d): %v", addr, ctr, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("PadN(%#x,%d) differs from the reference\n got %x\nwant %x", addr, ctr, got, want)
		}
	}
}

// TestXORRoundTrip: seal with one implementation, open with the other, in
// both directions, and with the production stream twice. This is the
// stored-bit compatibility property — a region sealed by the T-table code
// before it was retired must open under crypto/aes.
func TestXORRoundTrip(t *testing.T) {
	key := testKeyMaterial(2)
	prod := newStream(t, key)
	rng := rand.New(rand.NewSource(22))
	xors := map[string]func(dst, src []byte, addr, counter uint64) error{
		"production": prod.XORBlocks, // over one block
		"reference": func(dst, src []byte, addr, counter uint64) error {
			refXOR(t, key, dst, src, addr, counter)
			return nil
		},
	}

	pt := make([]byte, blockSize)
	ct := make([]byte, blockSize)
	back := make([]byte, blockSize)
	for _, p := range interestingPairs(rng, 16) {
		addr, ctr := p[0], p[1]
		rng.Read(pt)
		for encName, enc := range xors {
			if err := enc(ct, pt, addr, ctr); err != nil {
				t.Fatalf("%s: XOR: %v", encName, err)
			}
			for decName, dec := range xors {
				if err := dec(back, ct, addr, ctr); err != nil {
					t.Fatalf("%s: XOR: %v", decName, err)
				}
				if !bytes.Equal(back, pt) {
					t.Fatalf("seal %s / open %s: round trip failed at (%#x,%d)", encName, decName, addr, ctr)
				}
			}
		}
	}
}

// TestBatchMatchesScalar: PadN over an n-block span equals n reference pads,
// and XORBlocks equals n one-block XORBlocks calls and the reference seal,
// separate-buffer and exactly aliased — for every span length from one
// block to two counter groups and two blocks.
func TestBatchMatchesScalar(t *testing.T) {
	key := testKeyMaterial(3)
	ks := newStream(t, key)
	t.Run("production", func(t *testing.T) {
		rng := rand.New(rand.NewSource(33))
		pairs := interestingPairs(rng, 2)
		for n := 1; n <= 130; n++ {
			span := n * blockSize
			src := make([]byte, span)
			rng.Read(src)
			wantPad := make([]byte, span)
			wantCT := make([]byte, span)
			got := make([]byte, span)

			for _, p := range pairs {
				addr, ctr := p[0], p[1]
				for off := 0; off < span; off += blockSize {
					blkAddr := addr + uint64(off)
					refPad(t, key[24:40], wantPad[off:off+blockSize], blkAddr, ctr)
					if err := ks.XORBlocks(got[off:off+blockSize], src[off:off+blockSize], blkAddr, ctr); err != nil {
						t.Fatalf("one-block XORBlocks: %v", err)
					}
				}
				refXOR(t, key, wantCT, src, addr, ctr)
				if !bytes.Equal(got, wantCT) {
					t.Fatalf("n=%d at (%#x,%d): %d scalar XORs differ from the reference", n, addr, ctr, n)
				}
				if err := ks.PadN(got, addr, ctr); err != nil {
					t.Fatalf("PadN n=%d: %v", n, err)
				}
				if !bytes.Equal(got, wantPad) {
					t.Fatalf("PadN n=%d at (%#x,%d) differs from %d scalar Pads", n, addr, ctr, n)
				}
				if err := ks.XORBlocks(got, src, addr, ctr); err != nil {
					t.Fatalf("XORBlocks n=%d: %v", n, err)
				}
				if !bytes.Equal(got, wantCT) {
					t.Fatalf("XORBlocks n=%d at (%#x,%d) differs from %d scalar XORs", n, addr, ctr, n)
				}
				if err := ks.XORBlocks(got, got, addr, ctr); err != nil {
					t.Fatalf("aliased XORBlocks n=%d: %v", n, err)
				}
				if !bytes.Equal(got, src) {
					t.Fatalf("aliased XORBlocks n=%d at (%#x,%d) did not restore the plaintext", n, addr, ctr)
				}
			}
		}
	})
}

// TestMACConformance: tags bit-equal to the reference, Verify accepts them
// and rejects flipped ones, hash points match.
func TestMACConformance(t *testing.T) {
	for _, seed := range []byte{0, 4, 9} { // seed 0: all-zero hash-key bytes exercise the h==0 -> 1 substitution
		t.Run(fmt.Sprintf("key=%d", seed), func(t *testing.T) {
			key := testKeyMaterial(seed)
			if seed == 0 {
				for i := 0; i < 8; i++ {
					key[i] = 0
				}
			}
			prod := newMAC(t, key)
			if got, want := prod.HashPoint(), max(binary.LittleEndian.Uint64(key[:8]), 1); got != want {
				t.Fatalf("HashPoint %#x != reference %#x", got, want)
			}
			rng := rand.New(rand.NewSource(44))
			ct := make([]byte, blockSize)
			check := func(addr, ctr uint64) {
				t.Helper()
				want := refTag(t, key, ct, addr, ctr)
				got, err := prod.Tag(ct, addr, ctr)
				if err != nil {
					t.Fatalf("Tag: %v", err)
				}
				if got != want {
					t.Fatalf("Tag(%#x,%d) of %x = %#x, want the reference's %#x", addr, ctr, ct, got, want)
				}
				if ok, err := prod.Verify(ct, addr, ctr, want); err != nil || !ok {
					t.Fatalf("Verify of a good tag = %v, %v", ok, err)
				}
				if ok, err := prod.Verify(ct, addr, ctr, want^1); err != nil || ok {
					t.Fatal("Verify accepted a corrupted tag")
				}
			}
			for _, p := range interestingPairs(rng, 32) {
				rng.Read(ct)
				check(p[0], p[1])
			}
			for _, fill := range []byte{0x00, 0xFF} { // the all-zero and all-ones blocks
				for i := range ct {
					ct[i] = fill
				}
				check(0x40, 1)
			}
		})
	}
}

// TestTagBatchMatchesScalar: TagBatch over n contiguous blocks equals n Tag
// calls and n reference tags, for every span length up to two counter
// groups and two blocks.
func TestTagBatchMatchesScalar(t *testing.T) {
	key := testKeyMaterial(5)
	mk := newMAC(t, key)
	t.Run("production", func(t *testing.T) {
		rng := rand.New(rand.NewSource(55))
		pairs := interestingPairs(rng, 2)
		for n := 1; n <= 130; n++ {
			cts := make([]byte, n*blockSize)
			rng.Read(cts)
			tags := make([]uint64, n)
			for _, p := range pairs {
				addr, ctr := p[0], p[1]
				if err := mk.TagBatch(tags, cts, addr, ctr); err != nil {
					t.Fatalf("TagBatch n=%d: %v", n, err)
				}
				for i := 0; i < n; i++ {
					ct := cts[i*blockSize : (i+1)*blockSize]
					want := refTag(t, key, ct, addr+uint64(i*blockSize), ctr)
					scalar, err := mk.Tag(ct, addr+uint64(i*blockSize), ctr)
					if err != nil {
						t.Fatalf("Tag block %d: %v", i, err)
					}
					if tags[i] != want || scalar != want {
						t.Fatalf("n=%d block %d at (%#x,%d): TagBatch %#x, scalar %#x, reference %#x",
							n, i, addr, ctr, tags[i], scalar, want)
					}
				}
			}
		}
	})
}

// TestTagBatchCrossBackend: whole-group TagBatch output identical to the
// reference (the re-encryption sweep shape: 64 blocks, one counter). It
// keeps the name it had when there were backends to cross.
func TestTagBatchCrossBackend(t *testing.T) {
	key := testKeyMaterial(6)
	prod := newMAC(t, key)
	rng := rand.New(rand.NewSource(66))
	const n = 64
	cts := make([]byte, n*blockSize)
	rng.Read(cts)

	got := make([]uint64, n)
	for _, p := range interestingPairs(rng, 8) {
		addr, ctr := p[0], p[1]
		if err := prod.TagBatch(got, cts, addr, ctr); err != nil {
			t.Fatalf("TagBatch: %v", err)
		}
		for i := range got {
			if want := refTag(t, key, cts[i*blockSize:(i+1)*blockSize], addr+uint64(i*blockSize), ctr); got[i] != want {
				t.Fatalf("TagBatch block %d at (%#x,%d): %#x, reference %#x", i, addr, ctr, got[i], want)
			}
		}
	}
}

// TestErrorConformance: the kernels reject malformed inputs, and the
// frozen-harness shim selects nothing.
func TestErrorConformance(t *testing.T) {
	key := testKeyMaterial(8)
	ks := newStream(t, key)
	mk := newMAC(t, key)
	short := make([]byte, blockSize-1)
	ragged := make([]byte, blockSize+1)
	block := make([]byte, blockSize)
	two := make([]byte, 2*blockSize)

	for what, err := range map[string]error{
		"PadN(empty)":             ks.PadN(nil, 0, 0),
		"PadN(ragged)":            ks.PadN(ragged, 0, 0),
		"XORBlocks(short src)":    ks.XORBlocks(block, short, 0, 0),
		"XORBlocks(short dst)":    ks.XORBlocks(short, block, 0, 0),
		"XORBlocks(empty)":        ks.XORBlocks(nil, nil, 0, 0),
		"XORBlocks(ragged)":       ks.XORBlocks(ragged, ragged, 0, 0),
		"XORBlocks(len mismatch)": ks.XORBlocks(two, block, 0, 0),
	} {
		if err == nil {
			t.Errorf("%s accepted", what)
		}
	}

	if _, err := mk.Tag(short, 0, 0); err == nil {
		t.Errorf("Tag accepted %d bytes", len(short))
	}
	if _, err := mk.Verify(ragged, 0, 0, 0); err == nil {
		t.Errorf("Verify accepted %d bytes", len(ragged))
	}
	if err := mk.TagBatch(make([]uint64, 2), block, 0, 0); err == nil {
		t.Error("TagBatch accepted mismatched tag/ciphertext lengths")
	}

	for _, n := range []int{7, 24, 32} { // the pads are AES-128 only
		if _, err := crypto.NewStream(make([]byte, n)); err == nil {
			t.Errorf("NewStream accepted a %d-byte key", n)
		}
	}
	if _, err := crypto.NewMAC(make([]byte, 23)); err == nil {
		t.Error("NewMAC accepted 23-byte material")
	}

	// The shim bench/kernels.go compiles against: the empty name only.
	if _, err := crypto.Lookup(""); err != nil {
		t.Errorf(`Lookup(""): %v`, err)
	}
	for _, name := range []string{"stdlib", "no-such-backend"} {
		if _, err := crypto.Lookup(name); err == nil {
			t.Errorf("Lookup(%q) did not fail: there is nothing to select", name)
		}
	}
}

// TestKernelsAllocateNothing pins 0 allocs/op on the four hot kernels, on
// whichever path the platform runs (the AES-NI kernel on amd64, crypto/aes
// under GOARCH=386). On crypto/aes the scratch every cipher.Block call needs
// lives in the Stream/MAC struct; a refactor that moves it to the stack
// would escape through the interface and show up here.
func TestKernelsAllocateNothing(t *testing.T) {
	key := testKeyMaterial(10)
	ks := newStream(t, key)
	mk := newMAC(t, key)
	block := make([]byte, blockSize)
	group := make([]byte, 64*blockSize)
	tags := make([]uint64, 64)
	var addr uint64
	for name, fn := range map[string]func() error{
		"XORBlocks(block)": func() error { return ks.XORBlocks(block, block, addr, 3) },
		"XORBlocks(group)": func() error { return ks.XORBlocks(group, group, addr, 3) },
		"Tag":              func() error { _, err := mk.Tag(block, addr, 3); return err },
		"TagBatch":         func() error { return mk.TagBatch(tags, group, addr, 3) },
	} {
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			addr += blockSize
			if e := fn(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", name, allocs)
		}
	}
}

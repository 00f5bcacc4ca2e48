package crypto_test

// Production-vs-reference differential conformance suite.
//
// crypto.Stream and crypto.MAC (crypto/aes) seal and verify every stored
// block; keystream.Cipher and mac.Key (the repository's from-scratch T-table
// AES) are the reference they must stay BIT-IDENTICAL to — every image, WAL
// and campaign verdict written before the engine had one cipher path was
// produced by one of three then-selectable implementations, all held equal to
// that reference. The suite diffs pads, ciphertexts and tags over randomized
// and adversarial input grids, span kernels against n scalar calls for every
// span length up to two counter groups, and the rejection of malformed
// lengths.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"authmem/internal/crypto"
	"authmem/internal/keystream"
	"authmem/internal/mac"
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

// newStreams builds the production stream and the reference cipher from the
// same 40-byte key material.
func newStreams(t *testing.T, key []byte) (*crypto.Stream, *keystream.Cipher) {
	t.Helper()
	prod, err := crypto.NewStream(key[24:40])
	if err != nil {
		t.Fatalf("crypto.NewStream: %v", err)
	}
	ref, err := keystream.New(key[24:40])
	if err != nil {
		t.Fatalf("keystream.New: %v", err)
	}
	return prod, ref
}

func newMACs(t *testing.T, key []byte) (*crypto.MAC, *mac.Key) {
	t.Helper()
	prod, err := crypto.NewMAC(key[:24])
	if err != nil {
		t.Fatalf("crypto.NewMAC: %v", err)
	}
	ref, err := mac.NewKey(key[:24])
	if err != nil {
		t.Fatalf("mac.NewKey: %v", err)
	}
	return prod, ref
}

// TestPadConformance: single-block pads bit-equal to the reference over the
// input grid.
func TestPadConformance(t *testing.T) {
	prod, ref := newStreams(t, testKeyMaterial(1))
	want := make([]byte, blockSize)
	got := make([]byte, blockSize)
	for _, p := range interestingPairs(rand.New(rand.NewSource(11)), 64) {
		addr, ctr := p[0], p[1]
		if err := ref.Pad(want, addr, ctr); err != nil {
			t.Fatalf("reference Pad(%#x,%d): %v", addr, ctr, err)
		}
		if err := prod.PadN(got, addr, ctr); err != nil {
			t.Fatalf("PadN(%#x,%d): %v", addr, ctr, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("PadN(%#x,%d) differs from the reference\n got %x\nwant %x", addr, ctr, got, want)
		}
	}
}

// TestXORRoundTrip: seal with one implementation, open with the other, in
// both directions. This is the stored-bit compatibility property — a region
// sealed by the T-table code before it was retired must open under crypto/aes.
func TestXORRoundTrip(t *testing.T) {
	prod, ref := newStreams(t, testKeyMaterial(2))
	rng := rand.New(rand.NewSource(22))
	xors := map[string]func(dst, src []byte, addr, counter uint64) error{
		"production": prod.XOR,
		"reference":  ref.XOR,
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

// spanStream is the span surface production and reference share.
type spanStream interface {
	PadN(dst []byte, addr, counter uint64) error
	XOR(dst, src []byte, addr, counter uint64) error
	XORBlocks(dst, src []byte, addr, counter uint64) error
}

// TestBatchMatchesScalar: for the production stream and for the reference,
// PadN over an n-block span equals n reference Pad calls and XORBlocks equals
// n of the implementation's own XOR calls and n reference XOR calls,
// separate-buffer and exactly aliased — for every span length from one block
// to two counter groups and two blocks.
func TestBatchMatchesScalar(t *testing.T) {
	prod, ref := newStreams(t, testKeyMaterial(3))
	for name, ks := range map[string]spanStream{"production": prod, "reference": ref} {
		t.Run(name, func(t *testing.T) {
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
						if err := ref.Pad(wantPad[off:off+blockSize], blkAddr, ctr); err != nil {
							t.Fatalf("reference Pad: %v", err)
						}
						if err := ref.XOR(wantCT[off:off+blockSize], src[off:off+blockSize], blkAddr, ctr); err != nil {
							t.Fatalf("reference XOR: %v", err)
						}
						if err := ks.XOR(got[off:off+blockSize], src[off:off+blockSize], blkAddr, ctr); err != nil {
							t.Fatalf("XOR: %v", err)
						}
					}
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
}

// TestMACConformance: tags bit-equal to the reference, each side's Verify
// accepts the other's tags and rejects flipped ones, hash points match.
func TestMACConformance(t *testing.T) {
	for _, seed := range []byte{0, 4, 9} { // seed 0: all-zero hash-key bytes exercise the h==0 -> 1 substitution
		t.Run(fmt.Sprintf("key=%d", seed), func(t *testing.T) {
			key := testKeyMaterial(seed)
			if seed == 0 {
				for i := 0; i < 8; i++ {
					key[i] = 0
				}
			}
			prod, ref := newMACs(t, key)
			if prod.HashPoint() != ref.HashPoint() {
				t.Fatalf("HashPoint %#x != reference %#x", prod.HashPoint(), ref.HashPoint())
			}
			rng := rand.New(rand.NewSource(44))
			ct := make([]byte, blockSize)
			for _, p := range interestingPairs(rng, 32) {
				addr, ctr := p[0], p[1]
				rng.Read(ct)
				want, err := ref.Tag(ct, addr, ctr)
				if err != nil {
					t.Fatalf("reference Tag: %v", err)
				}
				got, err := prod.Tag(ct, addr, ctr)
				if err != nil {
					t.Fatalf("Tag: %v", err)
				}
				if got != want {
					t.Fatalf("Tag(%#x,%d) = %#x, want the reference's %#x", addr, ctr, got, want)
				}
				for name, verify := range map[string]func(ct []byte, addr, counter, tag uint64) (bool, error){
					"production": prod.Verify,
					"reference":  ref.Verify,
				} {
					if ok, err := verify(ct, addr, ctr, want); err != nil || !ok {
						t.Fatalf("%s: Verify of a good tag = %v, %v", name, ok, err)
					}
					if ok, err := verify(ct, addr, ctr, want^1); err != nil || ok {
						t.Fatalf("%s: Verify accepted a corrupted tag", name)
					}
				}
			}
		})
	}
}

// tagger is the MAC surface production and reference share.
type tagger interface {
	Tag(ciphertext []byte, addr, counter uint64) (uint64, error)
	Verify(ciphertext []byte, addr, counter, tag uint64) (bool, error)
	TagBatch(tags []uint64, ciphertexts []byte, addr, counter uint64) error
}

// TestTagBatchMatchesScalar: for the production MAC and for the reference,
// TagBatch over n contiguous blocks equals n of its own Tag calls and n
// reference Tag calls, for every span length up to two counter groups and
// two blocks.
func TestTagBatchMatchesScalar(t *testing.T) {
	prod, ref := newMACs(t, testKeyMaterial(5))
	for name, mk := range map[string]tagger{"production": prod, "reference": ref} {
		t.Run(name, func(t *testing.T) {
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
						want, err := ref.Tag(ct, addr+uint64(i*blockSize), ctr)
						if err != nil {
							t.Fatalf("reference Tag block %d: %v", i, err)
						}
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
}

// TestTagBatchCrossBackend: whole-group TagBatch output identical to the
// reference's own TagBatch (the re-encryption sweep shape: 64 blocks, one
// counter). It keeps the name it had when there were backends to cross.
func TestTagBatchCrossBackend(t *testing.T) {
	prod, ref := newMACs(t, testKeyMaterial(6))
	rng := rand.New(rand.NewSource(66))
	const n = 64
	cts := make([]byte, n*blockSize)
	rng.Read(cts)

	want := make([]uint64, n)
	got := make([]uint64, n)
	for _, p := range interestingPairs(rng, 8) {
		addr, ctr := p[0], p[1]
		if err := ref.TagBatch(want, cts, addr, ctr); err != nil {
			t.Fatalf("reference TagBatch: %v", err)
		}
		if err := prod.TagBatch(got, cts, addr, ctr); err != nil {
			t.Fatalf("TagBatch: %v", err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("TagBatch block %d at (%#x,%d): %#x, reference %#x", i, addr, ctr, got[i], want[i])
			}
		}
	}
}

// TestErrorConformance: production and reference reject the same malformed
// inputs, and the frozen-harness shim selects nothing.
func TestErrorConformance(t *testing.T) {
	key := testKeyMaterial(8)
	prod, ref := newStreams(t, key)
	pmac, rmac := newMACs(t, key)
	short := make([]byte, blockSize-1)
	ragged := make([]byte, blockSize+1)
	block := make([]byte, blockSize)
	two := make([]byte, 2*blockSize)

	for name, ks := range map[string]spanStream{"production": prod, "reference": ref} {
		for what, err := range map[string]error{
			"PadN(empty)":             ks.PadN(nil, 0, 0),
			"PadN(ragged)":            ks.PadN(ragged, 0, 0),
			"XOR(short src)":          ks.XOR(block, short, 0, 0),
			"XOR(short dst)":          ks.XOR(short, block, 0, 0),
			"XORBlocks(empty)":        ks.XORBlocks(nil, nil, 0, 0),
			"XORBlocks(ragged)":       ks.XORBlocks(ragged, ragged, 0, 0),
			"XORBlocks(len mismatch)": ks.XORBlocks(two, block, 0, 0),
		} {
			if err == nil {
				t.Errorf("%s: %s accepted", name, what)
			}
		}
	}

	for name, mk := range map[string]tagger{"production": pmac, "reference": rmac} {
		if _, err := mk.Tag(short, 0, 0); err == nil {
			t.Errorf("%s: Tag accepted %d bytes", name, len(short))
		}
		if _, err := mk.Verify(ragged, 0, 0, 0); err == nil {
			t.Errorf("%s: Verify accepted %d bytes", name, len(ragged))
		}
		if err := mk.TagBatch(make([]uint64, 2), block, 0, 0); err == nil {
			t.Errorf("%s: TagBatch accepted mismatched tag/ciphertext lengths", name)
		}
	}

	if _, err := crypto.NewStream(make([]byte, 7)); err == nil {
		t.Error("NewStream accepted a 7-byte key")
	}
	if _, err := keystream.New(make([]byte, 7)); err == nil {
		t.Error("keystream.New accepted a 7-byte key")
	}
	if _, err := crypto.NewMAC(make([]byte, 23)); err == nil {
		t.Error("NewMAC accepted 23-byte material")
	}
	if _, err := mac.NewKey(make([]byte, 23)); err == nil {
		t.Error("mac.NewKey accepted 23-byte material")
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

// TestKernelsAllocateNothing pins 0 allocs/op on the four hot kernels. The
// scratch every cipher.Block call needs lives in the Stream/MAC struct; a
// refactor that moves it to the stack would escape through the interface and
// show up here.
func TestKernelsAllocateNothing(t *testing.T) {
	key := testKeyMaterial(10)
	ks, _ := newStreams(t, key)
	mk, _ := newMACs(t, key)
	block := make([]byte, blockSize)
	group := make([]byte, 64*blockSize)
	tags := make([]uint64, 64)
	var addr uint64
	for name, fn := range map[string]func() error{
		"XOR":       func() error { return ks.XOR(block, block, addr, 3) },
		"XORBlocks": func() error { return ks.XORBlocks(group, group, addr, 3) },
		"Tag":       func() error { _, err := mk.Tag(block, addr, 3); return err },
		"TagBatch":  func() error { return mk.TagBatch(tags, group, addr, 3) },
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

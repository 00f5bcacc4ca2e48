package macecc

import (
	"bytes"
	"math/rand"
	"testing"

	"authmem/internal/ecc"
)

func lookupMACCodec(t testing.TB) ecc.MACCodec {
	t.Helper()
	cod, err := ecc.Lookup("macsecded")
	if err != nil {
		t.Fatal(err)
	}
	mcod, ok := cod.(ecc.MACCodec)
	if !ok {
		t.Fatalf("macsecded is not a MACCodec")
	}
	return mcod
}

func TestCodecIdentity(t *testing.T) {
	mcod := lookupMACCodec(t)
	if !mcod.CarriesMAC() {
		t.Fatal("macsecded must carry the MAC")
	}
	if mcod.CheckBytes() != 8 {
		t.Fatalf("CheckBytes() = %d, want 8", mcod.CheckBytes())
	}
	if _, err := mcod.NewVerifier(nil, 2); err == nil {
		t.Fatal("nil key should fail")
	}
	if _, err := mcod.NewVerifier(testKey(t), 3); err == nil {
		t.Fatal("budget 3 should fail")
	}
}

// TestCodecAdapterMatchesVerifier pins the ecc.MACCodec adapter to the
// concrete Verifier it wraps: same packed lane, same verdicts, same repaired
// bytes and lanes, same scrub screens — across clean, correctable, and
// uncorrectable inputs.
func TestCodecAdapterMatchesVerifier(t *testing.T) {
	mcod := lookupMACCodec(t)
	for budget := 0; budget <= 2; budget++ {
		direct := testVerifier(t, budget)
		adapted, err := mcod.NewVerifier(testKey(t), budget)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(int64(budget)*31 + 3))
		for trial := 0; trial < 300; trial++ {
			addr := uint64(trial) * BlockSize
			counter := uint64(trial + 1)
			original, meta := protect(t, direct, int64(trial), addr, counter)

			// PackLane must reproduce PackMeta.
			tag, err := direct.key.Tag(original, addr, counter)
			if err != nil {
				t.Fatal(err)
			}
			if got := mcod.PackLane(tag, original); got != uint64(meta) {
				t.Fatalf("trial %d: PackLane %#x != PackMeta %#x", trial, got, uint64(meta))
			}

			// Corrupt 0..4 bits across the data+lane surface.
			ctA := append([]byte(nil), original...)
			ctB := append([]byte(nil), original...)
			mA, laneB := meta, uint64(meta)
			for i := 0; i < rng.Intn(5); i++ {
				bit := rng.Intn(blockBits + 64)
				if bit < blockBits {
					ctA[bit/8] ^= 1 << uint(bit%8)
					ctB[bit/8] ^= 1 << uint(bit%8)
				} else {
					mA = mA.Flip(bit - blockBits)
					laneB ^= 1 << uint(bit-blockBits)
				}
			}

			// Scrub screens agree before verification.
			if Scrub(ctA, mA) != adapted.ScrubData(ctB, laneB) {
				t.Fatalf("trial %d: ScrubData disagrees", trial)
			}
			if ScrubMeta(mA) != adapted.ScrubLane(laneB) {
				t.Fatalf("trial %d: ScrubLane disagrees", trial)
			}

			outA, err := direct.VerifyAndCorrect(ctA, &mA, addr, counter)
			if err != nil {
				t.Fatal(err)
			}
			laneOut, outB, err := adapted.VerifyAndCorrect(ctB, laneB, addr, counter)
			if err != nil {
				t.Fatal(err)
			}

			if (outA.Status == OK) != outB.OK {
				t.Fatalf("trial %d budget %d: verdict disagrees: %v vs %+v", trial, budget, outA.Status, outB)
			}
			if outA.CorrectedDataBits != outB.CorrectedDataBits ||
				outA.CorrectedMACBits != outB.CorrectedMACBits ||
				outA.HardwareChecks != outB.HardwareChecks {
				t.Fatalf("trial %d budget %d: outcome fields disagree: %+v vs %+v", trial, budget, outA, outB)
			}
			if !bytes.Equal(ctA, ctB) {
				t.Fatalf("trial %d budget %d: repaired ciphertext disagrees", trial, budget)
			}
			if outB.OK && laneOut != uint64(mA) {
				t.Fatalf("trial %d budget %d: repaired lane %#x != meta %#x", trial, budget, laneOut, uint64(mA))
			}
		}
	}
}

// FuzzCodecEquivalence drives every registered codec — secded and
// macsecded — through the same sealed-block-plus-single-fault scenario and
// enforces the cross-codec contract the engine relies on:
//
//   - an intact block verifies cleanly under every codec;
//   - a single flipped data bit is never a silent escape under any codec:
//     both must repair it in place to the exact original bytes.
//
// The fuzzer varies the block contents, the fault position, and the MAC
// (addr, counter) binding. It lives in this package because importing it
// links both codecs into the registry.
func FuzzCodecEquivalence(f *testing.F) {
	f.Add([]byte("seed"), uint16(0), uint64(0), uint64(1))
	f.Add(bytes.Repeat([]byte{0x00}, BlockSize), uint16(511), uint64(64), uint64(2))
	f.Add(bytes.Repeat([]byte{0xFF}, BlockSize), uint16(32), uint64(128), uint64(3))

	f.Fuzz(func(t *testing.T, seed []byte, bit16 uint16, addr, counter uint64) {
		// Expand the fuzz seed into one deterministic 64-byte block.
		data := make([]byte, BlockSize)
		for i := range data {
			data[i] = byte(i * 37)
		}
		copy(data, seed)
		bit := int(bit16) % (8 * BlockSize)
		addr &= 0xFFFFFF
		addr &^= BlockSize - 1
		if counter == 0 {
			counter = 1
		}

		for _, name := range ecc.Names() {
			cod, err := ecc.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			switch c := cod.(type) {
			case ecc.BlockCodec:
				blk := append([]byte(nil), data...)
				check := make([]byte, c.CheckBytes())
				if err := c.EncodeInto(check, blk); err != nil {
					t.Fatalf("%s: encode: %v", name, err)
				}
				out, err := c.DecodeAndCorrect(blk, check)
				if err != nil {
					t.Fatalf("%s: clean decode: %v", name, err)
				}
				if !out.Clean() || !bytes.Equal(blk, data) {
					t.Fatalf("%s: intact block flagged or mutated: %+v", name, out)
				}

				blk[bit/8] ^= 1 << uint(bit%8)
				out, err = c.DecodeAndCorrect(blk, check)
				if err != nil {
					t.Fatalf("%s: faulted decode: %v", name, err)
				}
				// A single-bit fault is never silently accepted, and the
				// block code restores the exact original.
				if out.Clean() && !bytes.Equal(blk, data) {
					t.Fatalf("%s: silent single-bit escape at bit %d", name, bit)
				}
				if out.CorrectedBits != 1 || !bytes.Equal(blk, data) {
					t.Fatalf("%s: single-bit fault at bit %d not repaired: %+v", name, bit, out)
				}

			case ecc.MACCodec:
				ver, err := c.NewVerifier(testKey(t), 2)
				if err != nil {
					t.Fatal(err)
				}
				ct := append([]byte(nil), data...)
				tag, err := testKey(t).Tag(ct, addr, counter)
				if err != nil {
					t.Fatal(err)
				}
				lane := c.PackLane(tag, ct)

				_, out, err := ver.VerifyAndCorrect(ct, lane, addr, counter)
				if err != nil {
					t.Fatalf("%s: clean verify: %v", name, err)
				}
				if !out.OK || !bytes.Equal(ct, data) {
					t.Fatalf("%s: intact block rejected or mutated: %+v", name, out)
				}

				ct[bit/8] ^= 1 << uint(bit%8)
				_, out, err = ver.VerifyAndCorrect(ct, lane, addr, counter)
				if err != nil {
					t.Fatalf("%s: faulted verify: %v", name, err)
				}
				if out.OK && !bytes.Equal(ct, data) {
					t.Fatalf("%s: silent single-bit escape at bit %d", name, bit)
				}
				if !out.OK {
					t.Fatalf("%s: budget-2 verifier failed to correct a single bit (bit %d)", name, bit)
				}
			}
		}
	})
}

package macecc

import (
	"bytes"
	"math/rand"
	"testing"

	"authmem/internal/ecc"
)

func lookupMACCodec(t testing.TB) ecc.MACCodec {
	t.Helper()
	cod, err := ecc.Lookup(ecc.DefaultFor(true))
	if err != nil {
		t.Fatal(err)
	}
	return cod
}

// TestCodecIdentity: the shim's slot holds this package's lane under
// CodecName, and its verifier validates like NewVerifier.
func TestCodecIdentity(t *testing.T) {
	mcod := lookupMACCodec(t)
	if mcod.Name() != CodecName {
		t.Fatalf("Name() = %q, want %q", mcod.Name(), CodecName)
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
// bytes and lanes — across clean, correctable, and uncorrectable inputs.
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

// FuzzCodecEquivalence drives both placements' codecs — ecc.EncodeBlock/
// DecodeBlock's SEC-DED(72,64) check bytes and this package's MAC-in-ECC
// Verifier — through the same sealed-block-plus-single-fault scenario and
// enforces the cross-codec contract the engine relies on:
//
//   - an intact block verifies cleanly under both codecs;
//   - a single flipped data bit is never a silent escape under either:
//     both must repair it in place to the exact original bytes.
//
// The fuzzer varies the block contents, the fault position, and the MAC
// (addr, counter) binding.
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

		// Inline placement: SEC-DED check bytes beside the tag.
		blk := append([]byte(nil), data...)
		check, err := ecc.EncodeBlock(blk)
		if err != nil {
			t.Fatalf("%s: encode: %v", ecc.CodecName, err)
		}
		out, err := ecc.DecodeBlock(blk, &check)
		if err != nil {
			t.Fatalf("%s: clean decode: %v", ecc.CodecName, err)
		}
		if !out.Clean() || !bytes.Equal(blk, data) {
			t.Fatalf("%s: intact block flagged or mutated: %+v", ecc.CodecName, out)
		}
		blk[bit/8] ^= 1 << uint(bit%8)
		out, err = ecc.DecodeBlock(blk, &check)
		if err != nil {
			t.Fatalf("%s: faulted decode: %v", ecc.CodecName, err)
		}
		// A single-bit fault is never silently accepted, and the block
		// code restores the exact original.
		if out.Clean() && !bytes.Equal(blk, data) {
			t.Fatalf("%s: silent single-bit escape at bit %d", ecc.CodecName, bit)
		}
		if out.CorrectedBits != 1 || !bytes.Equal(blk, data) {
			t.Fatalf("%s: single-bit fault at bit %d not repaired: %+v", ecc.CodecName, bit, out)
		}

		// MAC-in-ECC placement: the lane carries the MAC.
		ver := testVerifier(t, 2)
		ct := append([]byte(nil), data...)
		tag, err := testKey(t).Tag(ct, addr, counter)
		if err != nil {
			t.Fatal(err)
		}
		lane := PackMeta(tag, ct)
		vout, err := ver.VerifyAndCorrect(ct, &lane, addr, counter)
		if err != nil {
			t.Fatalf("%s: clean verify: %v", CodecName, err)
		}
		if vout.Status != OK || !bytes.Equal(ct, data) {
			t.Fatalf("%s: intact block rejected or mutated: %+v", CodecName, vout)
		}
		ct[bit/8] ^= 1 << uint(bit%8)
		vout, err = ver.VerifyAndCorrect(ct, &lane, addr, counter)
		if err != nil {
			t.Fatalf("%s: faulted verify: %v", CodecName, err)
		}
		if vout.Status == OK && !bytes.Equal(ct, data) {
			t.Fatalf("%s: silent single-bit escape at bit %d", CodecName, bit)
		}
		if vout.Status != OK {
			t.Fatalf("%s: budget-2 verifier failed to correct a single bit (bit %d)", CodecName, bit)
		}
	})
}

package crypto_test

// Differential fuzzing of the production kernels against the reference. The
// conformance suite diffs the two over fixed grids; these targets let the
// fuzzer hunt for (key, addr, counter, data) combinations where
// crypto.Stream / crypto.MAC diverge from refPad / refTag — lane-byte
// aliasing in the nonce layout, span-loop offset bugs, carry bugs in the
// GF(2^64) hash. Committed seeds under testdata/fuzz pin the known-tricky
// shapes (zero hash key, max 56-bit counter, partial and whole groups); CI
// runs each target for a short smoke window on every push. The targets keep
// the names (and corpus format) they had when they compared three
// selectable backends.

import (
	"bytes"
	"testing"
)

// fuzzKeyMaterial expands a seed byte into 40 bytes of key material.
// keySeed==0 produces an all-zero hash key, exercising the h==0 -> 1
// substitution both implementations must apply identically.
func fuzzKeyMaterial(keySeed byte) []byte {
	k := make([]byte, 40)
	if keySeed == 0 {
		return k
	}
	for i := range k {
		k[i] = byte(i)*7 ^ keySeed
	}
	return k
}

// FuzzBackendPadEquivalence: the production keystream and XORBlocks output
// over an arbitrary span must be bit-identical to the reference, over the span
// and over its first block alone.
func FuzzBackendPadEquivalence(f *testing.F) {
	f.Add(uint8(0), uint64(0), uint64(0), uint8(1), []byte{})
	f.Add(uint8(1), uint64(64), uint64(1), uint8(8), []byte("delta"))
	f.Add(uint8(7), uint64(1)<<40, uint64(1)<<56-1, uint8(9), bytes.Repeat([]byte{0xA5}, 64))
	f.Add(uint8(255), uint64(0xFFFFFFC0), uint64(127), uint8(64), []byte{0, 255})

	f.Fuzz(func(t *testing.T, keySeed uint8, addr, counter uint64, nBlocks uint8, data []byte) {
		n := int(nBlocks)%64 + 1
		span := n * blockSize
		key := fuzzKeyMaterial(keySeed)
		prod := newStream(t, key)

		src := make([]byte, span)
		for i := range src {
			if len(data) > 0 {
				src[i] = data[i%len(data)]
			}
		}

		wantPad := make([]byte, span)
		for off := 0; off < span; off += blockSize {
			refPad(t, key[24:40], wantPad[off:off+blockSize], addr+uint64(off), counter)
		}
		wantCT := make([]byte, span)
		refXOR(t, key, wantCT, src, addr, counter)

		got := make([]byte, span)
		if err := prod.PadN(got, addr, counter); err != nil {
			t.Fatalf("PadN: %v", err)
		}
		if !bytes.Equal(got, wantPad) {
			t.Errorf("PadN(addr=%#x ctr=%#x n=%d) diverges from the reference", addr, counter, n)
		}
		if err := prod.XORBlocks(got, src, addr, counter); err != nil {
			t.Fatalf("XORBlocks: %v", err)
		}
		if !bytes.Equal(got, wantCT) {
			t.Errorf("XORBlocks(addr=%#x ctr=%#x n=%d) diverges from the reference", addr, counter, n)
		}
		if err := prod.XORBlocks(got[:blockSize], src[:blockSize], addr, counter); err != nil {
			t.Fatalf("one-block XORBlocks: %v", err)
		}
		if !bytes.Equal(got[:blockSize], wantCT[:blockSize]) {
			t.Errorf("one-block XORBlocks(addr=%#x ctr=%#x) diverges from the reference", addr, counter)
		}
	})
}

// FuzzBatchMACEquivalence: TagBatch over an arbitrary contiguous span must
// match the reference tags and the production scalar Tag, and Verify must
// accept the reference tags.
func FuzzBatchMACEquivalence(f *testing.F) {
	f.Add(uint8(0), uint64(0), uint64(0), []byte{})
	f.Add(uint8(3), uint64(64), uint64(1)<<56-1, []byte("ciphertext"))
	f.Add(uint8(9), uint64(4096), uint64(127), bytes.Repeat([]byte{0xFF}, 512))
	f.Add(uint8(42), uint64(1)<<39, uint64(1)<<55, bytes.Repeat([]byte{1, 2, 3}, 170))

	f.Fuzz(func(t *testing.T, keySeed uint8, addr, counter uint64, data []byte) {
		n := min(len(data)/blockSize+1, 64)
		cts := make([]byte, n*blockSize)
		for i := range cts {
			if len(data) > 0 {
				cts[i] = data[i%len(data)]
			}
		}
		key := fuzzKeyMaterial(keySeed)
		prod := newMAC(t, key)

		got := make([]uint64, n)
		if err := prod.TagBatch(got, cts, addr, counter); err != nil {
			t.Fatalf("TagBatch: %v", err)
		}
		for i := 0; i < n; i++ {
			ct := cts[i*blockSize : (i+1)*blockSize]
			blockAddr := addr + uint64(i*blockSize)
			want := refTag(t, key, ct, blockAddr, counter)
			if got[i] != want {
				t.Errorf("TagBatch block %d (addr=%#x ctr=%#x) = %#x, reference %#x", i, addr, counter, got[i], want)
			}
			scalar, err := prod.Tag(ct, blockAddr, counter)
			if err != nil {
				t.Fatalf("Tag block %d: %v", i, err)
			}
			if scalar != got[i] {
				t.Errorf("scalar Tag block %d = %#x, TagBatch %#x", i, scalar, got[i])
			}
			if ok, err := prod.Verify(ct, blockAddr, counter, want); err != nil || !ok {
				t.Errorf("Verify of the reference tag for block %d failed (%v, %v)", i, ok, err)
			}
		}
	})
}

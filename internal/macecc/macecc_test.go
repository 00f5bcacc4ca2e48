package macecc

import (
	"bytes"
	"math/rand"
	"testing"

	"authmem/internal/crypto"
	"authmem/internal/ecc"
)

func testKey(t testing.TB) *crypto.MAC {
	t.Helper()
	material := make([]byte, 24)
	for i := range material {
		material[i] = byte(i*11 + 5)
	}
	k, err := crypto.NewMAC(material)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func testVerifier(t testing.TB, correctBits int) *Verifier {
	t.Helper()
	v, err := NewVerifier(testKey(t), correctBits)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// protect builds a (ciphertext, meta) pair for a random block.
func protect(t testing.TB, v *Verifier, seed int64, addr, counter uint64) ([]byte, Meta) {
	t.Helper()
	ct := make([]byte, BlockSize)
	rand.New(rand.NewSource(seed)).Read(ct)
	tag, err := v.key.Tag(ct, addr, counter)
	if err != nil {
		t.Fatal(err)
	}
	return ct, PackMeta(tag, ct)
}

func TestNewVerifierValidation(t *testing.T) {
	if _, err := NewVerifier(nil, 2); err == nil {
		t.Fatal("nil key should fail")
	}
	if _, err := NewVerifier(testKey(t), 3); err == nil {
		t.Fatal("budget 3 should fail")
	}
	if _, err := NewVerifier(testKey(t), -1); err == nil {
		t.Fatal("budget -1 should fail")
	}
}

func TestMetaLayout(t *testing.T) {
	ct := make([]byte, BlockSize)
	ct[0] = 0x01 // odd parity
	tag := uint64(0x00DE_ADBE_EFCA_FEBA)
	m := PackMeta(tag, ct)
	if m.Tag() != tag&ecc.TagMask {
		t.Fatalf("Tag() = %#x", m.Tag())
	}
	if m.Check() != ecc.MAC63.Encode(tag&ecc.TagMask) {
		t.Fatalf("Check() = %#x", m.Check())
	}
	if m.ScrubParity() != 1 {
		t.Fatalf("ScrubParity() = %d, want 1", m.ScrubParity())
	}
	// All 64 bits accounted for: reconstructing from parts is lossless.
	rebuilt := Meta(m.Tag() | uint64(m.Check())<<56 | uint64(m.ScrubParity())<<63)
	if rebuilt != m {
		t.Fatalf("layout not bijective: %#x vs %#x", rebuilt, m)
	}
}

func TestCleanBlockVerifies(t *testing.T) {
	v := testVerifier(t, 2)
	ct, meta := protect(t, v, 1, 0x1000, 7)
	out, err := v.VerifyAndCorrect(ct, &meta, 0x1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != OK || out.CorrectedDataBits != 0 || out.CorrectedMACBits != 0 {
		t.Fatalf("outcome %+v", out)
	}
	if out.HardwareChecks != 1 {
		t.Fatalf("clean pass cost %d checks", out.HardwareChecks)
	}
}

func TestBlockSizeValidation(t *testing.T) {
	v := testVerifier(t, 2)
	var meta Meta
	if _, err := v.VerifyAndCorrect(make([]byte, 32), &meta, 0, 0); err == nil {
		t.Fatal("short block should fail")
	}
}

func TestCorrectsEverySingleDataBit(t *testing.T) {
	v := testVerifier(t, 1)
	ct, meta := protect(t, v, 2, 0x40, 3)
	orig := append([]byte(nil), ct...)
	for bit := 0; bit < blockBits; bit += 13 { // sampled for speed
		bad := append([]byte(nil), ct...)
		bad[bit/8] ^= 1 << uint(bit%8)
		m := meta
		out, err := v.VerifyAndCorrect(bad, &m, 0x40, 3)
		if err != nil {
			t.Fatal(err)
		}
		if out.Status != OK || out.CorrectedDataBits != 1 {
			t.Fatalf("bit %d: outcome %+v", bit, out)
		}
		if !bytes.Equal(bad, orig) {
			t.Fatalf("bit %d: data not restored", bit)
		}
		if out.HardwareChecks > MaxSingleChecks {
			t.Fatalf("bit %d: %d checks exceeds single budget", bit, out.HardwareChecks)
		}
	}
}

func TestCorrectsDoubleDataBits(t *testing.T) {
	v := testVerifier(t, 2)
	ct, meta := protect(t, v, 3, 0x80, 9)
	orig := append([]byte(nil), ct...)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		i := rng.Intn(blockBits)
		j := rng.Intn(blockBits)
		for j == i {
			j = rng.Intn(blockBits)
		}
		bad := append([]byte(nil), ct...)
		bad[i/8] ^= 1 << uint(i%8)
		bad[j/8] ^= 1 << uint(j%8)
		m := meta
		out, err := v.VerifyAndCorrect(bad, &m, 0x80, 9)
		if err != nil {
			t.Fatal(err)
		}
		if out.Status != OK || out.CorrectedDataBits != 2 {
			t.Fatalf("bits (%d,%d): outcome %+v", i, j, out)
		}
		if !bytes.Equal(bad, orig) {
			t.Fatalf("bits (%d,%d): data not restored", i, j)
		}
		if out.HardwareChecks > MaxSingleChecks+MaxDoubleChecks {
			t.Fatalf("checks %d out of range", out.HardwareChecks)
		}
	}
}

// TestDoubleErrorInOneWordCorrected is the Figure 3 discriminator: standard
// SEC-DED cannot correct two flips inside one 8-byte word, but MAC-based
// flip-and-check can.
func TestDoubleErrorInOneWordCorrected(t *testing.T) {
	v := testVerifier(t, 2)
	ct, meta := protect(t, v, 5, 0, 0)
	orig := append([]byte(nil), ct...)
	ct[8] ^= 0x05 // two flips in word 1

	// Standard SEC-DED: detected, not corrected.
	check, _ := ecc.EncodeBlock(orig)
	seced := append([]byte(nil), ct...)
	outStd, _ := ecc.DecodeBlock(seced, &check)
	if outStd.Clean() {
		t.Fatal("SEC-DED should detect-not-correct a double flip in one word")
	}

	// MAC-in-ECC: corrected.
	out, err := v.VerifyAndCorrect(ct, &meta, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != OK || out.CorrectedDataBits != 2 || !bytes.Equal(ct, orig) {
		t.Fatalf("outcome %+v", out)
	}
}

func TestSingleMACBitFlipCorrected(t *testing.T) {
	v := testVerifier(t, 2)
	ct, meta := protect(t, v, 6, 0x100, 2)
	for bit := 0; bit < 63; bit += 5 { // MAC + Hamming bits (not scrub)
		m := meta.Flip(bit)
		out, err := v.VerifyAndCorrect(ct, &m, 0x100, 2)
		if err != nil {
			t.Fatal(err)
		}
		if out.Status != OK || out.CorrectedMACBits != 1 {
			t.Fatalf("meta bit %d: outcome %+v", bit, out)
		}
		if m.Tag() != meta.Tag() || m.Check() != meta.Check() {
			t.Fatalf("meta bit %d: MAC not restored", bit)
		}
	}
}

func TestDoubleMACBitFlipUncorrectable(t *testing.T) {
	v := testVerifier(t, 2)
	ct, meta := protect(t, v, 7, 0x140, 1)
	m := meta.Flip(3).Flip(44)
	out, err := v.VerifyAndCorrect(ct, &m, 0x140, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != Uncorrectable {
		t.Fatalf("double MAC corruption: outcome %+v", out)
	}
}

func TestMACFlipPlusDataFlipCorrected(t *testing.T) {
	// Figure 3's combined case: Hamming fixes the MAC, flip-and-check
	// fixes the data.
	v := testVerifier(t, 2)
	ct, meta := protect(t, v, 8, 0x180, 4)
	orig := append([]byte(nil), ct...)
	ct[20] ^= 0x08
	m := meta.Flip(30)
	out, err := v.VerifyAndCorrect(ct, &m, 0x180, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != OK || out.CorrectedMACBits != 1 || out.CorrectedDataBits != 1 {
		t.Fatalf("outcome %+v", out)
	}
	if !bytes.Equal(ct, orig) {
		t.Fatal("data not restored")
	}
}

func TestTripleDataFlipDetectedNotCorrected(t *testing.T) {
	// "Full error detection" on data (§3.3): any flip count is detected;
	// beyond the budget it is reported uncorrectable.
	v := testVerifier(t, 2)
	ct, meta := protect(t, v, 9, 0x1C0, 5)
	ct[0] ^= 0x01
	ct[17] ^= 0x10
	ct[44] ^= 0x80
	out, err := v.VerifyAndCorrect(ct, &meta, 0x1C0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != Uncorrectable {
		t.Fatalf("triple flip: outcome %+v", out)
	}
	if out.HardwareChecks != MaxSingleChecks+MaxDoubleChecks {
		t.Fatalf("exhaustive search cost %d", out.HardwareChecks)
	}
}

func TestManyBitCorruptionDetected(t *testing.T) {
	// A cold-boot style massive corruption: always detected (budget 0 =>
	// detection only, no search cost beyond the standard check).
	v := testVerifier(t, 0)
	ct, meta := protect(t, v, 10, 0x200, 6)
	rand.New(rand.NewSource(11)).Read(ct[:32])
	out, err := v.VerifyAndCorrect(ct, &meta, 0x200, 6)
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != Uncorrectable {
		t.Fatalf("outcome %+v", out)
	}
	if out.HardwareChecks != 1 {
		t.Fatalf("detection-only cost %d checks", out.HardwareChecks)
	}
}

func TestTamperDetected(t *testing.T) {
	// Security, not reliability: replacing the ciphertext wholesale (with
	// a stale or attacker-chosen value) must never verify.
	v := testVerifier(t, 2)
	_, meta := protect(t, v, 12, 0x240, 8)
	forged := make([]byte, BlockSize)
	rand.New(rand.NewSource(13)).Read(forged)
	out, err := v.VerifyAndCorrect(forged, &meta, 0x240, 8)
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != Uncorrectable {
		t.Fatal("forged block verified")
	}
}

func TestWrongCounterRejected(t *testing.T) {
	v := testVerifier(t, 2)
	ct, meta := protect(t, v, 14, 0x280, 31)
	out, err := v.VerifyAndCorrect(ct, &meta, 0x280, 30) // stale counter
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != Uncorrectable {
		t.Fatal("block verified under the wrong counter")
	}
}

func TestCorrectionBudgetZeroDetectsSingle(t *testing.T) {
	v := testVerifier(t, 0)
	ct, meta := protect(t, v, 15, 0x2C0, 2)
	ct[5] ^= 0x01
	out, err := v.VerifyAndCorrect(ct, &meta, 0x2C0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != Uncorrectable {
		t.Fatal("budget-0 verifier corrected data")
	}
}

func TestCorrectionBudgetOneRejectsDouble(t *testing.T) {
	v := testVerifier(t, 1)
	ct, meta := protect(t, v, 16, 0x300, 2)
	ct[5] ^= 0x03
	out, err := v.VerifyAndCorrect(ct, &meta, 0x300, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != Uncorrectable {
		t.Fatal("budget-1 verifier corrected a double flip")
	}
	if out.HardwareChecks != MaxSingleChecks {
		t.Fatalf("budget-1 exhaustive cost %d", out.HardwareChecks)
	}
}

func TestScrub(t *testing.T) {
	v := testVerifier(t, 2)
	ct, meta := protect(t, v, 17, 0x340, 1)
	if !Scrub(ct, meta) {
		t.Fatal("clean block failed scrub")
	}
	ct[9] ^= 0x04
	if Scrub(ct, meta) {
		t.Fatal("single flip passed scrub")
	}
	ct[9] ^= 0x40 // second flip: parity is blind to even flip counts
	if !Scrub(ct, meta) {
		t.Fatal("scrub parity should miss even flip counts")
	}
}

func TestScrubRefreshedAfterCorrection(t *testing.T) {
	v := testVerifier(t, 2)
	ct, meta := protect(t, v, 18, 0x380, 3)
	ct[2] ^= 0x02
	if _, err := v.VerifyAndCorrect(ct, &meta, 0x380, 3); err != nil {
		t.Fatal(err)
	}
	if !Scrub(ct, meta) {
		t.Fatal("scrub bit stale after correction")
	}
}

func TestPairRank(t *testing.T) {
	// The rank of the first pair is 1; the last pair is C(512,2).
	if pairRank(0, 1) != 1 {
		t.Fatalf("pairRank(0,1) = %d", pairRank(0, 1))
	}
	if pairRank(blockBits-2, blockBits-1) != MaxDoubleChecks {
		t.Fatalf("pairRank(last) = %d, want %d",
			pairRank(blockBits-2, blockBits-1), MaxDoubleChecks)
	}
	// Strictly increasing in lexicographic order across a sample.
	prev := 0
	for i := 0; i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			r := pairRank(i, j)
			if r <= prev {
				t.Fatalf("pairRank(%d,%d)=%d not increasing", i, j, r)
			}
			prev = r
		}
	}
}

func TestStatusString(t *testing.T) {
	if OK.String() != "ok" || Uncorrectable.String() != "uncorrectable" {
		t.Fatal("status names wrong")
	}
	if Status(9).String() != "Status(9)" {
		t.Fatal("unknown status name wrong")
	}
}

func BenchmarkVerifyClean(b *testing.B) {
	v := testVerifier(b, 2)
	ct, meta := protect(b, v, 20, 0x400, 1)
	b.SetBytes(BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := meta
		if _, err := v.VerifyAndCorrect(ct, &m, 0x400, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCorrectSingleBit(b *testing.B) {
	v := testVerifier(b, 2)
	ct, meta := protect(b, v, 21, 0x440, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bad := append([]byte(nil), ct...)
		bad[37] ^= 0x10
		m := meta
		if _, err := v.VerifyAndCorrect(bad, &m, 0x440, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCorrectDoubleBit(b *testing.B) {
	v := testVerifier(b, 2)
	ct, meta := protect(b, v, 22, 0x480, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bad := append([]byte(nil), ct...)
		bad[3] ^= 0x01
		bad[60] ^= 0x80
		m := meta
		if _, err := v.VerifyAndCorrect(bad, &m, 0x480, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func TestScrubMeta(t *testing.T) {
	v := testVerifier(t, 2)
	ct, meta := protect(t, v, 30, 0x500, 2)
	_ = ct
	if !ScrubMeta(meta) {
		t.Fatal("clean meta failed scrub")
	}
	// Any single flip in the 63 protected bits toggles the parity.
	for bit := 0; bit < 63; bit++ {
		if ScrubMeta(meta.Flip(bit)) {
			t.Fatalf("meta bit %d flip passed scrub", bit)
		}
	}
	// The data scrub bit (bit 63) is outside the MAC codeword.
	if !ScrubMeta(meta.Flip(63)) {
		t.Fatal("data scrub bit should not affect meta scrub")
	}
	// Even-weight faults evade the parity screen, by design.
	if !ScrubMeta(meta.Flip(3).Flip(44)) {
		t.Fatal("double flip should evade the meta parity screen")
	}
}

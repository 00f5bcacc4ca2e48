package macecc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"authmem/internal/ecc"
)

// SequentialVerifier is the literal hardware algorithm of §3.4: on a MAC
// mismatch it flips each candidate bit (then each candidate pair) and
// recomputes the full MAC, in the exact order a sequential engine would.
//
// It is test code: the executable specification the production Verifier is
// cross-validated against (the fast path replaces MAC recomputation with
// precomputed per-bit tag contributions). The double-error search here
// costs up to 130,816 MAC computations.
type SequentialVerifier struct {
	// Inner supplies the key and the correction budget.
	Inner *Verifier
}

// VerifyAndCorrect mirrors Verifier.VerifyAndCorrect bit for bit, including
// the HardwareChecks accounting, but by brute force.
func (v *SequentialVerifier) VerifyAndCorrect(ciphertext []byte, meta *Meta, addr, counter uint64) (Outcome, error) {
	if len(ciphertext) != BlockSize {
		return Outcome{}, fmt.Errorf("macecc: ciphertext must be %d bytes", BlockSize)
	}
	var out Outcome

	tag, _, res := ecc.MAC63.Decode((*meta).Tag(), (*meta).Check())
	switch res {
	case ecc.OK:
	case ecc.CorrectedData, ecc.CorrectedCheck:
		out.CorrectedMACBits = 1
		*meta = (*meta).withTag(tag)
	default:
		out.Status = Uncorrectable
		return out, nil
	}

	check := func() (bool, error) {
		got, err := v.Inner.key.Tag(ciphertext, addr, counter)
		if err != nil {
			return false, err
		}
		return got == tag, nil
	}

	ok, err := check()
	if err != nil {
		return Outcome{}, err
	}
	out.HardwareChecks = 1
	if ok {
		out.Status = OK
		return out, nil
	}

	flip := func(pos int) {
		w, b := pos/64, pos%64
		ciphertext[w*8+b/8] ^= 1 << uint(b%8)
	}

	if v.Inner.CorrectBits >= 1 {
		for i := 0; i < blockBits; i++ {
			flip(i)
			ok, err := check()
			if err != nil {
				return Outcome{}, err
			}
			if ok {
				*meta = PackMeta(tag, ciphertext)
				out.CorrectedDataBits = 1
				out.Status = OK
				out.HardwareChecks = i + 1
				return out, nil
			}
			flip(i)
		}
		out.HardwareChecks = MaxSingleChecks
	}

	if v.Inner.CorrectBits >= 2 {
		rank := 0
		for i := 0; i < blockBits; i++ {
			flip(i)
			for j := i + 1; j < blockBits; j++ {
				rank++
				flip(j)
				ok, err := check()
				if err != nil {
					return Outcome{}, err
				}
				if ok {
					*meta = PackMeta(tag, ciphertext)
					out.CorrectedDataBits = 2
					out.Status = OK
					out.HardwareChecks = MaxSingleChecks + rank
					return out, nil
				}
				flip(j)
			}
			flip(i)
		}
		out.HardwareChecks = MaxSingleChecks + MaxDoubleChecks
	}

	out.Status = Uncorrectable
	return out, nil
}

// TestFastMatchesSequential cross-validates the algebraic flip-and-check
// accelerator against the literal brute-force specification on random fault
// patterns: same status, same corrections, same restored data, same
// hardware-cost accounting.
func TestFastMatchesSequential(t *testing.T) {
	fast := testVerifier(t, 2)
	seq := &SequentialVerifier{Inner: fast}
	rng := rand.New(rand.NewSource(42))

	for trial := 0; trial < 60; trial++ {
		ct := make([]byte, BlockSize)
		rng.Read(ct)
		addr, counter := uint64(trial)*64, uint64(trial)
		tag, err := fast.key.Tag(ct, addr, counter)
		if err != nil {
			t.Fatal(err)
		}
		meta := PackMeta(tag, ct)

		// Random fault: 0..3 data flips, 0..1 MAC flips.
		bad := append([]byte(nil), ct...)
		nData := rng.Intn(4)
		for _, b := range rng.Perm(blockBits)[:nData] {
			bad[b/8] ^= 1 << uint(b%8)
		}
		badMeta := meta
		if rng.Intn(2) == 1 {
			badMeta = badMeta.Flip(rng.Intn(63))
		}

		fCT := append([]byte(nil), bad...)
		fMeta := badMeta
		fOut, err := fast.VerifyAndCorrect(fCT, &fMeta, addr, counter)
		if err != nil {
			t.Fatal(err)
		}
		sCT := append([]byte(nil), bad...)
		sMeta := badMeta
		sOut, err := seq.VerifyAndCorrect(sCT, &sMeta, addr, counter)
		if err != nil {
			t.Fatal(err)
		}

		if fOut != sOut {
			t.Fatalf("trial %d (%d data flips): fast %+v, sequential %+v",
				trial, nData, fOut, sOut)
		}
		if !bytes.Equal(fCT, sCT) || fMeta != sMeta {
			t.Fatalf("trial %d: repaired states diverge", trial)
		}
		if fOut.Status == OK && nData <= 2 && !bytes.Equal(fCT, ct) {
			t.Fatalf("trial %d: correction did not restore the original", trial)
		}
	}
}

func TestSequentialValidatesInput(t *testing.T) {
	seq := &SequentialVerifier{Inner: testVerifier(t, 2)}
	var meta Meta
	if _, err := seq.VerifyAndCorrect(make([]byte, 10), &meta, 0, 0); err == nil {
		t.Fatal("short block should fail")
	}
}

func TestSequentialDoubleMACCorruption(t *testing.T) {
	seq := &SequentialVerifier{Inner: testVerifier(t, 2)}
	ct, meta := protect(t, seq.Inner, 99, 0, 0)
	m := meta.Flip(1).Flip(50)
	out, err := seq.VerifyAndCorrect(ct, &m, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != Uncorrectable {
		t.Fatalf("outcome %+v", out)
	}
}

package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"authmem/internal/ctr"
)

// This file walks the paper's §2 threat taxonomy end to end against the
// functional engine: snooping (confidentiality), spoofing, splicing, and
// replay. Replay is covered in engine_test.go and integration_test.go.

// TestConfidentialityNoTwoTimePad: the core counter-mode invariant. Writing
// the same plaintext twice to the same block, or to two different blocks,
// must produce unrelated ciphertexts — otherwise XOR of ciphertexts leaks
// XOR of plaintexts to a bus snooper.
func TestConfidentialityNoTwoTimePad(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	pt := block(7)

	if err := e.Write(0, pt); err != nil {
		t.Fatal(err)
	}
	first := *(*[BlockBytes]byte)(e.store.Ciphertext(0))
	if err := e.Write(0, pt); err != nil {
		t.Fatal(err)
	}
	second := *(*[BlockBytes]byte)(e.store.Ciphertext(0))
	if first == second {
		t.Fatal("same ciphertext for two writes of one plaintext (pad reuse)")
	}

	if err := e.Write(64, pt); err != nil {
		t.Fatal(err)
	}
	other := *(*[BlockBytes]byte)(e.store.Ciphertext(1))
	if other == second {
		t.Fatal("same ciphertext at two addresses (address not in the pad)")
	}

	// The XOR of the two ciphertexts must not collapse to the XOR of the
	// plaintexts (zero here, same plaintext): i.e. pads differ in nearly
	// every byte.
	equalBytes := 0
	for i := range first {
		if first[i] == second[i] {
			equalBytes++
		}
	}
	if equalBytes > 8 {
		t.Fatalf("pads overlap in %d/64 bytes", equalBytes)
	}
}

// TestConfidentialityCiphertextUnbiased: a low-entropy plaintext (all
// zeros) must still produce ciphertext with roughly balanced bits.
func TestConfidentialityCiphertextUnbiased(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	zero := make([]byte, BlockBytes)
	var ones, total int
	for i := uint64(0); i < 256; i++ {
		if err := e.Write(i*BlockBytes, zero); err != nil {
			t.Fatal(err)
		}
		ct := e.store.Ciphertext(i)
		for _, b := range ct {
			for bit := 0; bit < 8; bit++ {
				if b>>uint(bit)&1 == 1 {
					ones++
				}
				total++
			}
		}
	}
	frac := float64(ones) / float64(total)
	if frac < 0.48 || frac > 0.52 {
		t.Fatalf("ciphertext bit balance %.4f for zero plaintext", frac)
	}
}

// TestSpoofingRejected: the attacker overwrites a block with chosen bytes
// and its ECC lane with a guess. Without the key, the forgery cannot
// verify.
func TestSpoofingRejected(t *testing.T) {
	for _, placement := range []MACPlacement{MACInline, MACInECC} {
		e := newEngine(t, smallCfg(ctr.Delta, placement))
		if err := e.Write(0, block(8)); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(44))
		// The forgery lands in DRAM behind the engine's back; drop the
		// on-chip copy, as the Tamper* hooks do. Chosen ciphertext...
		e.bc.evict(0)
		forged := e.store.Ciphertext(0)
		rng.Read(forged)
		// ...with a random tag guess.
		if placement == MACInECC {
			e.store.SetMeta(0, e.store.Meta(0)^0xDEADBEEF)
		} else {
			e.store.SetMeta(0, e.store.Meta(0)^0xDEADBEEF)
		}
		dst := make([]byte, BlockBytes)
		var ie *IntegrityError
		if _, err := e.Read(0, dst); !errors.As(err, &ie) {
			t.Fatalf("%s: spoofed block verified: %v", placement, err)
		}
	}
}

// TestSplicingRejected: moving a valid (ciphertext, MAC) pair to a
// different address must fail for every scheme and placement, because the
// MAC binds the physical address.
func TestSplicingRejected(t *testing.T) {
	for _, cfg := range allDesignPoints() {
		name := cfg.Scheme.String() + "/" + cfg.Placement.String()
		e := newEngine(t, cfg)
		// Source and target with identical plaintext AND identical
		// counters (both written once), so only the address differs —
		// the hardest splicing variant.
		pt := block(9)
		if err := e.Write(0, pt); err != nil {
			t.Fatal(err)
		}
		if err := e.Write(64, pt); err != nil {
			t.Fatal(err)
		}
		snap, err := e.Snapshot(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Splice(snap, 64); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, BlockBytes)
		var ie *IntegrityError
		if _, err := e.Read(64, dst); !errors.As(err, &ie) {
			t.Fatalf("%s: spliced block verified: %v", name, err)
		}
		// The source block is untouched and still reads fine.
		if _, err := e.Read(0, dst); err != nil {
			t.Fatalf("%s: source block broken: %v", name, err)
		}
		if !bytes.Equal(dst, pt) {
			t.Fatalf("%s: source data wrong", name)
		}
	}
}

// TestSplicingAcrossGroups moves a block into a different block-group
// (different counter block entirely).
func TestSplicingAcrossGroups(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	if err := e.Write(0, block(10)); err != nil {
		t.Fatal(err)
	}
	target := uint64(ctr.GroupBlocks) * BlockBytes // first block of group 1
	if err := e.Write(target, block(11)); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Splice(snap, target); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockBytes)
	if _, err := e.Read(target, dst); err == nil {
		t.Fatal("cross-group splice verified")
	}
}

func TestSpliceValidation(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	snap, err := e.Snapshot(0) // fresh block: no data
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Splice(snap, 64); err == nil {
		t.Fatal("splicing an empty snapshot should fail")
	}
	if err := e.Write(0, block(12)); err != nil {
		t.Fatal(err)
	}
	snap, err = e.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Splice(snap, 13); err == nil {
		t.Fatal("unaligned target should fail")
	}
}

package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"authmem/internal/ctr"
	"authmem/internal/tree"
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
		snap := record(t, e.off, 0)
		if err := splice(e.off, snap, 64); err != nil {
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
	snap := record(t, e.off, 0)
	if err := splice(e.off, snap, target); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockBytes)
	if _, err := e.Read(target, dst); err == nil {
		t.Fatal("cross-group splice verified")
	}
}

func TestSpliceValidation(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	snap := record(t, e.off, 0)
	if err := splice(e.off, snap, 64); err == nil {
		t.Fatal("splicing an empty snapshot should fail")
	}
	if err := e.Write(0, block(12)); err != nil {
		t.Fatal(err)
	}
	snap = record(t, e.off, 0)
	if err := splice(e.off, snap, 13); err == nil {
		t.Fatal("unaligned target should fail")
	}
}

// treeNodeBytes returns node (level, index) as the attacker reads it from
// DRAM.
func treeNodeBytes(t *testing.T, e *Engine, level int, index uint64) []byte {
	t.Helper()
	phys, err := e.off.LocateNode(level, index)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, tree.NodeBytes)
	if err := e.off.ReadRaw(phys, img); err != nil {
		t.Fatal(err)
	}
	return img
}

// TestFlushRefusesRolledBackTreeNode replays a block together with its
// counter block and its level-0 tree node. The level above catches it, so
// the read fails; the attacker then waits for a write to a sibling group to
// be flushed. That flush re-MACs the rolled-back node, and if it trusted the
// node's other slots the replayed block would read back with no error. The
// flush must instead find the node tampered, repair the tree from trusted
// state, and leave block 0 unreadable as v1.
func TestFlushRefusesRolledBackTreeNode(t *testing.T) {
	for _, placement := range []MACPlacement{MACInECC, MACInline} {
		t.Run(placement.String(), func(t *testing.T) {
			cfg := smallCfg(ctr.Delta, placement)
			cfg.RegionBytes = 16 << 20
			e := newEngine(t, cfg)
			const sibling = 64 * BlockBytes
			leaf := e.scheme.MetadataBlock(0)
			if e.scheme.MetadataBlock(sibling/BlockBytes)/tree.Arity != leaf/tree.Arity {
				t.Fatal("block 64's counter leaf is not a sibling of block 0's")
			}
			parent := tree.NodeID{Level: 0, Index: leaf / tree.Arity}
			v1, v2 := block(1), block(2)

			if err := e.Write(0, v1); err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			snap := record(t, e.off, 0)
			recorded := treeNodeBytes(t, e, parent.Level, parent.Index)
			if err := e.Write(0, v2); err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}

			if err := replay(e.off, snap); err != nil {
				t.Fatal(err)
			}
			now := treeNodeBytes(t, e, parent.Level, parent.Index)
			for bit := 0; bit < tree.NodeBytes*8; bit++ {
				if (now[bit/8]^recorded[bit/8])>>(bit%8)&1 == 1 {
					if err := flipNode(e.off, parent, bit); err != nil {
						t.Fatal(err)
					}
				}
			}
			dst := make([]byte, BlockBytes)
			if _, err := e.Read(0, dst); err == nil {
				t.Fatal("replayed block with its rolled-back node reads without error")
			}

			before := e.Stats()
			if err := e.Write(sibling, block(3)); err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatalf("flush through the rolled-back node: %v", err)
			}
			after := e.Stats()
			if _, err := e.Read(0, dst); err == nil {
				t.Fatalf("replayed block reads without error after a sibling flush (v1 returned: %v)", bytes.Equal(dst, v1))
			}
			if after.IntegrityFailures != before.IntegrityFailures+1 || after.MetadataRepairs != before.MetadataRepairs+1 {
				t.Fatalf("flush banked %d integrity failures and %d repairs, want 1 and 1",
					after.IntegrityFailures-before.IntegrityFailures, after.MetadataRepairs-before.MetadataRepairs)
			}
			if _, err := e.Read(sibling, dst); err != nil || !bytes.Equal(dst, block(3)) {
				t.Fatalf("sibling write lost in the repair: %v", err)
			}
		})
	}
}

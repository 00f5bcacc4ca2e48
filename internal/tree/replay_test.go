package tree

import (
	"bytes"
	"errors"
	"testing"
)

// TestUpdateRefusesRolledBackNode is the replay an update must not launder.
// The attacker records leaf 0's off-chip path while it holds v1, lets v2 be
// written, and writes the recorded nodes back: VerifyLeaf(0, v1) fails,
// because the trusted level above no longer matches. An update of a sibling
// leaf then re-MACs the rolled-back nodes; if it trusted their other slots,
// the new MACs would vouch for v1 again. Every mutator must instead fail
// with *ErrTampered and leave every stored byte as it was.
func TestUpdateRefusesRolledBackNode(t *testing.T) {
	const leaves = 4096 // three off-chip levels under a two-node on-chip level
	v1, v2 := leafImg(1000), leafImg(2000)
	mutators := []struct {
		name   string
		update func(tr *Tree) error
	}{
		{"UpdateLeaf", func(tr *Tree) error { _, err := tr.UpdateLeaf(1, leafImg(3)); return err }},
		{"UpdateLeafFast", func(tr *Tree) error { return tr.UpdateLeafFast(1, leafImg(3)) }},
		{"UpdateLeaves", func(tr *Tree) error {
			return tr.UpdateLeaves([]uint64{leaves - 1, 1, 2, 1}, leafImg)
		}},
	}
	rollbacks := []struct {
		name   string
		levels int // off-chip levels written back, from level 0 up
	}{{"parent", 1}, {"whole path", 3}}
	for _, m := range mutators {
		for _, rb := range rollbacks {
			t.Run(m.name+"/"+rb.name, func(t *testing.T) {
				tr := buildTree(t, leaves, 2*NodeBytes)
				if tr.OffChipLevels() != 3 {
					t.Fatalf("geometry has %d off-chip levels, want 3", tr.OffChipLevels())
				}
				if err := tr.UpdateLeafFast(0, v1); err != nil {
					t.Fatal(err)
				}
				recorded := make([][]byte, rb.levels)
				for k := range recorded {
					recorded[k] = bytes.Clone(tr.node(k, 0))
				}
				if err := tr.UpdateLeafFast(0, v2); err != nil {
					t.Fatal(err)
				}
				for k, img := range recorded {
					copy(tr.node(k, 0), img)
				}
				if _, err := tr.VerifyLeaf(0, v1); err == nil {
					t.Fatal("rolled-back path verifies v1 before any update")
				}
				var before, after bytes.Buffer
				if _, err := tr.WriteTo(&before); err != nil {
					t.Fatal(err)
				}
				digest := tr.TopDigest()

				err := m.update(tr)
				var te *ErrTampered
				if !errors.As(err, &te) {
					t.Fatalf("update through a rolled-back node returned %v, want *ErrTampered", err)
				}
				if want := rb.levels; te.Level != want {
					t.Fatalf("tamper reported at level %d, want %d (the top-most rolled-back node)", te.Level, want)
				}
				if _, err := tr.WriteTo(&after); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(before.Bytes(), after.Bytes()) {
					t.Fatal("refused update wrote to the tree")
				}
				if tr.TopDigest() != digest {
					t.Fatal("refused update moved the top digest")
				}
				if _, err := tr.VerifyLeaf(0, v1); err == nil {
					t.Fatal("replayed v1 verifies after the sibling update")
				}
			})
		}
	}
}

// TestNewTreeIsConsistent pins the mutators' precondition from construction:
// a tree straight from New vouches for all-zero leaves and accepts updates
// without a Rebuild.
func TestNewTreeIsConsistent(t *testing.T) {
	tr, err := New(testKey(t), 4096, 2*NodeBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.VerifyLeafFast(4095, make([]byte, NodeBytes)); err != nil {
		t.Fatalf("fresh tree rejects a zero leaf: %v", err)
	}
	if err := tr.UpdateLeaves([]uint64{7, 4095, 0}, leafImg); err != nil {
		t.Fatalf("fresh tree refuses an update: %v", err)
	}
	for _, i := range []uint64{0, 7, 4095} {
		if err := tr.VerifyLeafFast(i, leafImg(i)); err != nil {
			t.Fatalf("leaf %d after update: %v", i, err)
		}
	}
}

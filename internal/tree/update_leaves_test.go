package tree

import (
	"bytes"
	"math/rand"
	"testing"

	"authmem/internal/crypto"
)

func updateTestKey(t *testing.T) *crypto.MAC {
	t.Helper()
	material := make([]byte, 24)
	for i := range material {
		material[i] = byte(i*31 + 7)
	}
	k, err := crypto.NewMAC(material)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// treeState serializes a tree's node levels for whole-state comparison.
func treeState(t *testing.T, tr *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUpdateLeavesMatchesPerLeaf drives a batched update and the equivalent
// per-leaf updates over identical trees and requires bit-identical node
// state, across several geometries and batch shapes (random subsets,
// duplicates, sibling-heavy clusters, the full leaf set).
func TestUpdateLeavesMatchesPerLeaf(t *testing.T) {
	key := updateTestKey(t)
	rng := rand.New(rand.NewSource(41))

	for _, leaves := range []uint64{1, 7, 8, 9, 64, 513, 4096} {
		images := make(map[uint64][]byte)
		imageOf := func(i uint64) []byte {
			img, ok := images[i]
			if !ok {
				img = make([]byte, NodeBytes)
				images[i] = img
			}
			return img
		}

		a, err := New(key, leaves, 3<<10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(key, leaves, 3<<10)
		if err != nil {
			t.Fatal(err)
		}

		batches := [][]uint64{
			nil,                   // empty batch: no-op
			{0},                   // single leaf: the fast-path delegation
			{0, 0, leaves - 1, 0}, // duplicates
		}
		// Sibling-heavy cluster plus a random scatter.
		var cluster []uint64
		for i := uint64(0); i < leaves && i < 24; i++ {
			cluster = append(cluster, i)
		}
		batches = append(batches, cluster)
		var scatter []uint64
		for i := 0; i < 32; i++ {
			scatter = append(scatter, rng.Uint64()%leaves)
		}
		batches = append(batches, scatter)
		full := make([]uint64, leaves)
		for i := range full {
			full[i] = uint64(i)
		}
		batches = append(batches, full)

		for bi, batch := range batches {
			for _, i := range batch {
				rng.Read(imageOf(i))
			}
			for _, i := range batch {
				if err := a.UpdateLeafFast(i, imageOf(i)); err != nil {
					t.Fatal(err)
				}
			}
			// UpdateLeaves uses its argument as scratch; pass a copy so the
			// batch stays comparable across iterations.
			scratch := append([]uint64(nil), batch...)
			if err := b.UpdateLeaves(scratch, imageOf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(treeState(t, a), treeState(t, b)) {
				t.Fatalf("leaves=%d batch %d: batched update diverged from per-leaf updates", leaves, bi)
			}
			for _, i := range batch {
				if err := b.VerifyLeafFast(i, imageOf(i)); err != nil {
					t.Fatalf("leaves=%d batch %d: leaf %d fails verification after batch update: %v", leaves, bi, i, err)
				}
			}
		}
	}
}

// TestUpdateLeavesRejectsBadInput pins the error paths: out-of-range leaves
// and wrong-size images must fail, as the per-leaf path does.
func TestUpdateLeavesRejectsBadInput(t *testing.T) {
	key := updateTestKey(t)
	tr, err := New(key, 16, 3<<10)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, NodeBytes)
	if err := tr.UpdateLeaves([]uint64{3, 99}, func(uint64) []byte { return img }); err == nil {
		t.Fatal("out-of-range leaf accepted")
	}
	short := make([]byte, NodeBytes-1)
	if err := tr.UpdateLeaves([]uint64{3, 4}, func(uint64) []byte { return short }); err == nil {
		t.Fatal("short image accepted")
	}
}

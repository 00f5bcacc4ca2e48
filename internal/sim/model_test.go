package sim

import (
	"slices"
	"testing"

	"authmem/internal/core"
	"authmem/internal/crypto"
	"authmem/internal/ctr"
	"authmem/internal/dram"
	"authmem/internal/tree"
)

// TestModelWalksEngineTree: at every design point (4 schemes × 2 placements)
// the model's integrity tree is the engine's, and under the model-only
// classic design it is a tree over DataBlocks + MetadataBlocks leaves, data
// leaves first. Level and node counts agree; every block's counter (and,
// classic, the block itself) sits on the leaf the tree verifies it under; and
// for every leaf, the off-chip nodes the model fetches are the nodes the
// tree's VerifyLeaf reads, mapped through FlatIndex.
func TestModelWalksEngineTree(t *testing.T) {
	var points []TimingConfig
	for _, kind := range []ctr.Kind{ctr.Monolithic, ctr.Split, ctr.Delta, ctr.DualLength} {
		for _, p := range []core.MACPlacement{core.MACInline, core.MACInECC} {
			points = append(points, Table1(core.Default(kind, p)))
		}
	}
	classic := Table1(core.Default(ctr.Split, core.MACInline))
	classic.DataTree = true
	points = append(points, classic)

	zero := make([]byte, core.BlockBytes)
	for _, cfg := range points {
		cfg.RegionBytes = 1 << 20
		cfg.OnChipTreeBytes = 64 // one on-chip node: every other level is walked
		name := cfg.Scheme.String() + "/" + cfg.Placement.String()
		// tr is the tree the design point verifies against, and leafOf the
		// leaf it verifies block blk's counter under.
		var tr *tree.Tree
		var leafOf func(blk uint64) uint64
		if cfg.DataTree {
			name += "/data-tree"
			key, err := crypto.NewMAC(cfg.KeyMaterial[:24])
			if err != nil {
				t.Fatal(err)
			}
			scheme, err := ctr.NewScheme(cfg.Scheme)
			if err != nil {
				t.Fatal(err)
			}
			if tr, err = tree.New(key, cfg.DataBlocks()+scheme.MetadataBlocks(cfg.DataBlocks()), cfg.OnChipTreeBytes); err != nil {
				t.Fatal(err)
			}
			leafOf = func(blk uint64) uint64 { return cfg.DataBlocks() + scheme.MetadataBlock(blk) }
		} else {
			eng, err := core.NewEngine(cfg.Config)
			if err != nil {
				t.Fatal(err)
			}
			tr = eng.Tree()
			leafOf = func(blk uint64) uint64 { return eng.MetadataIndex(blk * core.BlockBytes) }
		}
		tm, err := NewTimingModel(cfg, dram.MustNew(dram.DDR3_1600(4)))
		if err != nil {
			t.Fatal(err)
		}
		if tm.shape.Leaves() != tr.Leaves() || tm.shape.Levels() != tr.Levels() {
			t.Fatalf("%s: model %d leaves / %d levels, tree %d / %d",
				name, tm.shape.Leaves(), tm.shape.Levels(), tr.Leaves(), tr.Levels())
		}
		for k := 0; k < tr.Levels(); k++ {
			if tm.shape.NodesAtLevel(k) != tr.NodesAtLevel(k) {
				t.Fatalf("%s: level %d has %d nodes in the model, %d in the tree",
					name, k, tm.shape.NodesAtLevel(k), tr.NodesAtLevel(k))
			}
		}
		for blk := uint64(0); blk < cfg.DataBlocks(); blk++ {
			if got, want := tm.metaLeaf(tm.scheme.MetadataBlock(blk)), leafOf(blk); got != want {
				t.Fatalf("%s: block %d's counter on leaf %d in the model, %d in the tree", name, blk, got, want)
			}
		}
		// A fresh tree's leaves all hold zero images, so each verifies and
		// VerifyLeaf reports its whole path.
		for leaf := uint64(0); leaf < tr.Leaves(); leaf++ {
			read, err := tr.VerifyLeaf(leaf, zero)
			if err != nil {
				t.Fatalf("%s: leaf %d: %v", name, leaf, err)
			}
			want := make([]uint64, len(read))
			for i, id := range read {
				want[i] = tr.FlatIndex(id)
			}
			if got := tm.shape.Path(leaf, nil); !slices.Equal(got, want) {
				t.Fatalf("%s: leaf %d: model walks %v, tree reads %v", name, leaf, got, want)
			}
		}
	}
}

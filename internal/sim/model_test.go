package sim

import (
	"slices"
	"testing"

	"authmem/internal/core"
	"authmem/internal/ctr"
	"authmem/internal/dram"
)

// TestModelWalksEngineTree: at every design point (4 schemes × 2 placements,
// plus the classic data tree) the model's integrity tree is the engine's.
// Level and node counts agree; every block's counter sits on the leaf the
// engine verifies it under; and for every leaf, the off-chip nodes the model
// fetches are the nodes the engine's VerifyLeaf reads, mapped through
// FlatIndex.
func TestModelWalksEngineTree(t *testing.T) {
	var points []core.Config
	for _, kind := range []ctr.Kind{ctr.Monolithic, ctr.Split, ctr.Delta, ctr.DualLength} {
		for _, p := range []core.MACPlacement{core.MACInline, core.MACInECC} {
			points = append(points, core.Default(kind, p))
		}
	}
	classic := core.Default(ctr.Split, core.MACInline)
	classic.DataTree = true
	points = append(points, classic)

	zero := make([]byte, core.BlockBytes)
	for _, cfg := range points {
		cfg.RegionBytes = 1 << 20
		cfg.OnChipTreeBytes = 64 // one on-chip node: every other level is walked
		name := cfg.Scheme.String() + "/" + cfg.Placement.String()
		if cfg.DataTree {
			name += "/data-tree"
		}
		eng, err := core.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := NewTimingModel(Table1(cfg), dram.MustNew(dram.DDR3_1600(4)))
		if err != nil {
			t.Fatal(err)
		}
		tr := eng.Tree()
		if tm.shape.Leaves() != tr.Leaves() || tm.shape.Levels() != tr.Levels() {
			t.Fatalf("%s: model %d leaves / %d levels, engine %d / %d",
				name, tm.shape.Leaves(), tm.shape.Levels(), tr.Leaves(), tr.Levels())
		}
		for k := 0; k < tr.Levels(); k++ {
			if tm.shape.NodesAtLevel(k) != tr.NodesAtLevel(k) {
				t.Fatalf("%s: level %d has %d nodes in the model, %d in the engine",
					name, k, tm.shape.NodesAtLevel(k), tr.NodesAtLevel(k))
			}
		}
		for blk := uint64(0); blk < cfg.DataBlocks(); blk++ {
			want := eng.MetaLeaf(eng.MetadataIndex(blk * core.BlockBytes))
			if got := tm.metaLeaf(tm.scheme.MetadataBlock(blk)); got != want {
				t.Fatalf("%s: block %d's counter on leaf %d in the model, %d in the engine", name, blk, got, want)
			}
		}
		// A fresh engine's leaves all hold zero images, so each verifies
		// and VerifyLeaf reports its whole path.
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
				t.Fatalf("%s: leaf %d: model walks %v, engine reads %v", name, leaf, got, want)
			}
		}
	}
}

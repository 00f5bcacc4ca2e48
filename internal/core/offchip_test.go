package core

import (
	"fmt"
	"testing"

	"authmem/internal/ctr"
	"authmem/internal/ecc"
	"authmem/internal/tree"
)

// surface is what the test helpers below need of an off-chip map: an
// engine's *OffChip, or a *ShardedEngine's global one.
type surface interface {
	LocateAddr(p Plane, addr uint64) (uint64, error)
	FlipBit(phys uint64, bit int) error
}

// flipAt flips one bit of the plane-p element holding the block at addr.
func flipAt(m surface, p Plane, addr uint64, bit int) error {
	phys, err := m.LocateAddr(p, addr)
	if err != nil {
		return err
	}
	return m.FlipBit(phys, bit)
}

// flipElem flips one bit of element i of plane p (a counter-image index, a
// dense tree-node index).
func flipElem(m *OffChip, p Plane, i uint64, bit int) error {
	phys, err := m.Locate(p, i)
	if err != nil {
		return err
	}
	return m.FlipBit(phys, bit)
}

// flipNode flips one bit of the off-chip tree node id.
func flipNode(m *OffChip, id tree.NodeID, bit int) error {
	phys, err := m.LocateNode(id.Level, id.Index)
	if err != nil {
		return err
	}
	return m.FlipBit(phys, bit)
}

// rawElem is one off-chip element as an attacker read it.
type rawElem struct {
	phys uint64
	b    []byte
}

// record reads what DRAM holds for the block at addr: its data, lane and
// check elements if it was ever written, and its counter image.
func record(t testing.TB, m *OffChip, addr uint64) []rawElem {
	t.Helper()
	var rec []rawElem
	for _, p := range []Plane{PlaneData, PlaneLane, PlaneCheck, PlaneCounter} {
		if m.PlaneSize(p) == 0 || p != PlaneCounter && !m.e.store.Present(addr/BlockBytes) {
			continue
		}
		phys, err := m.LocateAddr(p, addr)
		if err != nil {
			t.Fatal(err)
		}
		el := rawElem{phys, make([]byte, m.elem[p])}
		if err := m.ReadRaw(phys, el.b); err != nil {
			t.Fatal(err)
		}
		rec = append(rec, el)
	}
	return rec
}

// replay writes recorded elements back where they were read.
func replay(m *OffChip, rec []rawElem) error {
	for _, el := range rec {
		if err := m.WriteRaw(el.phys, el.b); err != nil {
			return err
		}
	}
	return nil
}

// splice writes a recording's data, lane and check elements to the block at
// addr; the counter image stays, it covers the source's group.
func splice(m *OffChip, rec []rawElem, addr uint64) error {
	moved := 0
	for _, el := range rec {
		p, _, _, err := m.Resolve(el.phys)
		if err != nil {
			return err
		}
		if p == PlaneCounter {
			continue
		}
		phys, err := m.LocateAddr(p, addr)
		if err != nil {
			return err
		}
		if err := m.WriteRaw(phys, el.b); err != nil {
			return err
		}
		moved++
	}
	if moved == 0 {
		return fmt.Errorf("recording holds no data to splice")
	}
	return nil
}

// TestAddressMapIsBijection walks every offset of every design point's map,
// at one and four shards: each resolves to the (plane, element, byte) that
// follows the previous offset's, and Locate of that element plus the byte
// gives the offset back — so the planes tile [0, Size()) with no gap and no
// overlap. The region's map is the shards' maps end to end.
func TestAddressMapIsBijection(t *testing.T) {
	for _, cfg := range allDesignPoints() {
		for _, shards := range []int{1, 4} {
			s, err := NewShardedEngine(cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/%s/%d", cfg.Scheme, cfg.Placement, shards)
			span := s.shards[0].eng.off.Size()
			var sum uint64
			for p := range numPlanes {
				sum += s.shards[0].eng.off.PlaneSize(p)
			}
			if sum != span || s.shards[0].eng.off.PlaneSize(numPlanes) != 0 {
				t.Fatalf("%s: planes sum to %d, map is %d", name, sum, span)
			}
			for sh := range s.shards {
				m, base, err := s.OffChip(sh)
				if err != nil || m.Size() != span || base != uint64(sh)*span {
					t.Fatalf("%s: shard %d map is %d bytes at %d (%v), want %d at %d", name, sh, m.Size(), base, err, span, uint64(sh)*span)
				}
				var prevP Plane
				var prevI, prevB uint64
				for phys := uint64(0); phys < m.Size(); phys++ {
					p, i, b, err := m.Resolve(phys)
					if err != nil {
						t.Fatal(err)
					}
					if phys > 0 {
						next := p == prevP && i == prevI && b == prevB+1 ||
							p == prevP && i == prevI+1 && b == 0 && prevB == m.elem[p]-1 ||
							p > prevP && i == 0 && b == 0 && prevB == m.elem[prevP]-1
						if !next {
							t.Fatalf("%s: offset %d resolves to (%s,%d,%d) after (%s,%d,%d)", name, phys, p, i, b, prevP, prevI, prevB)
						}
					}
					if loc, err := m.Locate(p, i); err != nil || loc+b != phys {
						t.Fatalf("%s: Locate(%s,%d)+%d = %d, %v; want %d", name, p, i, b, loc+b, err, phys)
					}
					if p <= PlaneCheck && b == 0 {
						if g, err := s.LocateAddr(p, uint64(sh)*s.ShardBytes()+i*BlockBytes); err != nil || g != base+phys {
							t.Fatalf("%s: shard %d LocateAddr(%s, block %d) = %d, %v; want %d", name, sh, p, i, g, err, base+phys)
						}
					}
					prevP, prevI, prevB = p, i, b
				}
				if _, _, _, err := m.Resolve(m.Size()); err == nil {
					t.Fatalf("%s: offset Size() resolved", name)
				}
			}
		}
	}
}

// TestFigure1FromLiveMap holds every field of ComputeOverhead — the paper's
// Figure 1 accounting — to the plane sizes of a live engine's map.
func TestFigure1FromLiveMap(t *testing.T) {
	for _, cfg := range allDesignPoints() {
		name := cfg.Scheme.String() + "/" + cfg.Placement.String()
		e := newEngine(t, cfg)
		m := e.OffChip()
		o, err := ComputeOverhead(cfg)
		if err != nil {
			t.Fatal(err)
		}
		data := m.PlaneSize(PlaneData)
		if o.RegionBytes != data {
			t.Errorf("%s: region %d, data plane %d", name, o.RegionBytes, data)
		}
		// The engine stores exactly what Figure 1 counts for the tree,
		// the check bytes and the grouped schemes' counter blocks.
		if o.TreeBytes != m.PlaneSize(PlaneTree) {
			t.Errorf("%s: tree %d, tree plane %d", name, o.TreeBytes, m.PlaneSize(PlaneTree))
		}
		check := m.PlaneSize(PlaneCheck)
		if cfg.Placement == MACInECC {
			check = m.PlaneSize(PlaneLane) // the lane is the ECC
		}
		if o.ECCBytes != check {
			t.Errorf("%s: ECC %d, check storage %d", name, o.ECCBytes, check)
		}
		// Figure 1 counts raw metadata bits per block, as the paper does;
		// the engine stores them in whole slots: a monolithic 56-bit
		// counter in 64 bits, delta-7's 504 group bits (a 56-bit reference
		// and 64 7-bit deltas) in one 512-bit block. Split and dual-length
		// fill their blocks, so for them the two are equal.
		scheme, err := ctr.NewScheme(cfg.Scheme)
		if err != nil {
			t.Fatal(err)
		}
		counted := scheme.MetadataBits()
		if cfg.Scheme == ctr.Monolithic {
			counted = ctr.RefBits
		}
		stored := float64(8*m.PlaneSize(PlaneCounter)) / float64(cfg.DataBlocks())
		if want := uint64(float64(m.PlaneSize(PlaneCounter)) * counted / stored); o.CounterBytes != want {
			t.Errorf("%s: counters %d, counter plane %d holds %d at %.3f of %.0f bits", name, o.CounterBytes, m.PlaneSize(PlaneCounter), want, counted, stored)
		}
		// Inline tags are 56-bit MACs in 64-bit lane slots.
		macs := uint64(0)
		if cfg.Placement == MACInline {
			macs = m.PlaneSize(PlaneLane) * ecc.TagBits / 64
		}
		if o.MACBytes != macs {
			t.Errorf("%s: MACs %d, lane plane %d", name, o.MACBytes, m.PlaneSize(PlaneLane))
		}
		// Not sizes: the read depth and the codec name the engine records.
		if codec := imageCodec(t, e); o.TreeLevels != e.Tree().OffChipLevels()+1 || o.Codec != codec {
			t.Errorf("%s: levels %d codec %s, engine %d %s", name, o.TreeLevels, o.Codec, e.Tree().OffChipLevels()+1, codec)
		}
	}
}

// TestOffChipEvictionRule holds every raw write to the one eviction rule, at
// its granularity: a data, lane or check element evicts its block from the
// block cache and nothing else; a counter image evicts its counter-cache
// line and flushes the block cache; a tree node flushes both caches. A read
// (ReadRaw) evicts nothing.
func TestOffChipEvictionRule(t *testing.T) {
	for _, placement := range []MACPlacement{MACInECC, MACInline} {
		cfg := smallCfg(ctr.Delta, placement)
		cfg.OnChipTreeBytes = 64 // give the tree off-chip levels
		e := newEngine(t, cfg)
		m := e.OffChip()
		const a, b = 0, ctr.GroupBlocks * BlockBytes // two blocks, two counter images
		ma, mb := e.scheme.MetadataBlock(a/BlockBytes), e.scheme.MetadataBlock(b/BlockBytes)
		dst := make([]byte, BlockBytes)
		warm := func() {
			t.Helper()
			goCold(e)
			for _, addr := range []uint64{a, b} {
				if _, err := e.Read(addr, dst); err != nil {
					t.Fatal(err)
				}
			}
		}
		resident := func() [4]bool {
			hitA, _ := probeOne(e.bc, a/BlockBytes, dst)
			hitB, _ := probeOne(e.bc, b/BlockBytes, dst)
			return [4]bool{hitA, hitB, e.cc.lookup(ma) != nil, e.cc.lookup(mb) != nil}
		}
		for _, addr := range []uint64{a, b} {
			if err := e.Write(addr, block(int64(addr))); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		node, err := m.LocateNode(0, ma/tree.Arity)
		if err != nil {
			t.Fatal(err)
		}
		// want: block a, block b, counter line a, counter line b resident.
		cases := []struct {
			plane Plane
			phys  uint64
			want  [4]bool
		}{
			{PlaneData, 0, [4]bool{false, true, true, true}},
			{PlaneLane, 0, [4]bool{false, true, true, true}},
			{PlaneCheck, 0, [4]bool{false, true, true, true}},
			{PlaneCounter, 0, [4]bool{false, false, false, true}},
			{PlaneTree, node, [4]bool{}},
		}
		for _, c := range cases {
			if m.PlaneSize(c.plane) == 0 {
				continue
			}
			if c.plane != PlaneTree {
				if c.phys, err = m.LocateAddr(c.plane, a); err != nil {
					t.Fatal(err)
				}
			}
			img := make([]byte, m.elem[c.plane])
			warm()
			if err := m.ReadRaw(c.phys, img); err != nil {
				t.Fatal(err)
			}
			if got := resident(); got != [4]bool{true, true, true, true} {
				t.Fatalf("%s/%s: a raw read evicted: %v", placement, c.plane, got)
			}
			if err := m.WriteRaw(c.phys, img); err != nil {
				t.Fatal(err)
			}
			if got := resident(); got != c.want {
				t.Errorf("%s/%s: after a raw write resident = %v, want %v", placement, c.plane, got, c.want)
			}
		}
	}
}

package core

import (
	"encoding/binary"
	"fmt"

	"authmem/internal/tree"
)

// Plane names one off-chip storage plane of an engine, in map order:
// PlaneData is the ciphertext (64 bytes a block), PlaneLane the 8-byte
// little-endian lane (the ECC lane carrying the MAC under MACInECC, the
// inline tag under MACInline), PlaneCheck the inline codec's check bytes
// (MACInline only), PlaneCounter the 64-byte counter-block images and
// PlaneTree the 64-byte off-chip tree nodes in tree.Shape.FlatIndex order.
type Plane int

const (
	PlaneData Plane = iota
	PlaneLane
	PlaneCheck
	PlaneCounter
	PlaneTree
	numPlanes
)

// String names the plane.
func (p Plane) String() string {
	if p < 0 || p >= numPlanes {
		return fmt.Sprintf("Plane(%d)", int(p))
	}
	return [...]string{"data", "lane", "check", "counter", "tree"}[p]
}

// OffChip is one engine's off-chip address map — every byte an attacker with
// physical DRAM access could touch, and nothing inside the trust boundary: a
// read-only map from a physical offset to (plane, element, byte), each plane
// one contiguous range. No data moves; the map routes into the engine's block store, image
// store and tree. FlipBit, ReadRaw and WriteRaw are the whole adversary
// surface: each validates before it touches anything, and every write drops
// the trusted on-chip copies derived from the bytes it touched — a data,
// lane or check byte evicts its block from the block cache, a counter image
// evicts its counter-cache line and flushes the block cache (the image
// covers a group of blocks), a tree node flushes both caches. The caller
// serializes the raw operations with the engine's other users.
type OffChip struct {
	e *Engine
	// elem[p] is plane p's element size in bytes and base[p] its first
	// offset; base[numPlanes] is the map size.
	elem [numPlanes]uint64
	base [numPlanes + 1]uint64
}

func newOffChip(e *Engine) *OffChip {
	blocks := e.cfg.DataBlocks()
	m := &OffChip{e: e, elem: [numPlanes]uint64{BlockBytes, 8, uint64(e.store.checkBytes), BlockBytes, tree.NodeBytes}}
	count := [numPlanes]uint64{blocks, blocks, blocks, e.scheme.MetadataBlocks(blocks), e.tr.OffChipNodes()}
	for p := range numPlanes {
		m.base[p+1] = m.base[p] + m.elem[p]*count[p] // an empty check plane under MACInECC
	}
	return m
}

// OffChip returns the engine's off-chip address map.
func (e *Engine) OffChip() *OffChip { return e.off }

// Size returns the map's size in bytes: the sum of its planes.
func (m *OffChip) Size() uint64 { return m.base[numPlanes] }

// PlaneSize returns plane p's size in bytes (0 for a plane the design point
// does not store, such as PlaneCheck under MACInECC).
func (m *OffChip) PlaneSize(p Plane) uint64 {
	if p < 0 || p >= numPlanes {
		return 0
	}
	return m.base[p+1] - m.base[p]
}

// Locate returns the offset of element i of plane p.
func (m *OffChip) Locate(p Plane, i uint64) (uint64, error) {
	if size := m.PlaneSize(p); size == 0 || i >= size/m.elem[p] {
		return 0, fmt.Errorf("core: %s has no element %d", p, i)
	}
	return m.base[p] + i*m.elem[p], nil
}

// LocateAddr returns the offset of the element of plane p that holds the
// block at the aligned address addr: the block itself for the data, lane and
// check planes, the counter image covering it for PlaneCounter.
func (m *OffChip) LocateAddr(p Plane, addr uint64) (uint64, error) {
	if err := checkSpan(m.e.cfg.RegionBytes, addr, BlockBytes, "locate"); err != nil {
		return 0, err
	}
	blk := addr / BlockBytes
	switch p {
	case PlaneData, PlaneLane, PlaneCheck:
		return m.Locate(p, blk)
	case PlaneCounter:
		return m.Locate(p, m.e.scheme.MetadataBlock(blk))
	}
	return 0, fmt.Errorf("core: plane %s is not addressed by block", p)
}

// LocateNode returns the offset of the off-chip tree node (level, index).
func (m *OffChip) LocateNode(level int, index uint64) (uint64, error) {
	id := tree.NodeID{Level: level, Index: index}
	if _, err := m.e.tr.OffChipNode(id); err != nil {
		return 0, err
	}
	return m.Locate(PlaneTree, m.e.tr.FlatIndex(id))
}

// Resolve maps an offset to its plane, element and byte within the element.
func (m *OffChip) Resolve(phys uint64) (p Plane, i, byteOff uint64, err error) {
	if phys >= m.Size() {
		return 0, 0, 0, fmt.Errorf("core: offset %#x outside the %d-byte off-chip map", phys, m.Size())
	}
	for m.base[p+1] <= phys {
		p++
	}
	rel := phys - m.base[p]
	return p, rel / m.elem[p], rel % m.elem[p], nil
}

// span validates n bytes at phys: in the map, inside one element, and, for
// a per-block plane, on a block that has been written (presence is on-chip
// state, which no raw operation creates or clears).
func (m *OffChip) span(phys uint64, n int) (p Plane, i, byteOff uint64, err error) {
	if p, i, byteOff, err = m.Resolve(phys); err != nil {
		return
	}
	if n < 1 || byteOff+uint64(n) > m.elem[p] {
		return 0, 0, 0, fmt.Errorf("core: %d bytes at offset %#x cross the end of %s element %d", n, phys, p, i)
	}
	if p <= PlaneCheck && !m.e.store.Present(i) {
		return 0, 0, 0, fmt.Errorf("core: block %#x never written", i*BlockBytes)
	}
	return p, i, byteOff, nil
}

// element passes fn the bytes of element i of plane p. The lane is a word,
// so fn gets its little-endian copy, stored back for a write; a counter
// image is materialized only for a write (an absent one reads as zeros).
func (m *OffChip) element(p Plane, i uint64, write bool, fn func(b []byte)) {
	e := m.e
	switch p {
	case PlaneData:
		fn(e.store.Ciphertext(i))
	case PlaneLane:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], e.store.Meta(i))
		if fn(b[:]); write {
			e.store.SetMeta(i, binary.LittleEndian.Uint64(b[:]))
		}
	case PlaneCheck:
		fn(e.store.Check(i))
	case PlaneCounter:
		if write {
			fn(e.images.Store(i))
		} else {
			fn(e.images.Load(i))
		}
	case PlaneTree: // i is a FlatIndex: walk it down to its level
		k := 0
		for ; i >= e.tr.NodesAtLevel(k); k++ {
			i -= e.tr.NodesAtLevel(k)
		}
		img, _ := e.tr.OffChipNode(tree.NodeID{Level: k, Index: i})
		fn(img)
	}
}

// ReadRaw copies len(dst) stored bytes at phys, which must lie in one
// element, into dst — what an attacker records off the bus.
func (m *OffChip) ReadRaw(phys uint64, dst []byte) error {
	p, i, off, err := m.span(phys, len(dst))
	if err == nil {
		m.element(p, i, false, func(b []byte) { copy(dst, b[off:]) })
	}
	return err
}

// WriteRaw stores src at phys, which must lie in one element — a replay
// when src was read at the same offset earlier, a splice when it was read
// elsewhere.
func (m *OffChip) WriteRaw(phys uint64, src []byte) error {
	return m.write(phys, len(src), func(b []byte) { copy(b, src) })
}

// FlipBit flips bit (bit%8) of the byte at phys + bit/8, which must lie in
// the same element as phys. It models a bus or cold-boot attack and a DRAM
// fault alike, which the controller cannot tell apart.
func (m *OffChip) FlipBit(phys uint64, bit int) error {
	if bit < 0 {
		return fmt.Errorf("core: bit %d out of range", bit)
	}
	return m.write(phys, bit/8+1, func(b []byte) { b[bit/8] ^= 1 << (bit % 8) })
}

// write validates the n bytes at phys, applies the eviction rule to their
// element and passes fn those bytes in place.
func (m *OffChip) write(phys uint64, n int, fn func(b []byte)) error {
	p, i, off, err := m.span(phys, n)
	if err != nil {
		return err
	}
	switch p {
	case PlaneData, PlaneLane, PlaneCheck:
		m.e.bc.evict(i)
	case PlaneCounter:
		m.e.cc.evict(i)
		m.e.bc.flush()
	case PlaneTree:
		m.e.cc.flush()
		m.e.bc.flush()
	}
	m.element(p, i, true, func(b []byte) { fn(b[off : off+uint64(n)]) })
	return nil
}

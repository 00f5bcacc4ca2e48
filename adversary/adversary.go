// Package adversary is the threat model's executable boundary: the physical
// attacker of an authmem.Memory. It reaches every off-chip byte and nothing
// else — no cache, quarantine entry, trusted root, key or block-presence bit.
//
// The off-chip bytes form one address map: shard i's planes
// [Data | Lane | Check | Counter | Tree] occupy [i×span, (i+1)×span). The
// locators turn a block address, an element index or a tree node into an
// offset; FlipBit, ReadRaw and WriteRaw act on it. A replay is ReadRaw now
// and WriteRaw later at the same offsets; a splice writes the bytes to
// another block's. Every write drops the on-chip copies derived from the
// bytes it touched, and every call validates before it changes anything.
// Offsets on a WithShard view are that shard's own, from 0.
package adversary

import (
	"authmem"
	"authmem/internal/core"
)

// Plane names one off-chip storage plane.
type Plane = core.Plane

// The planes, in map order: Data is the ciphertext (64 bytes a block), Lane
// the 8-byte little-endian lane carrying the MAC (the ECC lane under
// MACInECC, the inline tag under InlineMAC), Check the inline codec's check
// bytes (InlineMAC only), Counter the 64-byte counter blocks, Tree the
// 64-byte off-chip tree nodes, level 0 first.
const (
	Data    = core.PlaneData
	Lane    = core.PlaneLane
	Check   = core.PlaneCheck
	Counter = core.PlaneCounter
	Tree    = core.PlaneTree
)

// Size returns the size of m's off-chip map.
func Size(m *authmem.Memory) uint64 { return uint64(m.Shards()) * shardMap(m).Size() }

// PlaneSize returns plane p's size in bytes across every shard of m.
func PlaneSize(m *authmem.Memory, p Plane) uint64 {
	return uint64(m.Shards()) * shardMap(m).PlaneSize(p)
}

// Locate returns the offset of element i of the given shard's plane p: a
// block index for Data, Lane and Check, a counter-block index for Counter, a
// dense node index (level 0 first) for Tree.
func Locate(m *authmem.Memory, shard int, p Plane, i uint64) (uint64, error) {
	return locate(m, shard, func(o *core.OffChip) (uint64, error) { return o.Locate(p, i) })
}

// LocateAddr returns the offset of the plane-p element holding the block at
// the aligned address addr: the block itself for Data, Lane and Check, the
// counter block covering it for Counter.
func LocateAddr(m *authmem.Memory, p Plane, addr uint64) (uint64, error) {
	return core.MemoryEngine(m).LocateAddr(p, addr)
}

// LocateNode returns the offset of off-chip tree node (level, index) of the
// given shard's subtree. Level 0 is the first level above the counter
// blocks; the top, on-chip level is not off-chip and has no offset.
func LocateNode(m *authmem.Memory, shard, level int, index uint64) (uint64, error) {
	return locate(m, shard, func(o *core.OffChip) (uint64, error) { return o.LocateNode(level, index) })
}

// locate rebases the offset fn finds in shard's map into m's map.
func locate(m *authmem.Memory, shard int, fn func(o *core.OffChip) (uint64, error)) (uint64, error) {
	o, base, err := core.MemoryEngine(m).OffChip(shard)
	if err != nil {
		return 0, err
	}
	off, err := fn(o)
	if err != nil {
		return 0, err
	}
	return base + off, nil
}

// shardMap returns shard 0's map; every shard's has the same geometry.
func shardMap(m *authmem.Memory) *core.OffChip {
	o, _, _ := core.MemoryEngine(m).OffChip(0)
	return o
}

// FlipBit flips bit (bit%8) of the byte at phys + bit/8, which must lie in
// the element phys does — a fault or an attacker's flip.
func FlipBit(m *authmem.Memory, phys uint64, bit int) error {
	return core.MemoryEngine(m).FlipBit(phys, bit)
}

// ReadRaw copies the len(dst) stored bytes at phys, inside one element, into
// dst.
func ReadRaw(m *authmem.Memory, phys uint64, dst []byte) error {
	return core.MemoryEngine(m).ReadRaw(phys, dst)
}

// WriteRaw stores src at phys, inside one element.
func WriteRaw(m *authmem.Memory, phys uint64, src []byte) error {
	return core.MemoryEngine(m).WriteRaw(phys, src)
}

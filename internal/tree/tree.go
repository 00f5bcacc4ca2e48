// Package tree implements a Bonsai Merkle tree (Rogers et al., MICRO'07)
// over counter-metadata blocks.
//
// The tree's job is replay protection: the attacker controls off-chip DRAM,
// so counters could be rolled back together with data and MACs. Because
// each data MAC binds the block's counter (see internal/mac), protecting
// counter *integrity* transitively protects data freshness — and counters
// are tiny compared to data, hence a "bonsai" tree.
//
// Geometry: leaves are 64-byte counter blocks. Each internal node is itself
// a 64-byte block holding the 8 64-bit MAC slots of its children (arity 8).
// Levels shrink by 8x until the level fits the on-chip SRAM budget (3KB in
// the paper's Table 1); that top level is trusted and not stored in DRAM.
//
// The paper's headline interaction: delta-encoding packs 64 counters per
// block instead of 8, shrinking the leaf count 8x and the off-chip tree by
// one full level (5 -> 4 levels for a 512MB protected region, §5.2).
package tree

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
)

// Arity is the tree fan-out: 8 64-bit child MACs per 64-byte node.
const Arity = 8

// NodeBytes is the size of one tree node.
const NodeBytes = 64

// ErrTampered is the error type returned when verification fails.
type ErrTampered struct {
	// Level is the tree level at which the mismatch was detected
	// (0 = the leaf image itself).
	Level int
	// Index is the node index within that level.
	Index uint64
}

// Error implements error.
func (e *ErrTampered) Error() string {
	return fmt.Sprintf("tree: integrity violation at level %d node %d", e.Level, e.Index)
}

// Hasher is the slice of the MAC surface the tree needs: one keyed tag per
// node image. *crypto.MAC satisfies it, as does the test-only reference
// *mac.Key.
type Hasher interface {
	Tag(image []byte, addr, counter uint64) (uint64, error)
}

// Tree is a Bonsai Merkle tree. Node storage below the top level models
// off-chip DRAM: it is exported to attack via CorruptNode, and verification
// never trusts it. The top level models on-chip SRAM and is trusted.
//
// A Tree is not safe for concurrent use, and TopDigest counts as a writer
// (it fills the digest cache): callers serialize it with the mutators.
type Tree struct {
	key    Hasher
	leaves uint64

	// levels[k] holds level k+1's node images (level 0 is the leaves,
	// which live outside the tree). levels[len-1] is the on-chip level.
	levels [][]byte

	// counts[k] is the node count of levels[k].
	counts []uint64

	// topDigest caches the SHA-256 of the on-chip level while topValid is
	// set. Every function that writes that level (UpdateLeaf,
	// UpdateLeafFast, UpdateLeaves, Rebuild, ReadFrom) clears topValid
	// before it touches a node, so the cache can never outlive the bytes it
	// hashed; CorruptNode cannot reach the on-chip level and leaves it set.
	topDigest [sha256.Size]byte
	topValid  bool
}

// New builds a zero-initialized tree over numLeaves counter blocks with the
// given on-chip budget in bytes. The initial images correspond to all-zero
// leaves only after Rebuild or per-leaf updates; callers normally Rebuild
// once after construction.
func New(key Hasher, numLeaves uint64, onChipBytes int) (*Tree, error) {
	if key == nil {
		return nil, fmt.Errorf("tree: nil key")
	}
	if numLeaves == 0 {
		return nil, fmt.Errorf("tree: need at least one leaf")
	}
	if onChipBytes < NodeBytes {
		return nil, fmt.Errorf("tree: on-chip budget %dB below one node", onChipBytes)
	}
	t := &Tree{key: key, leaves: numLeaves}
	onChipNodes := uint64(onChipBytes / NodeBytes)
	n := numLeaves
	for {
		n = (n + Arity - 1) / Arity
		t.levels = append(t.levels, make([]byte, n*NodeBytes))
		t.counts = append(t.counts, n)
		if n <= onChipNodes {
			break
		}
	}
	return t, nil
}

// Leaves returns the number of leaves.
func (t *Tree) Leaves() uint64 { return t.leaves }

// Levels returns the number of node levels, including the on-chip level.
func (t *Tree) Levels() int { return len(t.levels) }

// OffChipLevels returns how many levels of tree nodes reside in DRAM
// (everything below the trusted on-chip level). A full cold verification
// therefore costs OffChipLevels() node reads in addition to the leaf read —
// matching the paper's "5-level off-chip integrity tree" accounting when
// the leaf (counter block) read is counted as one of the levels.
func (t *Tree) OffChipLevels() int { return len(t.levels) - 1 }

// NodesAtLevel returns the node count of node level k (0-based, where level
// 0 is the first level above the leaves).
func (t *Tree) NodesAtLevel(k int) uint64 { return t.counts[k] }

// TotalOffChipBytes returns the DRAM footprint of the off-chip node levels,
// for the Figure 1 storage accounting.
func (t *Tree) TotalOffChipBytes() uint64 {
	var total uint64
	for k := 0; k < len(t.levels)-1; k++ {
		total += t.counts[k] * NodeBytes
	}
	return total
}

// nodeTag computes the MAC of a 64-byte image at (level, index). Level and
// index are bound into the MAC's address input so identical images at
// different tree positions authenticate differently (no node-swap attacks).
func (t *Tree) nodeTag(level int, index uint64, image []byte) uint64 {
	// Address-space encoding: level in the top bits, index below.
	addr := uint64(level)<<56 | index
	tag, err := t.key.Tag(image, addr, 0)
	if err != nil {
		// Images are always NodeBytes; an error is a bug.
		panic(err)
	}
	return tag
}

func (t *Tree) node(level int, index uint64) []byte {
	return t.levels[level][index*NodeBytes : (index+1)*NodeBytes]
}

func slot(image []byte, i uint64) uint64 {
	return binary.LittleEndian.Uint64(image[i*8:])
}

func setSlot(image []byte, i uint64, v uint64) {
	binary.LittleEndian.PutUint64(image[i*8:], v)
}

// UpdateLeaf installs a new image for leaf i, recomputing the MAC path up to
// the on-chip level. It returns the list of off-chip node indices touched
// (for the caller's timing model): one flat NodeID per off-chip level.
func (t *Tree) UpdateLeaf(i uint64, image []byte) ([]NodeID, error) {
	if i >= t.leaves {
		return nil, fmt.Errorf("tree: leaf %d out of range (%d leaves)", i, t.leaves)
	}
	if len(image) != NodeBytes {
		return nil, fmt.Errorf("tree: leaf image must be %d bytes", NodeBytes)
	}
	touched := make([]NodeID, 0, len(t.levels)-1)
	t.topValid = false
	tag := t.nodeTag(0, i, image)
	idx := i
	for k := 0; k < len(t.levels); k++ {
		parent := idx / Arity
		node := t.node(k, parent)
		setSlot(node, idx%Arity, tag)
		if k < len(t.levels)-1 {
			touched = append(touched, NodeID{Level: k, Index: parent})
			tag = t.nodeTag(k+1, parent, node)
		}
		idx = parent
	}
	return touched, nil
}

// VerifyLeaf checks leaf i's image against the tree, walking from the leaf
// MAC up to the trusted on-chip level. It returns the off-chip nodes read
// (for timing) and an *ErrTampered if any link fails.
func (t *Tree) VerifyLeaf(i uint64, image []byte) ([]NodeID, error) {
	if i >= t.leaves {
		return nil, fmt.Errorf("tree: leaf %d out of range (%d leaves)", i, t.leaves)
	}
	if len(image) != NodeBytes {
		return nil, fmt.Errorf("tree: leaf image must be %d bytes", NodeBytes)
	}
	read := make([]NodeID, 0, len(t.levels)-1)
	tag := t.nodeTag(0, i, image)
	idx := i
	for k := 0; k < len(t.levels); k++ {
		parent := idx / Arity
		node := t.node(k, parent)
		if slot(node, idx%Arity) != tag {
			return read, &ErrTampered{Level: k, Index: idx}
		}
		if k < len(t.levels)-1 {
			read = append(read, NodeID{Level: k, Index: parent})
			tag = t.nodeTag(k+1, parent, node)
		}
		idx = parent
	}
	return read, nil
}

// UpdateLeafFast is UpdateLeaf without the touched-node report: the same
// path recompute, but allocation-free, for hot paths that do not feed the
// timing model.
func (t *Tree) UpdateLeafFast(i uint64, image []byte) error {
	if i >= t.leaves {
		return fmt.Errorf("tree: leaf %d out of range (%d leaves)", i, t.leaves)
	}
	if len(image) != NodeBytes {
		return fmt.Errorf("tree: leaf image must be %d bytes", NodeBytes)
	}
	t.topValid = false
	tag := t.nodeTag(0, i, image)
	idx := i
	for k := 0; k < len(t.levels); k++ {
		parent := idx / Arity
		node := t.node(k, parent)
		setSlot(node, idx%Arity, tag)
		if k < len(t.levels)-1 {
			tag = t.nodeTag(k+1, parent, node)
		}
		idx = parent
	}
	return nil
}

// UpdateLeaves installs new images for a batch of leaves in one pass,
// recomputing each shared interior node once instead of once per leaf: all
// leaf tags are set into their parents first, then each level's dirty node
// set — deduplicated, so siblings merge — is rehashed exactly once. For N
// leaves under a common subtree this costs O(N + levels) MACs instead of
// the O(N * levels) of per-leaf updates, which is what makes an epoch
// flush of a dirty-leaf write combiner cheap.
//
// leaves may be in any order and may contain duplicates; the slice is used
// as scratch and left with unspecified contents, so the whole batch is
// allocation-free. image must return the 64-byte image of the given leaf.
func (t *Tree) UpdateLeaves(leaves []uint64, image func(leaf uint64) []byte) error {
	switch len(leaves) {
	case 0:
		return nil
	case 1:
		return t.UpdateLeafFast(leaves[0], image(leaves[0]))
	}
	t.topValid = false
	for _, i := range leaves {
		if i >= t.leaves {
			return fmt.Errorf("tree: leaf %d out of range (%d leaves)", i, t.leaves)
		}
		img := image(i)
		if len(img) != NodeBytes {
			return fmt.Errorf("tree: leaf image must be %d bytes", NodeBytes)
		}
		setSlot(t.node(0, i/Arity), i%Arity, t.nodeTag(0, i, img))
	}
	// Dirty node set at level 0. Parent indices of a sorted list stay
	// sorted under the monotone /Arity map, so one sort serves every level;
	// per-level dedup happens in place during the walk.
	dirty := leaves
	for k := range dirty {
		dirty[k] /= Arity
	}
	slices.Sort(dirty)
	dirty = slices.Compact(dirty)
	for k := 0; k+1 < len(t.levels); k++ {
		w := 0
		for _, idx := range dirty {
			tag := t.nodeTag(k+1, idx, t.node(k, idx))
			setSlot(t.node(k+1, idx/Arity), idx%Arity, tag)
			if w == 0 || dirty[w-1] != idx/Arity {
				dirty[w] = idx / Arity
				w++
			}
		}
		dirty = dirty[:w]
	}
	return nil
}

// VerifyLeafFast is VerifyLeaf without the read-node report: the same walk
// and the same *ErrTampered failures, but allocation-free, for hot paths
// that do not feed the timing model.
func (t *Tree) VerifyLeafFast(i uint64, image []byte) error {
	if i >= t.leaves {
		return fmt.Errorf("tree: leaf %d out of range (%d leaves)", i, t.leaves)
	}
	if len(image) != NodeBytes {
		return fmt.Errorf("tree: leaf image must be %d bytes", NodeBytes)
	}
	tag := t.nodeTag(0, i, image)
	idx := i
	for k := 0; k < len(t.levels); k++ {
		parent := idx / Arity
		node := t.node(k, parent)
		if slot(node, idx%Arity) != tag {
			return &ErrTampered{Level: k, Index: idx}
		}
		if k < len(t.levels)-1 {
			tag = t.nodeTag(k+1, parent, node)
		}
		idx = parent
	}
	return nil
}

// Rebuild recomputes the whole tree from a leaf-image source, used at
// initialization. leafImage must return the 64-byte image of leaf i.
func (t *Tree) Rebuild(leafImage func(i uint64) []byte) error {
	t.topValid = false
	for i := uint64(0); i < t.leaves; i++ {
		img := leafImage(i)
		if len(img) != NodeBytes {
			return fmt.Errorf("tree: leaf image must be %d bytes", NodeBytes)
		}
		tag := t.nodeTag(0, i, img)
		setSlot(t.node(0, i/Arity), i%Arity, tag)
	}
	for k := 1; k < len(t.levels); k++ {
		for i := uint64(0); i < t.counts[k-1]; i++ {
			tag := t.nodeTag(k, i, t.node(k-1, i))
			setSlot(t.node(k, i/Arity), i%Arity, tag)
		}
	}
	return nil
}

// NodeID names one off-chip tree node for timing and caching purposes.
type NodeID struct {
	Level int
	Index uint64
}

// FlatIndex maps a NodeID to a dense index across all off-chip levels, so
// callers can assign each node a unique cacheable address.
func (t *Tree) FlatIndex(id NodeID) uint64 {
	var base uint64
	for k := 0; k < id.Level; k++ {
		base += t.counts[k]
	}
	return base + id.Index
}

// OffChipNodes returns the total number of off-chip nodes (the FlatIndex
// range).
func (t *Tree) OffChipNodes() uint64 {
	var total uint64
	for k := 0; k < len(t.levels)-1; k++ {
		total += t.counts[k]
	}
	return total
}

// CorruptNode flips one bit of a stored node image — the attacker's move.
// Corrupting the on-chip level is rejected: it models SRAM inside the trust
// boundary.
func (t *Tree) CorruptNode(id NodeID, bit int) error {
	if id.Level >= len(t.levels)-1 {
		return fmt.Errorf("tree: level %d is on-chip and not attackable", id.Level)
	}
	if id.Index >= t.counts[id.Level] {
		return fmt.Errorf("tree: node index %d out of range", id.Index)
	}
	if bit < 0 || bit >= NodeBytes*8 {
		return fmt.Errorf("tree: bit %d out of range", bit)
	}
	t.node(id.Level, id.Index)[bit/8] ^= 1 << uint(bit%8)
	return nil
}

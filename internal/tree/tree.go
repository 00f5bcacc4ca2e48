// Package tree implements a Bonsai Merkle tree (Rogers et al., MICRO'07)
// over counter-metadata blocks.
//
// The tree's job is replay protection: the attacker controls off-chip DRAM,
// so counters could be rolled back together with data and MACs. Because
// each data MAC binds the block's counter (see crypto.MAC), protecting
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
// node image. *crypto.MAC satisfies it.
type Hasher interface {
	Tag(image []byte, addr, counter uint64) (uint64, error)
}

// Shape is a tree's geometry without its cryptography: the leaf count and
// the node count of every level. Levels shrink by Arity until one fits the
// on-chip budget; that top level is trusted SRAM and every level below it is
// DRAM. A Tree is built on its Shape, and the timing model and the Figure 1
// storage accounting read one directly, so the geometry exists once.
type Shape struct {
	leaves uint64
	// counts[k] is the node count of node level k (level 0 is the first
	// level above the leaves); the last entry is the on-chip level.
	counts []uint64
}

// NewShape returns the shape of a tree over numLeaves leaves with an
// onChipBytes trusted budget.
func NewShape(numLeaves uint64, onChipBytes int) (Shape, error) {
	if numLeaves == 0 {
		return Shape{}, fmt.Errorf("tree: need at least one leaf")
	}
	if onChipBytes < NodeBytes {
		return Shape{}, fmt.Errorf("tree: on-chip budget %dB below one node", onChipBytes)
	}
	s := Shape{leaves: numLeaves}
	onChipNodes := uint64(onChipBytes / NodeBytes)
	for n := numLeaves; ; {
		n = (n + Arity - 1) / Arity
		s.counts = append(s.counts, n)
		if n <= onChipNodes {
			return s, nil
		}
	}
}

// Leaves returns the number of leaves.
func (s Shape) Leaves() uint64 { return s.leaves }

// Levels returns the number of node levels, including the on-chip level.
func (s Shape) Levels() int { return len(s.counts) }

// OffChipLevels returns how many levels of tree nodes reside in DRAM
// (everything below the trusted on-chip level). A full cold verification
// therefore costs OffChipLevels() node reads in addition to the leaf read —
// matching the paper's "5-level off-chip integrity tree" accounting when
// the leaf (counter block) read is counted as one of the levels.
func (s Shape) OffChipLevels() int { return len(s.counts) - 1 }

// NodesAtLevel returns the node count of node level k (0-based, where level
// 0 is the first level above the leaves).
func (s Shape) NodesAtLevel(k int) uint64 { return s.counts[k] }

// OffChipNodes returns the total number of off-chip nodes (the FlatIndex
// range).
func (s Shape) OffChipNodes() uint64 {
	var total uint64
	for _, n := range s.counts[:s.OffChipLevels()] {
		total += n
	}
	return total
}

// OffChipBytes returns the DRAM footprint of the off-chip node levels, for
// the Figure 1 storage accounting.
func (s Shape) OffChipBytes() uint64 { return s.OffChipNodes() * NodeBytes }

// FlatIndex maps a NodeID to a dense index across all off-chip levels, so
// callers can assign each node a unique cacheable address.
func (s Shape) FlatIndex(id NodeID) uint64 {
	var base uint64
	for _, n := range s.counts[:id.Level] {
		base += n
	}
	return base + id.Index
}

// Path appends to dst the FlatIndex of every off-chip node on leaf's path to
// the on-chip level, bottom-up: the nodes VerifyLeaf reads for that leaf.
func (s Shape) Path(leaf uint64, dst []uint64) []uint64 {
	var base uint64
	for _, n := range s.counts[:s.OffChipLevels()] {
		leaf /= Arity
		dst = append(dst, base+leaf)
		base += n
	}
	return dst
}

// Tree is a Bonsai Merkle tree. Node storage below the top level models
// off-chip DRAM: it is exported to attack via OffChipNode, and neither
// verification nor an update trusts it. The top level models on-chip SRAM
// and is trusted.
//
// A Tree is not safe for concurrent use, and TopDigest counts as a writer
// (it fills the digest cache): callers serialize it with the mutators.
type Tree struct {
	Shape
	key Hasher

	// levels[k] holds level k+1's node images (level 0 is the leaves,
	// which live outside the tree): counts[k] nodes. levels[len-1] is the
	// on-chip level.
	levels [][]byte

	// topDigest caches the SHA-256 of the on-chip level while topValid is
	// set. Every function that writes that level (UpdateLeaf,
	// UpdateLeafFast, UpdateLeaves, Rebuild, ReadFrom) clears topValid
	// before it writes a node, so the cache can never outlive the bytes it
	// hashed; OffChipNode cannot reach the on-chip level and leaves it set.
	topDigest [sha256.Size]byte
	topValid  bool
}

// New builds a tree over numLeaves all-zero counter blocks with the given
// on-chip budget in bytes. The tree is consistent from construction — every
// node's MAC sits in its parent's slot — which is the precondition the
// mutators check before they re-MAC a node.
func New(key Hasher, numLeaves uint64, onChipBytes int) (*Tree, error) {
	if key == nil {
		return nil, fmt.Errorf("tree: nil key")
	}
	shape, err := NewShape(numLeaves, onChipBytes)
	if err != nil {
		return nil, err
	}
	t := &Tree{Shape: shape, key: key, levels: make([][]byte, len(shape.counts))}
	for k, n := range shape.counts {
		t.levels[k] = make([]byte, n*NodeBytes)
	}
	zero := make([]byte, NodeBytes)
	if err := t.Rebuild(func(uint64) []byte { return zero }); err != nil {
		return nil, err
	}
	return t, nil
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
// (for the caller's timing model): one flat NodeID per off-chip level. Like
// every mutator it first verifies the nodes it will rewrite (see
// UpdateLeafFast) and returns an *ErrTampered, writing nothing, if one fails.
func (t *Tree) UpdateLeaf(i uint64, image []byte) ([]NodeID, error) {
	if err := t.UpdateLeafFast(i, image); err != nil {
		return nil, err
	}
	touched := make([]NodeID, 0, t.OffChipLevels())
	for k, idx := 0, i/Arity; k < t.OffChipLevels(); k, idx = k+1, idx/Arity {
		touched = append(touched, NodeID{Level: k, Index: idx})
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
//
// Re-MACing a stored node authenticates all Arity of its slots, not just the
// one being set, and the other slots were read from attacker-writable DRAM.
// So the path is verified first (verifyPaths), and a node that does not
// match its parent's slot fails the update with an *ErrTampered before a
// byte is written: a rolled-back node can never be laundered by a sibling's
// update.
func (t *Tree) UpdateLeafFast(i uint64, image []byte) error {
	if i >= t.leaves {
		return fmt.Errorf("tree: leaf %d out of range (%d leaves)", i, t.leaves)
	}
	if len(image) != NodeBytes {
		return fmt.Errorf("tree: leaf image must be %d bytes", NodeBytes)
	}
	if err := t.verifyPaths([]uint64{i}); err != nil {
		return err
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

// verifyPaths checks every stored node on the paths from leaves — sorted and
// duplicate-free — to the on-chip level against its parent's slot, top-down,
// so each parent is on-chip or was verified just before. Sorted leaves have
// sorted ancestors at every level, so a node shared by neighbours is checked
// once. A mismatch is reported as VerifyLeaf would report it.
func (t *Tree) verifyPaths(leaves []uint64) error {
	div := uint64(1) // leaves under one node of the level being checked
	for k := 0; k < t.OffChipLevels(); k++ {
		div *= Arity
	}
	for k := t.OffChipLevels() - 1; k >= 0; k, div = k-1, div/Arity {
		for j, i := range leaves {
			idx := i / div
			if j > 0 && leaves[j-1]/div == idx {
				continue
			}
			if t.nodeTag(k+1, idx, t.node(k, idx)) != slot(t.node(k+1, idx/Arity), idx%Arity) {
				return &ErrTampered{Level: k + 1, Index: idx}
			}
		}
	}
	return nil
}

// UpdateLeaves installs new images for a batch of leaves in one pass,
// recomputing each shared interior node once instead of once per leaf: all
// leaf tags are set into their parents first, then each level's dirty node
// set — deduplicated, so siblings merge — is rehashed exactly once. For N
// leaves under a common subtree this costs O(N + levels) MACs instead of
// the O(N * levels) of per-leaf updates, which is what makes an epoch
// flush of a dirty-leaf write combiner cheap. Before any of it, every dirty
// off-chip node is verified, as in UpdateLeafFast: one more MAC per node,
// and an *ErrTampered with nothing written if one fails.
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
	for _, i := range leaves {
		if i >= t.leaves {
			return fmt.Errorf("tree: leaf %d out of range (%d leaves)", i, t.leaves)
		}
	}
	// Parent indices of a sorted list stay sorted under the monotone /Arity
	// map, so one sort serves the verification and every level of the walk;
	// per-level dedup happens in place.
	slices.Sort(leaves)
	leaves = slices.Compact(leaves)
	if err := t.verifyPaths(leaves); err != nil {
		return err
	}
	t.topValid = false
	for _, i := range leaves {
		img := image(i)
		if len(img) != NodeBytes {
			return fmt.Errorf("tree: leaf image must be %d bytes", NodeBytes)
		}
		setSlot(t.node(0, i/Arity), i%Arity, t.nodeTag(0, i, img))
	}
	dirty := leaves
	for k := range dirty {
		dirty[k] /= Arity
	}
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

// OffChipNode returns the stored image of off-chip node id: the 64 bytes an
// attacker with DRAM access reads and writes. The slice aliases the tree's
// storage. The on-chip level models SRAM inside the trust boundary and is
// rejected, as is any id outside the off-chip levels.
func (t *Tree) OffChipNode(id NodeID) ([]byte, error) {
	if id.Level < 0 || id.Level >= t.OffChipLevels() {
		return nil, fmt.Errorf("tree: level %d is not an off-chip level [0,%d)", id.Level, t.OffChipLevels())
	}
	if id.Index >= t.counts[id.Level] {
		return nil, fmt.Errorf("tree: node index %d out of range", id.Index)
	}
	return t.node(id.Level, id.Index), nil
}

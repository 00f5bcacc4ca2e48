package core

import (
	"fmt"
	"sync/atomic"
)

// Write pipeline: deferred Merkle maintenance with dirty-leaf write
// combining.
//
// Updating the tree inside every Write would cost a root-to-leaf path
// recompute (4-5 MACs for the paper's 512MB region) per block. But the tree
// only has to be current when its state crosses the trust boundary — when a
// cold read must verify a counter image against it, when the root is
// exported, when an image is persisted. Between those points, N writes that
// land in the same counter-metadata leaf need only N cheap image re-packs
// and ONE deferred path recompute. That is the amortization argument of the
// paper's delta counters applied to the tree itself.
//
// Mechanics. A write does everything except the tree update: the counter
// image is re-packed from the trusted scheme state machine into the stored
// (DRAM) copy and the counter cache, and the leaf is marked dirty in a
// bounded per-engine dirty set. The deferred tree work runs at flush time,
// batched through tree.UpdateLeaves so leaves sharing interior nodes rehash
// them once.
//
// Flush triggers (the safety invariant: a flush always runs before tree
// state leaves the trust boundary):
//   - the dirty set reaching its epoch bound (defaultMaxDirtyLeaves);
//   - a cold read of a dirty leaf (read-after-write; single-leaf flush);
//   - Persist and RootDigest — a persisted image or exported root always
//     reflects every accepted write;
//   - Scrub, whose correction path decodes stored images;
//   - an explicit Flush() call (the sharded engine's FlushAll).
//
// What a dirty window means for faults: while a leaf is dirty its stored
// image is attacker-reachable but not yet covered by the tree, so a cold
// read of it cannot use the tree walk. Instead the stored image is compared
// byte-for-byte against a fresh re-pack of the trusted state machine — a
// fault injected between write and flush is therefore *detected* (counter-
// stage IntegrityError, repairable from trusted state), never laundered: the
// tree is only ever fed images re-derived from the trusted scheme, and it
// verifies every stored node it re-MACs first, so tampered DRAM bytes — a
// leaf image or a tree node — cannot be re-authenticated by a flush either.
//
// Every engine runs the pipeline (NewEngine builds it); a sharded engine's
// per-shard dirty sets each keep their own epoch clock.

// defaultMaxDirtyLeaves is the dirty set's epoch bound: one group's worth
// of leaves, i.e. at most one batched tree pass per 4KB of distinct touched
// groups.
const defaultMaxDirtyLeaves = 64

// writePipe is the deferred-maintenance state: a bounded dirty set over
// counter-metadata block indices, as a list (flush order) plus a bitset
// (membership), both preallocated so the write fast path never allocates.
type writePipe struct {
	maxDirty int
	dirty    []uint64 // dirty metadata-block indices, unordered
	bits     []uint64 // membership bitset over metadata blocks
	leafBuf  []uint64 // scratch for the batched tree update
	// pending mirrors len(dirty) atomically, so ShardedEngine.FlushAll can
	// skip quiescent shards without taking their locks (and without
	// allocating flush goroutines when the whole region is clean).
	pending atomic.Uint64
}

func newWritePipe(metaBlocks uint64) *writePipe {
	return &writePipe{
		maxDirty: defaultMaxDirtyLeaves,
		dirty:    make([]uint64, 0, defaultMaxDirtyLeaves),
		bits:     make([]uint64, (metaBlocks+63)/64),
		leafBuf:  make([]uint64, 0, defaultMaxDirtyLeaves),
	}
}

// isDirty reports whether midx has deferred tree maintenance pending.
func (p *writePipe) isDirty(midx uint64) bool {
	return p.bits[midx/64]>>(midx%64)&1 == 1
}

// markDirty records midx. combined reports that the leaf was already dirty
// (the write combined into a pending flush); full reports that the dirty
// set reached the epoch bound and the caller must flush.
func (p *writePipe) markDirty(midx uint64) (combined, full bool) {
	if p.isDirty(midx) {
		return true, false
	}
	p.bits[midx/64] |= 1 << (midx % 64)
	p.dirty = append(p.dirty, midx)
	p.pending.Store(uint64(len(p.dirty)))
	return false, len(p.dirty) >= p.maxDirty
}

// clear removes midx from the dirty set (single-leaf flush). The list is
// bounded by maxDirty, so the swap-remove scan is O(epoch bound).
func (p *writePipe) clear(midx uint64) {
	p.bits[midx/64] &^= 1 << (midx % 64)
	for i, m := range p.dirty {
		if m == midx {
			last := len(p.dirty) - 1
			p.dirty[i] = p.dirty[last]
			p.dirty = p.dirty[:last]
			p.pending.Store(uint64(last))
			return
		}
	}
}

// reset empties the dirty set without flushing — for callers that have just
// rebuilt the tree from trusted state (repairMetadata), which subsumes any
// pending flush.
func (p *writePipe) reset() {
	for _, m := range p.dirty {
		p.bits[m/64] &^= 1 << (m % 64)
	}
	p.dirty = p.dirty[:0]
	p.pending.Store(0)
}

// DirtyLeaves returns the number of counter leaves with deferred tree
// maintenance pending.
func (e *Engine) DirtyLeaves() int { return len(e.wp.dirty) }

// flushPending reports, without any lock, whether this engine has deferred
// Merkle maintenance outstanding. A false answer is a stable quiescence
// witness for operations that happened-before the call; writes landing
// concurrently may dirty leaves afterwards, exactly as they may after a
// locked flush returns.
func (e *Engine) flushPending() bool {
	return e.wp.pending.Load() > 0
}

// deferCommit is the metadata commit point of every write: it stages midx's
// image from the trusted scheme state machine into the stored copy and the
// counter cache (refreshing a resident line in place, write-back), marks
// the leaf dirty — and, for the delta log, the n blocks from first on, which
// the caller just sealed under midx — and defers the tree path recompute.
// Reaching the epoch bound flushes inline.
func (e *Engine) deferCommit(midx, first uint64, n int) error {
	img := e.packer.PackMetadata(midx)
	copy(e.images.Store(midx), img[:])
	e.cc.update(midx, img[:])
	if e.delta != nil {
		base, _ := e.metaSpan(midx)
		e.delta.mark(midx, ^uint64(0)>>(64-uint(n))<<(first-base))
	}
	combined, full := e.wp.markDirty(midx)
	if combined {
		atomic.AddUint64(&e.stats.WriteCombines, 1)
	}
	if full {
		return e.Flush()
	}
	return nil
}

// Flush writes back all deferred Merkle maintenance: every dirty leaf's
// image is re-packed from the trusted scheme state machine — the stored
// copy is attacker-reachable while dirty and must never feed the tree —
// and the tree paths above all dirty leaves are recomputed in one batched
// tree.UpdateLeaves pass. A stored node the pass finds tampered is repaired
// from trusted state (repairTampered). No-op with a clean set.
func (e *Engine) Flush() error {
	if len(e.wp.dirty) == 0 {
		return nil
	}
	wp := e.wp
	wp.leafBuf = wp.leafBuf[:0]
	for _, midx := range wp.dirty {
		img := e.packer.PackMetadata(midx)
		copy(e.images.Store(midx), img[:])
		e.cc.update(midx, img[:])
		wp.leafBuf = append(wp.leafBuf, midx)
	}
	atomic.AddUint64(&e.stats.DeferredLeafFlushes, uint64(len(wp.dirty)))
	wp.reset()
	return e.repairTampered(e.tr.UpdateLeaves(wp.leafBuf, e.images.Load))
}

// flushDirtyLeaf establishes trust in a dirty leaf on a cold read — the
// read-after-write flush trigger. The stale tree cannot vouch for the
// stored image, so it is compared byte-for-byte against a fresh re-pack of
// the trusted state machine: a mismatch means a fault landed in the dirty
// window and the read must fail (counter stage, repairable from trusted
// state; the leaf stays dirty for the repair path). On a match the leaf's
// tree path is recomputed and the leaf leaves the dirty set; a tampered node
// on that path is repaired from trusted state, which re-packs the image.
func (e *Engine) flushDirtyLeaf(midx uint64) ([]byte, bool) {
	img := e.packer.PackMetadata(midx)
	stored := e.images.Store(midx)
	if *(*[BlockBytes]byte)(stored) != img {
		return nil, false
	}
	e.wp.clear(midx)
	atomic.AddUint64(&e.stats.DeferredLeafFlushes, 1)
	if err := e.repairTampered(e.tr.UpdateLeafFast(midx, stored)); err != nil {
		panic(fmt.Errorf("core: dirty-leaf flush: %w", err)) // geometry is fixed; cannot fail
	}
	return stored, true
}

// loadVerifiedImage fetches midx's stored image and establishes trust in it:
// dirty leaves take the trusted-state comparison and single-leaf flush;
// clean leaves take the ordinary integrity-tree walk. addr attributes any
// failure to the access that triggered the load.
func (e *Engine) loadVerifiedImage(addr, midx uint64) ([]byte, error) {
	if e.wp.isDirty(midx) {
		img, ok := e.flushDirtyLeaf(midx)
		if !ok {
			return nil, &IntegrityError{Addr: addr, Reason: "dirty counter metadata does not match trusted state (fault before flush)", Stage: StageCounter}
		}
		return img, nil
	}
	img := e.images.Load(midx)
	if err := e.tr.VerifyLeafFast(midx, img); err != nil {
		return nil, &IntegrityError{Addr: addr, Reason: "counter metadata failed integrity tree check: " + err.Error(), Stage: StageCounter}
	}
	return img, nil
}

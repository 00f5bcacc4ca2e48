package sim

import (
	"fmt"

	"authmem/internal/cache"
	"authmem/internal/core"
	"authmem/internal/ctr"
	"authmem/internal/dram"
	"authmem/internal/tree"
)

// Timing constants for on-chip operations, in CPU cycles.
const (
	// MetadataCacheHitCycles is the metadata-cache (SRAM) hit latency.
	MetadataCacheHitCycles = 2
	// MACCheckCycles covers the pipelined GF-multiply MAC check; the
	// paper (and SGX) assume single-cycle multipliers, so the check adds
	// a couple of pipeline stages, not a recomputation stall.
	MACCheckCycles = 2
	// DecryptCycles is the final keystream XOR; pad generation overlaps
	// the DRAM fetch, as in all counter-mode engines (the whole point of
	// counter mode for memory).
	DecryptCycles = 1
)

// TimingConfig configures a TimingModel: the engine's design point plus the
// on-chip counter/MAC metadata cache, which only the modeled controller has
// (the functional engine sizes its verified caches from the region), and the
// tree design, which only the model varies.
type TimingConfig struct {
	core.Config
	// MetadataCacheBytes / MetadataCacheWays size the on-chip counter/MAC
	// cache (Table 1: 32KB, 8-way).
	MetadataCacheBytes int
	MetadataCacheWays  int
	// DataTree prices the classic pre-BMT design §2.2 contrasts against
	// instead of the engine's Bonsai Merkle tree: the integrity tree spans
	// the data blocks themselves (data leaves first) as well as the counter
	// blocks. This inflates the tree ~60x and adds a full tree walk to every
	// data access — the overhead Rogers et al.'s observation removed. The
	// functional engine builds only the Bonsai Merkle tree.
	DataTree bool
}

// TreeShape returns the shape of the tree the model walks: the engine's
// (core.Config.TreeShape), or under DataTree one leaf per data block followed
// by one per counter-metadata block.
func (c TimingConfig) TreeShape() (tree.Shape, error) {
	if !c.DataTree {
		return c.Config.TreeShape()
	}
	scheme, err := ctr.NewScheme(c.Scheme)
	if err != nil {
		return tree.Shape{}, err
	}
	return tree.NewShape(c.DataBlocks()+scheme.MetadataBlocks(c.DataBlocks()), c.OnChipTreeBytes)
}

// Overhead is the design point's Figure 1 storage breakdown:
// core.ComputeOverhead with the tree counted on the model's shape, which
// differs from the engine's only under DataTree.
func (c TimingConfig) Overhead() (core.Overhead, error) {
	o, err := core.ComputeOverhead(c.Config)
	if err != nil {
		return core.Overhead{}, err
	}
	shape, err := c.TreeShape()
	if err != nil {
		return core.Overhead{}, err
	}
	o.TreeBytes = shape.OffChipBytes()
	o.TreeLevels = shape.OffChipLevels() + 1 // + the counter-block read
	return o, nil
}

// Table1 returns design on the paper's Table 1 controller: a 32KB 8-way
// metadata cache.
func Table1(design core.Config) TimingConfig {
	return TimingConfig{Config: design, MetadataCacheBytes: 32 << 10, MetadataCacheWays: 8}
}

// TimingModel prices reads and writebacks of a secure memory controller
// design point against a DDR3 timing model. It runs the functional engine's
// counter-scheme state machines (internal/ctr) and walks the engine's tree
// shape (core.Config.TreeShape, unless TimingConfig.DataTree prices the
// classic design), so Table 2's re-encryption events and
// Figure 8's latency effects come from one implementation; it skips the
// cryptography, which is what makes billion-access simulations tractable.
type TimingModel struct {
	cfg    TimingConfig
	scheme ctr.Scheme
	shape  tree.Shape
	meta   *cache.Cache
	mem    *dram.Memory

	// DecodeCycles is the counter-decode latency added on metadata
	// fetches; defaults to the scheme's hardware cost (2 cycles for
	// delta schemes, §5.3) and is exported for the ablation bench.
	DecodeCycles int
	// ChargeReencryptTraffic controls whether group re-encryptions issue
	// their background DRAM traffic (64 reads + 64 writes + metadata).
	ChargeReencryptTraffic bool
	// OverflowBufferGroups is the depth of Figure 7's overflow buffer:
	// how many group re-encryptions may be pending in the background
	// engine before the triggering write must stall. 0 means unbounded.
	OverflowBufferGroups int

	// reencBusyUntil is when the background re-encryption engine frees
	// up; pendingDone holds the completion times of queued groups.
	reencBusyUntil uint64
	pendingDone    []uint64
	// reencStall is set by the overflow hook when the buffer was full,
	// for WriteBack to apply to the triggering write.
	reencStall uint64

	// Address-space bases for metadata traffic.
	ctrBase  uint64
	treeBase uint64
	macBase  uint64

	now   uint64 // current request time, visible to the re-encrypt hook
	stats TimingStats
}

// TimingStats classifies every DRAM transaction the controller issued.
type TimingStats struct {
	DataReads     uint64
	DataWrites    uint64
	CounterReads  uint64
	TreeReads     uint64
	MACReads      uint64
	MetaWrites    uint64 // metadata-cache dirty evictions
	ReencryptOps  uint64 // group re-encryptions charged
	ReencryptRead uint64
	ReencryptWrit uint64
	// ReencStallCycles accumulates cycles writes spent waiting for a free
	// overflow-buffer slot (Figure 7's back-pressure path).
	ReencStallCycles uint64
	// MaxReencBacklog is the deepest the overflow buffer ever got.
	MaxReencBacklog int
}

// Transactions returns the total DRAM transaction count.
func (s TimingStats) Transactions() uint64 {
	return s.DataReads + s.DataWrites + s.CounterReads + s.TreeReads +
		s.MACReads + s.MetaWrites + s.ReencryptRead + s.ReencryptWrit
}

// NewTimingModel builds a timing model over the given DRAM.
func NewTimingModel(cfg TimingConfig, mem *dram.Memory) (*TimingModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mem == nil {
		return nil, fmt.Errorf("sim: nil DRAM")
	}
	scheme, err := ctr.NewScheme(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	shape, err := cfg.TreeShape()
	if err != nil {
		return nil, err
	}
	meta, err := cache.New(cache.Config{
		SizeBytes: cfg.MetadataCacheBytes,
		LineBytes: core.BlockBytes,
		Ways:      cfg.MetadataCacheWays,
	})
	if err != nil {
		return nil, err
	}
	t := &TimingModel{
		cfg:                    cfg,
		scheme:                 scheme,
		shape:                  shape,
		meta:                   meta,
		mem:                    mem,
		ChargeReencryptTraffic: true,
		OverflowBufferGroups:   4,
	}
	scheme.OnReencrypt(t.onReencrypt)
	if cfg.Scheme == ctr.Delta || cfg.Scheme == ctr.DualLength {
		t.DecodeCycles = ctr.DecodeCycles
	}

	t.ctrBase = cfg.RegionBytes
	t.treeBase = t.ctrBase + scheme.MetadataBlocks(cfg.DataBlocks())*core.BlockBytes
	t.macBase = t.treeBase + shape.OffChipNodes()*core.BlockBytes
	return t, nil
}

// Scheme returns the live counter scheme (for event stats).
func (t *TimingModel) Scheme() ctr.Scheme { return t.scheme }

// DRAM exposes the underlying memory timing model (for latency and
// row-buffer statistics).
func (t *TimingModel) DRAM() *dram.Memory { return t.mem }

// MetadataCacheStats returns the counter/MAC cache's hit statistics.
func (t *TimingModel) MetadataCacheStats() cache.Stats { return t.meta.Stats() }

// Stats returns the DRAM transaction classification.
func (t *TimingModel) Stats() TimingStats { return t.stats }

// OffChipTreeLevels reports the modeled tree depth (node levels in DRAM).
func (t *TimingModel) OffChipTreeLevels() int { return t.shape.OffChipLevels() }

// metaAccess touches the metadata cache and issues DRAM traffic on a miss,
// returning when the line is available. Dirty evictions are written back
// (fire and forget).
func (t *TimingModel) metaAccess(now, addr uint64, write bool, class *uint64) uint64 {
	res := t.meta.Access(addr, write)
	if res.Evicted && res.EvictedDirty {
		t.stats.MetaWrites++
		t.mem.Access(now, res.EvictedAddr, true)
	}
	if res.Hit {
		return now + MetadataCacheHitCycles
	}
	*class++
	return t.mem.Access(now, addr, false)
}

// fetchCounter returns when the block's decoded counter is available,
// walking the integrity tree on a metadata-cache miss. On a hit, the cached
// counter is already verified (standard BMT optimization: cached metadata
// is inside the trust boundary).
func (t *TimingModel) fetchCounter(now, blk uint64, forWrite bool) uint64 {
	midx := t.scheme.MetadataBlock(blk)
	addr := t.ctrBase + midx*core.BlockBytes

	res := t.meta.Access(addr, forWrite)
	if res.Evicted && res.EvictedDirty {
		t.stats.MetaWrites++
		t.mem.Access(now, res.EvictedAddr, true)
	}
	if res.Hit {
		return now + MetadataCacheHitCycles + uint64(t.DecodeCycles)
	}
	t.stats.CounterReads++
	ready := t.mem.Access(now, addr, false)

	if done := t.walkTree(now, t.metaLeaf(midx), forWrite); done > ready {
		ready = done
	}
	return ready + uint64(t.DecodeCycles)
}

// metaLeaf maps a metadata block to its tree leaf: the engine's numbering,
// where the leaf is the metadata index, or under DataTree that index past the
// data leaves.
func (t *TimingModel) metaLeaf(midx uint64) uint64 {
	if t.cfg.DataTree {
		return t.cfg.DataBlocks() + midx
	}
	return midx
}

// walkTree fetches a leaf's path nodes until one is already cached
// (trusted). Fetches are issued in parallel — the path is known from the
// address — so completion is the max, with bus contention providing the
// serialization pressure.
func (t *TimingModel) walkTree(now, leaf uint64, forWrite bool) uint64 {
	var ready uint64
	var pathBuf [8]uint64
	for _, flat := range t.shape.Path(leaf, pathBuf[:0]) {
		nodeAddr := t.treeBase + flat*core.BlockBytes
		hit := t.meta.Probe(nodeAddr)
		nres := t.meta.Access(nodeAddr, forWrite)
		if nres.Evicted && nres.EvictedDirty {
			t.stats.MetaWrites++
			t.mem.Access(now, nres.EvictedAddr, true)
		}
		if hit {
			break
		}
		t.stats.TreeReads++
		if done := t.mem.Access(now, nodeAddr, false); done > ready {
			ready = done
		}
	}
	return ready
}

// ReadMiss prices an LLC read miss beginning at CPU cycle now and returns
// the cycle at which decrypted, verified data is available.
func (t *TimingModel) ReadMiss(now, addr uint64) uint64 {
	t.now = now
	blk := addr / core.BlockBytes

	t.stats.DataReads++
	dataDone := t.mem.Access(now, addr, false)

	ctrReady := t.fetchCounter(now, blk, false)
	if t.cfg.DataTree {
		// Classic design: verifying the data block itself needs its
		// tree path.
		if done := t.walkTree(now, blk, false); done > ctrReady {
			ctrReady = done
		}
	}

	var macReady uint64
	if t.cfg.Placement == core.MACInECC {
		// Figure 2: the tag rides the ECC lanes of the data burst.
		macReady = dataDone
	} else {
		macAddr := t.macBase + (blk/8)*core.BlockBytes
		macReady = t.metaAccess(now, macAddr, false, &t.stats.MACReads)
	}

	done := dataDone
	if ctrReady > done {
		done = ctrReady
	}
	if macReady > done {
		done = macReady
	}
	return done + MACCheckCycles + DecryptCycles
}

// WriteBack prices a dirty-line eviction from the LLC: the counter
// increments, the line is encrypted and written, metadata is dirtied in the
// cache, and any group re-encryption issues its background traffic.
// The returned cycle is when the write completes at DRAM (the core does not
// stall on it).
func (t *TimingModel) WriteBack(now, addr uint64) uint64 {
	t.now = now
	blk := addr / core.BlockBytes

	// Counter read-modify-write: the metadata block must be resident.
	t.fetchCounter(now, blk, true)
	if t.cfg.DataTree {
		// The data block's tree path is dirtied by the write.
		t.walkTree(now, blk, true)
	}
	t.reencStall = 0
	t.scheme.Touch(blk)
	if t.reencStall > now {
		// The overflow buffer was full: the write waited for the
		// background engine to free a slot (Figure 7).
		t.stats.ReencStallCycles += t.reencStall - now
		now = t.reencStall
	}

	if t.cfg.Placement == core.MACInline {
		// The MAC block is read-modified too.
		macAddr := t.macBase + (blk/8)*core.BlockBytes
		t.metaAccess(now, macAddr, true, &t.stats.MACReads)
	}

	t.stats.DataWrites++
	return t.mem.Access(now, addr, true)
}

// onReencrypt models Figure 7's overflow path: the group is enqueued to the
// overflow buffer and the background re-encryption engine streams it
// through the crypto pipe (64 reads + 64 writes) when it gets to it. The
// core does not wait (§5.2) — unless the buffer is full, in which case the
// triggering write stalls until a slot frees.
func (t *TimingModel) onReencrypt(groupStart uint64, old []uint64, newCounter uint64) {
	t.stats.ReencryptOps++
	if !t.ChargeReencryptTraffic {
		return
	}
	// Drain completed groups from the pending window.
	pending := t.pendingDone[:0]
	for _, done := range t.pendingDone {
		if done > t.now {
			pending = append(pending, done)
		}
	}
	t.pendingDone = pending

	// Full buffer: the write stalls until the oldest pending group
	// completes (its done time is the smallest; entries are appended in
	// completion order because the engine is serial).
	enqueueAt := t.now
	if t.OverflowBufferGroups > 0 && len(t.pendingDone) >= t.OverflowBufferGroups {
		enqueueAt = t.pendingDone[0]
		t.reencStall = enqueueAt
		t.pendingDone = t.pendingDone[1:]
	}

	// The background engine is serial: this group starts when the engine
	// frees up.
	start := enqueueAt
	if t.reencBusyUntil > start {
		start = t.reencBusyUntil
	}
	var done uint64
	for j := range old {
		addr := (groupStart + uint64(j)) * core.BlockBytes
		if addr >= t.cfg.RegionBytes {
			break
		}
		rd := t.mem.Access(start, addr, false)
		wd := t.mem.Access(rd, addr, true)
		if wd > done {
			done = wd
		}
		t.stats.ReencryptRead++
		t.stats.ReencryptWrit++
	}
	t.reencBusyUntil = done
	t.pendingDone = append(t.pendingDone, done)
	if n := len(t.pendingDone); n > t.stats.MaxReencBacklog {
		t.stats.MaxReencBacklog = n
	}
}

package core

import (
	"fmt"
	"math/bits"

	"authmem/internal/crypto"
	"authmem/internal/ctr"
	"authmem/internal/ecc"
	"authmem/internal/tree"
)

// maxCounterCacheEntries caps the verified-counter cache: 512 entries x 64B
// images = Table 1's 32KB metadata cache budget. maxBlockCacheEntries caps
// the verified-block cache: 32K entries x 64B plaintext = a 2MB on-chip
// cache slice, the data half of the trust boundary (blockcache.go). A
// sharded engine builds one engine, and so one pair of caches, per shard:
// like per-core L1s and LLC slices, the aggregate trusted capacity grows
// linearly with shard count.
const (
	maxCounterCacheEntries = 512
	maxBlockCacheEntries   = 32768
)

// cacheEntries sizes a direct-mapped cache over n lines of backing state:
// the next power of two at or above n, capped at limit — a cache never
// needs more lines than there are blocks behind it.
func cacheEntries(limit int, n uint64) int {
	if n >= uint64(limit) {
		return limit
	}
	return 1 << bits.Len64(n-1)
}

// Engine is a functional authenticated encrypted memory.
//
// The "DRAM contents" an attacker can touch are: ciphertext blocks, their
// ECC-lane bits (MAC-in-ECC) or inline MAC tags + SEC-DED bytes (baseline),
// counter-block images, and off-chip tree nodes. All are exposed through
// tamper APIs. The trust boundary holds the keys, the scheme state machine,
// and the top tree level.
//
// Uninitialized blocks read as zeros. When a group re-encryption sweeps
// over a block that was never written, the engine materializes it as an
// encrypted zero block — exactly the write traffic a hardware re-encryption
// engine would emit, which is what the NVMM wear accounting (§2.2) counts.
type Engine struct {
	cfg    Config
	scheme ctr.Scheme
	packer ctr.MetadataPacker
	tr     *tree.Tree

	// ks and key are the engine's cipher and MAC. Both are single-owner
	// (the engine serializes all accesses); parallel sweeps build
	// per-worker instances (see reencrypt.go).
	ks  *crypto.Stream
	key *crypto.MAC

	// codec is the resolved check-lane codec (cfg.ECCCodec). Exactly one
	// of mcod/bcod is non-nil: mcod when the codec carries the MAC in the
	// 8-byte lane (MACInECC), bcod when the lane holds an inline tag and
	// the codec protects ciphertext only (MACInline). ver is mcod's
	// engine-owned verifier; parallel sweeps build per-worker verifiers
	// from mcod (see reencrypt.go).
	codec ecc.Codec
	mcod  ecc.MACCodec
	bcod  ecc.BlockCodec
	ver   ecc.LaneVerifier

	// store holds ciphertext plus the per-block metadata lane (ECC-lane
	// image under MACInECC, MAC tag under MACInline) and SEC-DED bytes;
	// images holds counter-block images. Both are chunked flat arenas
	// indexed by block number — see blockstore.go.
	store  *blockStore
	images *imageStore

	// groupBuf is the reusable plaintext staging buffer for group
	// re-encryption sweeps; spanBuf stages ciphertext runs for the batched
	// WriteBlocks seal path; tagBuf stages their batch-computed MAC tags.
	groupBuf []byte
	spanBuf  []byte
	tagBuf   [ctr.GroupBlocks]uint64

	// [pendingFirst, pendingLast] is the contiguous block span currently
	// being written (one block for Write, up to a metadata leaf's worth for
	// WriteBlocks), so the re-encryption hook does not emit stale
	// ciphertext for in-flight blocks under the new counter (hardware
	// merges the in-flight write instead).
	pendingFirst    uint64
	pendingLast     uint64
	hasPendingWrite bool

	// recovery configures the retry-then-repair read path; quarantine
	// holds blocks that exhausted it (see recovery.go). retryHook models
	// the controller re-issuing a DRAM read on retry.
	recovery   RecoveryPolicy
	quarantine map[uint64]struct{}
	retryHook  func(blk uint64)

	// The on-chip half of the trust boundary, built by NewEngine for every
	// encrypting engine (all nil under DisableEncryption, which has nothing
	// to cache or defer): cc is the verified-counter cache
	// (countercache.go), bc the verified-block cache (blockcache.go), wp
	// the deferred-maintenance write pipeline (writepipe.go).
	cc *counterCache
	bc *blockCache
	wp *writePipe

	// delta is the optional dirty-block set behind incremental
	// persistence (persistinc.go), nil unless EnableDeltaTracking was
	// called. Marked at the metadata commit points and by the
	// re-encryption sweep, drained by AppendDelta.
	delta *deltaTracker

	// Parallel group re-encryption (reencrypt.go): reencWorkers > 1 fans
	// the overflow sweep across a worker pool; reencCtx are the per-worker
	// crypto contexts (stream, MAC, verifier — single-owner, so one set
	// per worker) and reencStats the per-worker event counters merged
	// after each sweep. DataTree engines keep the serial sweep (0 workers).
	reencWorkers int
	reencCtx     []reencCrypto
	reencStats   []EngineStats

	// stats is the atomic event bank (stats.go): the lock-free read path and
	// stats snapshots touch it concurrently with locked traffic.
	stats engineCounters
}

// EngineStats aggregates functional-engine events.
type EngineStats struct {
	Reads             uint64
	Writes            uint64
	FreshReads        uint64 // reads of never-written blocks
	IntegrityFailures uint64
	CorrectedDataBits uint64
	CorrectedMACBits  uint64
	SECDEDCorrected   uint64 // baseline word corrections
	ScrubPasses       uint64
	ScrubFlagged      uint64
	GroupReencrypts   uint64 // counter-overflow group re-encryption sweeps

	// Recovery-path events (see recovery.go).
	RetriedReads       uint64 // re-read attempts after a failed verify
	RetryRecoveries    uint64 // reads salvaged by a retry re-read
	MetadataRepairs    uint64 // counter/tree repairs from trusted state
	Quarantined        uint64 // blocks added to the quarantine list
	QuarantineRefusals uint64 // reads refused because the block is quarantined

	// Verified-counter cache events.
	MetaCacheHits   uint64 // reads that skipped the tree walk
	MetaCacheMisses uint64 // reads that walked the tree and filled the cache

	// Verified-block cache events.
	DataCacheHits   uint64 // reads served as trusted plaintext, engine bypassed
	DataCacheMisses uint64 // reads that verified, decrypted, and filled the cache

	// Write-pipeline events.
	WriteCombines       uint64 // writes absorbed into an already-dirty counter leaf
	DeferredLeafFlushes uint64 // dirty counter leaves flushed (epoch + read-triggered)

	// Parallel re-encryption events.
	ParallelReencryptWorkers uint64 // workers dispatched by parallel group sweeps

	// Lock-free read-path events (see blockcache.go and ShardedEngine).
	LockFreeHits   uint64 // warm reads served with zero lock acquisitions
	SeqlockRetries uint64 // torn-read restarts across all seqlock probes
	SlowPathReads  uint64 // sharded reads that had to take a shard lock
}

// Add folds o's counts into s. Per-shard stats merge through this on read,
// so aggregation never becomes a serialization point.
func (s *EngineStats) Add(o EngineStats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.FreshReads += o.FreshReads
	s.IntegrityFailures += o.IntegrityFailures
	s.CorrectedDataBits += o.CorrectedDataBits
	s.CorrectedMACBits += o.CorrectedMACBits
	s.SECDEDCorrected += o.SECDEDCorrected
	s.ScrubPasses += o.ScrubPasses
	s.ScrubFlagged += o.ScrubFlagged
	s.GroupReencrypts += o.GroupReencrypts
	s.RetriedReads += o.RetriedReads
	s.RetryRecoveries += o.RetryRecoveries
	s.MetadataRepairs += o.MetadataRepairs
	s.Quarantined += o.Quarantined
	s.QuarantineRefusals += o.QuarantineRefusals
	s.MetaCacheHits += o.MetaCacheHits
	s.MetaCacheMisses += o.MetaCacheMisses
	s.DataCacheHits += o.DataCacheHits
	s.DataCacheMisses += o.DataCacheMisses
	s.WriteCombines += o.WriteCombines
	s.DeferredLeafFlushes += o.DeferredLeafFlushes
	s.ParallelReencryptWorkers += o.ParallelReencryptWorkers
	s.LockFreeHits += o.LockFreeHits
	s.SeqlockRetries += o.SeqlockRetries
	s.SlowPathReads += o.SlowPathReads
}

// ReadInfo describes one successful read.
type ReadInfo struct {
	// Fresh is true when the block was never written (zeros returned).
	Fresh bool
	// CorrectedDataBits / CorrectedMACBits report repairs applied.
	CorrectedDataBits int
	CorrectedMACBits  int
	// HardwareChecks is the flip-and-check cost (MAC-in-ECC only).
	HardwareChecks int
}

// NewEngine builds a functional engine for the configuration. There is one
// engine configuration: every encrypting engine runs with the verified-
// counter and verified-block caches (sized from the region, see
// cacheEntries), the deferred-Merkle write pipeline at its default epoch
// bound, and — unless the classic data tree forces the serial sweep — the
// parallel re-encryption pool. Resume builds on this constructor, so a
// resumed engine is the same engine, starting cold.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, recovery: DefaultRecoveryPolicy()}
	checkBytes := 0
	if !cfg.DisableEncryption {
		cod, err := cfg.resolveCodec() // Validate already vetted it
		if err != nil {
			return nil, err
		}
		e.codec = cod
		switch c := cod.(type) {
		case ecc.MACCodec:
			e.mcod = c
		case ecc.BlockCodec:
			e.bcod = c
			checkBytes = c.CheckBytes()
		default:
			return nil, fmt.Errorf("core: codec %q is neither a block nor a MAC codec", cod.Name())
		}
	}
	e.store = newBlockStore(cfg.DataBlocks(), checkBytes)
	if cfg.DisableEncryption {
		return e, nil
	}

	scheme, err := ctr.NewScheme(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	e.scheme = scheme
	packer, ok := scheme.(ctr.MetadataPacker)
	if !ok {
		return nil, fmt.Errorf("core: scheme %s cannot pack metadata", scheme.Name())
	}
	e.packer = packer

	e.key, err = crypto.NewMAC(cfg.KeyMaterial[:24])
	if err != nil {
		return nil, err
	}
	e.ks, err = crypto.NewStream(cfg.KeyMaterial[24:40])
	if err != nil {
		return nil, err
	}
	if e.mcod != nil {
		e.ver, err = e.mcod.NewVerifier(e.key, cfg.CorrectBits)
		if err != nil {
			return nil, err
		}
	}

	leaves := scheme.MetadataBlocks(cfg.DataBlocks())
	if cfg.DataTree {
		// Classic design: data blocks are leaves too; counter blocks
		// follow them in the leaf index space.
		leaves += cfg.DataBlocks()
	}
	e.tr, err = tree.New(e.key, leaves, cfg.OnChipTreeBytes)
	if err != nil {
		return nil, err
	}
	zero := make([]byte, BlockBytes)
	if err := e.tr.Rebuild(func(uint64) []byte { return zero }); err != nil {
		return nil, err
	}
	e.images = newImageStore(e.tr.Leaves())

	metaBlocks := scheme.MetadataBlocks(cfg.DataBlocks())
	e.cc = newCounterCache(cacheEntries(maxCounterCacheEntries, metaBlocks))
	e.bc = newBlockCache(cacheEntries(maxBlockCacheEntries, cfg.DataBlocks()))
	e.wp = newWritePipe(metaBlocks)
	if !cfg.DataTree {
		// The data tree's per-block seal updates tree nodes shared between
		// workers, so those engines keep the serial sweep.
		if err := e.newReencryptPool(); err != nil {
			return nil, err
		}
	}

	scheme.OnReencrypt(e.reencryptGroup)
	return e, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns cumulative event counts. Every counter is atomic, so the
// snapshot never takes a lock and never contends with the read path.
func (e *Engine) Stats() EngineStats {
	s := e.stats.snapshot()
	if !e.cfg.DisableEncryption {
		s.MetaCacheHits = e.cc.hits.Load()
		s.MetaCacheMisses = e.cc.misses.Load()
		s.DataCacheHits = e.bc.hits.Load()
		s.DataCacheMisses = e.bc.misses.Load()
	}
	return s
}

// readCached serves blk from the verified-block cache when resident and not
// quarantined, copying the trusted plaintext into dst. Quarantined blocks
// always fall through to the verifying path so they are refused loudly.
// Caller holds the owning lock (or owns the engine outright).
func (e *Engine) readCached(blk uint64, dst []byte) bool {
	if e.quarantine != nil {
		if _, bad := e.quarantine[blk]; bad {
			return false
		}
	}
	return e.bc.lookup(blk, dst)
}

// ReadLockFree attempts to serve the (checked, shard-local) address from the
// verified-block cache without taking any lock, banking the read into the
// atomic counters on success. It is the ShardedEngine warm-read fast path:
// a hit costs zero lock acquisitions and zero allocations. A miss — cold
// line, epoch-flushed line, or a seqlock retry budget exhausted under an
// active writer — returns false and the caller takes the locked slow path.
//
// No quarantine check is needed: quarantineBlock evicts the line under the
// writer protocol before the block is poisoned, and every insert path first
// releases the block from quarantine, so a resident line implies a healthy
// block (see blockcache.go).
func (e *Engine) ReadLockFree(addr uint64, dst []byte) bool {
	if e.cfg.DisableEncryption || len(dst) != BlockBytes {
		return false
	}
	hit, retries := e.bc.probe(addr/BlockBytes, dst)
	if retries > 0 {
		e.stats.SeqlockRetries.Add(uint64(retries))
	}
	if !hit {
		return false
	}
	e.stats.Reads.Add(1)
	e.stats.LockFreeHits.Add(1)
	e.bc.hits.Add(1)
	return true
}

// SchemeStats returns the counter scheme's event counts (re-encryptions,
// resets, re-encodes, extensions).
func (e *Engine) SchemeStats() ctr.Stats {
	if e.scheme == nil {
		return ctr.Stats{}
	}
	return e.scheme.Stats()
}

// Tree exposes the integrity tree for attack experiments.
func (e *Engine) Tree() *tree.Tree { return e.tr }

// ECCCodec returns the name of the resolved check-lane codec, or "" for an
// encryption-disabled engine.
func (e *Engine) ECCCodec() string {
	if e.codec == nil {
		return ""
	}
	return e.codec.Name()
}

// InlineCheckBits returns the number of stored check bits per block under
// the inline placement (the block codec's CheckBytes * 8), or 0 when the
// MAC-carrying lane is the only check storage. Fault campaigns use it to
// size the attackable ECC bit space.
func (e *Engine) InlineCheckBits() int {
	if e.bcod == nil {
		return 0
	}
	return e.bcod.CheckBytes() * 8
}

func (e *Engine) checkAddr(addr uint64) error {
	if addr%BlockBytes != 0 {
		return fmt.Errorf("core: address %#x not %d-byte aligned", addr, BlockBytes)
	}
	if addr >= e.cfg.RegionBytes {
		return fmt.Errorf("core: address %#x outside %d-byte region", addr, e.cfg.RegionBytes)
	}
	return nil
}

// Write encrypts and stores one 64-byte block at the (aligned) address.
func (e *Engine) Write(addr uint64, plaintext []byte) error {
	if err := e.checkAddr(addr); err != nil {
		return err
	}
	if len(plaintext) != BlockBytes {
		return fmt.Errorf("core: write must be %d bytes, got %d", BlockBytes, len(plaintext))
	}
	blk := addr / BlockBytes
	e.stats.Writes.Add(1)

	if e.cfg.DisableEncryption {
		copy(e.store.Materialize(blk), plaintext)
		return nil
	}

	e.pendingFirst, e.pendingLast, e.hasPendingWrite = blk, blk, true
	out := e.scheme.Touch(blk)
	e.hasPendingWrite = false

	if err := e.storeBlock(blk, plaintext, out.Counter); err != nil {
		return err
	}
	return e.deferCommit(e.scheme.MetadataBlock(blk), blk, 1)
}

// pending reports whether blk is inside the in-flight write span.
func (e *Engine) pending(blk uint64) bool {
	return e.hasPendingWrite && blk >= e.pendingFirst && blk <= e.pendingLast
}

// storeBlock encrypts plaintext under counter directly into the block's
// arena slot and seals it (MAC, ECC bytes, data-tree leaf). Fresh data
// releases the block from quarantine: the faulty contents are overwritten.
func (e *Engine) storeBlock(blk uint64, plaintext []byte, counter uint64) error {
	delete(e.quarantine, blk)
	ct := e.store.Materialize(blk)
	if err := e.ks.XOR(ct, plaintext, blk*BlockBytes, counter); err != nil {
		return err
	}
	if err := e.sealBlock(blk, ct, counter); err != nil {
		return err
	}
	e.bc.insert(blk, plaintext) // write-allocate: read-after-write hits
	return nil
}

// sealBlock installs the MAC (and, in baseline mode, SEC-DED bytes) for the
// already-encrypted arena slice ct of block blk. Under the classic
// data-tree design it also refreshes the block's tree leaf.
func (e *Engine) sealBlock(blk uint64, ct []byte, counter uint64) error {
	addr := blk * BlockBytes
	tag, err := e.key.Tag(ct, addr, counter)
	if err != nil {
		return err
	}
	return e.sealBlockTagged(blk, ct, tag)
}

// sealBlockTagged is sealBlock with the MAC tag already computed — the
// install half of the batched seal paths, whose tags come from one
// TagBatch call over a whole span instead of per-block Tag calls.
func (e *Engine) sealBlockTagged(blk uint64, ct []byte, tag uint64) error {
	if e.mcod != nil {
		e.store.SetMeta(blk, e.mcod.PackLane(tag, ct))
	} else {
		e.store.SetMeta(blk, tag)
		if err := e.bcod.EncodeInto(e.store.Check(blk), ct); err != nil {
			return err
		}
	}
	if e.cfg.DataTree {
		if err := e.tr.UpdateLeafFast(blk, ct); err != nil {
			return err
		}
	}
	return nil
}

// metaLeaf maps a metadata block index to its tree leaf. Under the classic
// data-tree design, data blocks occupy leaves [0, DataBlocks) and counter
// blocks follow.
func (e *Engine) metaLeaf(midx uint64) uint64 {
	if e.cfg.DataTree {
		return e.cfg.DataBlocks() + midx
	}
	return midx
}

// reencryptGroup is the scheme's re-encryption hook: decrypt every block of
// the group under its old counter, re-pad the whole group under the shared
// new counter in one batched XORBlocks sweep, and reinstall the results.
func (e *Engine) reencryptGroup(groupStart uint64, oldCounters []uint64, newCounter uint64) {
	e.stats.GroupReencrypts.Add(1)
	if e.delta != nil {
		// The sweep reseals every block: the log must carry them all again.
		e.delta.mark(e.scheme.MetadataBlock(groupStart), ^uint64(0))
	}
	n := len(oldCounters)
	if rem := e.cfg.DataBlocks() - groupStart; uint64(n) > rem {
		n = int(rem)
	}
	if e.groupBuf == nil {
		e.groupBuf = make([]byte, ctr.GroupBlocks*BlockBytes)
	}
	if e.reencWorkers > 1 && n >= reencParallelMinBlocks {
		e.reencryptGroupParallel(groupStart, oldCounters[:n], newCounter)
		return
	}
	buf := e.groupBuf[:n*BlockBytes]

	// Recover each block's plaintext under its old counter. Never-written
	// blocks materialize as zeros; the in-flight write's slot is staged as
	// zeros too but skipped at install time (its fresh data follows).
	//
	// Each stored block is authenticated (and repaired, if correctable)
	// before it is decrypted: re-sealing an unverified ciphertext would
	// launder a memory fault into a validly-MACed block — a silent
	// corruption no later read could catch. Blocks that fail verification
	// keep their old sealed bits and are quarantined; with the group now
	// on the new counter, any read of them fails the MAC until software
	// rewrites the block.
	var skip [ctr.GroupBlocks]bool
	var vst EngineStats // correction events, published once after the loop
	for j := 0; j < n; j++ {
		blk := groupStart + uint64(j)
		pt := buf[j*BlockBytes : (j+1)*BlockBytes]
		ct := e.store.Ciphertext(blk)
		if ct == nil || e.pending(blk) {
			clear(pt)
			continue
		}
		if !e.verifyStored(blk, ct, oldCounters[j], &vst) {
			e.quarantineBlock(blk)
			skip[j] = true
			clear(pt)
			continue
		}
		if err := e.ks.XOR(pt, ct, blk*BlockBytes, oldCounters[j]); err != nil {
			panic(err) // sizes are fixed; cannot fail
		}
	}
	e.stats.merge(vst)

	// One batched pad sweep re-encrypts the whole group in place, and one
	// batched MAC sweep computes every block's tag; the per-block loop
	// only installs. (Skipped/pending slots get tags too — they hold
	// encrypted zeros — but the waste is a couple of blocks per sweep and
	// keeps the kernel a single contiguous dispatch.)
	if err := e.ks.XORBlocks(buf, buf, groupStart*BlockBytes, newCounter); err != nil {
		panic(err)
	}
	if err := e.key.TagBatch(e.tagBuf[:n], buf, groupStart*BlockBytes, newCounter); err != nil {
		panic(err)
	}

	for j := 0; j < n; j++ {
		blk := groupStart + uint64(j)
		if e.pending(blk) {
			continue // the in-flight write supplies fresh data
		}
		if skip[j] {
			continue // quarantined: old sealed bits stay, reads must fail
		}
		ct := e.store.Materialize(blk)
		copy(ct, buf[j*BlockBytes:(j+1)*BlockBytes])
		if err := e.sealBlockTagged(blk, ct, e.tagBuf[j]); err != nil {
			panic(err)
		}
	}
	// The caller (Touch -> Write) commits the metadata image afterwards.
}

// verifyStored authenticates a resident block's stored bits under counter,
// repairing correctable faults in place exactly as a read would; false
// means the block is uncorrectable and must not be trusted. Correction
// events land in st so parallel sweep workers can bank them race-free.
func (e *Engine) verifyStored(blk uint64, ct []byte, counter uint64, st *EngineStats) bool {
	return e.verifyStoredWith(e.key, e.ver, blk, ct, counter, st)
}

// verifyStoredWith is verifyStored against an explicit MAC/verifier pair:
// parallel sweep workers pass their own single-owner instances instead of
// the engine's (see reencrypt.go).
func (e *Engine) verifyStoredWith(key *crypto.MAC, ver ecc.LaneVerifier, blk uint64, ct []byte, counter uint64, st *EngineStats) bool {
	if e.mcod != nil {
		lane, out, err := ver.VerifyAndCorrect(ct, e.store.Meta(blk), blk*BlockBytes, counter)
		if err != nil {
			panic(err) // sizes are fixed; cannot fail
		}
		if !out.OK {
			return false
		}
		st.CorrectedDataBits += uint64(out.CorrectedDataBits)
		st.CorrectedMACBits += uint64(out.CorrectedMACBits)
		e.store.SetMeta(blk, lane)
		return true
	}
	outcome, err := e.bcod.DecodeAndCorrect(ct, e.store.Check(blk))
	if err != nil {
		panic(err)
	}
	if !outcome.Clean() {
		return false
	}
	st.SECDEDCorrected += uint64(outcome.CorrectedBits)
	ok, err := key.Verify(ct, blk*BlockBytes, counter, e.store.Meta(blk))
	if err != nil {
		panic(err)
	}
	return ok
}

// Read verifies, decrypts, and returns one 64-byte block.
// Correctable memory faults are repaired in place (write-back scrubbing);
// integrity violations return an *IntegrityError.
func (e *Engine) Read(addr uint64, dst []byte) (ReadInfo, error) {
	var info ReadInfo
	if err := e.checkAddr(addr); err != nil {
		return info, err
	}
	if len(dst) != BlockBytes {
		return info, fmt.Errorf("core: read buffer must be %d bytes, got %d", BlockBytes, len(dst))
	}
	blk := addr / BlockBytes
	e.stats.Reads.Add(1)

	if e.cfg.DisableEncryption {
		if ct := e.store.Ciphertext(blk); ct != nil {
			copy(dst, ct)
		} else {
			clear(dst)
			info.Fresh = true
		}
		return info, nil
	}

	// A verified-block cache hit is trusted plaintext: no counter fetch,
	// no tree walk, no MAC, no decryption.
	if e.readCached(blk, dst) {
		return info, nil
	}

	img, err := e.verifiedImage(addr, e.scheme.MetadataBlock(blk))
	if err != nil {
		return info, err
	}
	counter, err := e.decodeVerified(img, blk)
	if err != nil {
		return info, err
	}
	return e.readVerified(blk, counter, dst)
}

// verifiedImage fetches and freshness-checks midx's counter image. A
// counter-cache hit serves the already-verified copy and skips the tree
// walk; a miss establishes trust in the stored image (loadVerifiedImage) and
// fills the cache. addr attributes a failure to the access behind the fetch.
func (e *Engine) verifiedImage(addr, midx uint64) ([]byte, error) {
	if img := e.cc.lookup(midx); img != nil {
		return img, nil
	}
	img, err := e.loadVerifiedImage(addr, midx)
	if err != nil {
		e.stats.IntegrityFailures.Add(1)
		return nil, err
	}
	e.cc.insert(midx, img)
	return img, nil
}

// decodeVerified decodes blk's counter from a verified image, turning a
// decode failure into the read's counter-stage verdict.
func (e *Engine) decodeVerified(img []byte, blk uint64) (uint64, error) {
	counter, err := e.decodeCounter(img, blk)
	if err != nil {
		e.stats.IntegrityFailures.Add(1)
		return 0, &IntegrityError{Addr: blk * BlockBytes, Reason: "counter metadata undecodable: " + err.Error(), Stage: StageCounter}
	}
	return counter, nil
}

// readVerified finishes a read whose counter has already been fetched and
// tree-verified: it authenticates the ciphertext (repairing correctable
// faults in place) and decrypts into dst.
func (e *Engine) readVerified(blk, counter uint64, dst []byte) (ReadInfo, error) {
	var info ReadInfo
	addr := blk * BlockBytes

	if e.quarantine != nil {
		if _, bad := e.quarantine[blk]; bad {
			e.stats.QuarantineRefusals.Add(1)
			return info, &QuarantineError{Addr: addr}
		}
	}

	ct := e.store.Ciphertext(blk)
	if ct == nil {
		if counter != 0 {
			e.stats.IntegrityFailures.Add(1)
			return info, &IntegrityError{Addr: addr, Reason: "counter advanced but block missing", Stage: StageData}
		}
		clear(dst)
		info.Fresh = true
		e.stats.FreshReads.Add(1)
		return info, nil
	}

	if e.mcod != nil {
		lane, out, err := e.ver.VerifyAndCorrect(ct, e.store.Meta(blk), addr, counter)
		if err != nil {
			return info, err
		}
		info.HardwareChecks = out.HardwareChecks
		if !out.OK {
			e.stats.IntegrityFailures.Add(1)
			return info, &IntegrityError{Addr: addr, Reason: "MAC verification failed (tamper or uncorrectable fault)", Stage: StageData}
		}
		info.CorrectedDataBits = out.CorrectedDataBits
		info.CorrectedMACBits = out.CorrectedMACBits
		e.stats.CorrectedDataBits.Add(uint64(out.CorrectedDataBits))
		e.stats.CorrectedMACBits.Add(uint64(out.CorrectedMACBits))
		e.store.SetMeta(blk, lane) // corrected bits written back

	} else { // MACInline baseline: the block codec first, then the MAC.
		outcome, err := e.bcod.DecodeAndCorrect(ct, e.store.Check(blk))
		if err != nil {
			return info, err
		}
		if !outcome.Clean() {
			e.stats.IntegrityFailures.Add(1)
			return info, &IntegrityError{Addr: addr, Reason: "uncorrectable " + e.bcod.Name() + " memory error", Stage: StageData}
		}
		info.CorrectedDataBits = outcome.CorrectedBits
		e.stats.SECDEDCorrected.Add(uint64(outcome.CorrectedBits))
		okTag, err := e.key.Verify(ct, addr, counter, e.store.Meta(blk))
		if err != nil {
			return info, err
		}
		if !okTag {
			e.stats.IntegrityFailures.Add(1)
			return info, &IntegrityError{Addr: addr, Reason: "MAC verification failed", Stage: StageData}
		}
	}

	// Classic data-tree design: the (possibly just-repaired) ciphertext
	// must also verify against its tree leaf — this is the per-access
	// tree walk BMTs exist to avoid.
	if e.cfg.DataTree {
		if err := e.tr.VerifyLeafFast(blk, ct); err != nil {
			e.stats.IntegrityFailures.Add(1)
			return info, &IntegrityError{Addr: addr, Reason: "data block failed integrity tree check: " + err.Error(), Stage: StageDataTree}
		}
	}

	if err := e.ks.XOR(dst, ct, addr, counter); err != nil {
		return info, err
	}
	e.bc.insert(blk, dst)
	return info, nil
}

// decodeCounter extracts a block's counter from the stored (attacker-
// reachable) metadata image, in place, using the scheme's hardware decode
// path.
func (e *Engine) decodeCounter(img []byte, blk uint64) (uint64, error) {
	image := (*[BlockBytes]byte)(img)
	switch e.cfg.Scheme {
	case ctr.Monolithic:
		return ctr.DecodeMonolithicCounter(image, int(blk%ctr.CountersPerMetadataBlock))
	case ctr.Split:
		return ctr.DecodeSplitCounter(image, int(blk%ctr.GroupBlocks))
	case ctr.Delta:
		return ctr.DecodeCounter(image, int(blk%ctr.GroupBlocks))
	case ctr.DualLength:
		return ctr.DecodeDualCounter(image, int(blk%ctr.GroupBlocks))
	default:
		return 0, fmt.Errorf("core: unknown scheme kind")
	}
}

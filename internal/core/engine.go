package core

import (
	"math/bits"
	"sync/atomic"

	"authmem/internal/counter"
	"authmem/internal/crypto"
	"authmem/internal/ctr"
	"authmem/internal/ecc"
	"authmem/internal/macecc"
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
// counter-block images, and off-chip tree nodes. All are reachable through
// the engine's off-chip map (OffChip) and nothing else is. The trust
// boundary holds the keys, the scheme state machine, the caches and the top
// tree level.
//
// Uninitialized blocks read as zeros. When a group re-encryption sweeps
// over a block that was never written, the engine materializes it as an
// encrypted zero block — exactly the write traffic a hardware re-encryption
// engine would emit, which is what the NVMM wear accounting (§2.2) counts.
type Engine struct {
	// stats is the engine's live counter bank (internal/counter): the
	// lock-free read path and Stats touch it concurrently with locked
	// traffic, so every field moves by atomic add. It stays the first
	// field, which keeps its words 64-bit aligned on 32-bit targets.
	stats EngineStats

	cfg    Config
	scheme ctr.Scheme
	tr     *tree.Tree

	// ks and key are the engine's cipher and MAC. Both are single-owner:
	// the engine serializes all accesses, the re-encryption sweep included.
	ks  *crypto.Stream
	key *crypto.MAC

	// ver is the placement's codec. Under MACInECC it is the engine-owned
	// MAC-in-ECC verifier (the lane packs MAC, Hamming bits and scrub
	// parity); under MACInline it is nil, the lane holds the bare tag and
	// the store keeps ecc.WordsPerBlock SEC-DED(72,64) check bytes beside
	// it (ecc.EncodeBlock / ecc.DecodeBlock).
	ver *macecc.Verifier

	// store holds ciphertext plus the per-block metadata lane (ECC-lane
	// image under MACInECC, MAC tag under MACInline) and SEC-DED bytes;
	// images holds counter-block images. Both are chunked flat arenas
	// indexed by block number — see blockstore.go.
	store  *blockStore
	images *imageStore
	// off maps every stored byte above to one physical offset: the
	// adversary's surface (offchip.go).
	off *OffChip

	// groupBuf is the reusable plaintext staging buffer for group
	// re-encryption sweeps; tagBuf stages the batch-computed MAC tags of a
	// sweep or of a write path's run.
	groupBuf []byte
	spanBuf  []byte
	tagBuf   [ctr.GroupBlocks]uint64

	// [pendingFirst, pendingLast] is the contiguous block span currently
	// being written (at most a metadata leaf's worth: one writeChunk), so the re-encryption hook does not emit stale
	// ciphertext for in-flight blocks under the new counter (hardware
	// merges the in-flight write instead).
	pendingFirst    uint64
	pendingLast     uint64
	hasPendingWrite bool

	// quarantine holds blocks that exhausted the recovery ladder (see
	// recovery.go). retryHook models the controller re-issuing a DRAM read
	// on retry.
	quarantine map[uint64]struct{}
	retryHook  func(blk uint64)

	// The on-chip half of the trust boundary, built by NewEngine: cc is the
	// verified-counter cache (countercache.go), bc the verified-block cache
	// (blockcache.go), wp the deferred-maintenance write pipeline
	// (writepipe.go).
	cc *counterCache
	bc *blockCache
	wp *writePipe

	// delta is the optional dirty-block set behind incremental
	// persistence (persistinc.go), nil unless EnableDeltaTracking was
	// called. Marked at the metadata commit points and by the
	// re-encryption sweep, drained by AppendDelta.
	delta *deltaTracker

	// sink takes what the cold path's gather loads (gather.go), so the
	// compiler cannot drop them. Nothing reads it.
	sink uint64
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

	// Lock-free read-path events (see blockcache.go and ShardedEngine).
	LockFreeHits   uint64 // warm reads served with zero lock acquisitions
	SeqlockRetries uint64 // torn-read restarts across all seqlock probes
	SlowPathReads  uint64 // sharded reads that had to take a shard lock
}

// Add folds o's counts into s. Per-shard stats merge through this on read,
// so aggregation never becomes a serialization point.
func (s *EngineStats) Add(o EngineStats) { counter.Sum(s, o) }

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
// engine configuration: it always encrypts, and it runs with the verified-
// counter and verified-block caches (sized from the region, see
// cacheEntries) and the deferred-Merkle write pipeline at its default epoch
// bound. resumeSection builds on this constructor, so a resumed engine is
// the same engine, starting cold.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg}
	checkBytes := 0 // MAC-in-ECC: the lane is the check code
	if cfg.Placement == MACInline {
		checkBytes = ecc.WordsPerBlock
	}
	e.store = newBlockStore(cfg.DataBlocks(), checkBytes)

	scheme, err := ctr.NewScheme(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	e.scheme = scheme

	e.key, err = crypto.NewMAC(cfg.KeyMaterial[:24])
	if err != nil {
		return nil, err
	}
	e.ks, err = crypto.NewStream(cfg.KeyMaterial[24:40])
	if err != nil {
		return nil, err
	}
	if cfg.Placement == MACInECC {
		e.ver, err = macecc.NewVerifier(e.key, cfg.CorrectBits)
		if err != nil {
			return nil, err
		}
	}

	shape, err := cfg.TreeShape()
	if err != nil {
		return nil, err
	}
	e.tr, err = tree.New(e.key, shape.Leaves(), cfg.OnChipTreeBytes)
	if err != nil {
		return nil, err
	}
	e.images = newImageStore(e.tr.Leaves())
	e.off = newOffChip(e)

	metaBlocks := scheme.MetadataBlocks(cfg.DataBlocks())
	e.cc = newCounterCache(cacheEntries(maxCounterCacheEntries, metaBlocks))
	e.bc = newBlockCache(cacheEntries(maxBlockCacheEntries, cfg.DataBlocks()))
	e.wp = newWritePipe(metaBlocks)

	scheme.OnReencrypt(e.reencryptGroup)
	return e, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns cumulative event counts. Every counter is atomic, so the
// snapshot never takes a lock and never contends with the read path. A
// lock-free hit is banked as LockFreeHits only (engineShard.bank) and is
// added to Reads and DataCacheHits here.
func (e *Engine) Stats() EngineStats {
	st := counter.Load(&e.stats)
	st.Reads += st.LockFreeHits
	st.DataCacheHits += st.LockFreeHits
	return st
}

// readCached serves blk from the verified-block cache when resident and not
// quarantined, copying the trusted plaintext into dst. Quarantined blocks
// always fall through to the verifying path so they are refused loudly.
// Caller holds the owning lock (or owns the engine outright), so no writer
// races the probe and the copy succeeds on its first attempt. The probe is
// the lock-free path's, over a one-block span.
func (e *Engine) readCached(blk uint64, dst []byte) bool {
	if e.quarantine != nil {
		if _, bad := e.quarantine[blk]; bad {
			return false
		}
	}
	served, _ := probeSpan(e.bc, blk, dst)
	hit := served != 0
	if hit {
		atomic.AddUint64(&e.stats.DataCacheHits, 1)
	} else {
		atomic.AddUint64(&e.stats.DataCacheMisses, 1)
	}
	return hit
}

// SchemeStats returns the counter scheme's event counts (re-encryptions,
// resets, re-encodes, extensions).
func (e *Engine) SchemeStats() ctr.Stats { return e.scheme.Stats() }

// Tree exposes the integrity tree: its shape locates tree-node faults.
func (e *Engine) Tree() *tree.Tree { return e.tr }

// pending reports whether blk is inside the in-flight write span.
func (e *Engine) pending(blk uint64) bool {
	return e.hasPendingWrite && blk >= e.pendingFirst && blk <= e.pendingLast
}

// sealBlockTagged installs the MAC tag (and, in baseline mode, SEC-DED
// bytes) for the already-encrypted arena slice ct of block blk. It is the one
// seal: the tags come from one TagBatch call over a run of blocks, on the
// write path (writeChunk) and in the re-encryption sweep alike.
func (e *Engine) sealBlockTagged(blk uint64, ct []byte, tag uint64) error {
	if e.ver != nil {
		e.store.SetMeta(blk, uint64(macecc.PackMeta(tag, ct)))
		return nil
	}
	e.store.SetMeta(blk, tag)
	check, err := ecc.EncodeBlock(ct)
	if err != nil {
		return err
	}
	copy(e.store.Check(blk), check[:])
	return nil
}

// reencryptGroup is the scheme's re-encryption hook: decrypt every block of
// the group under its old counter, re-pad the whole group under the shared
// new counter in one batched XORBlocks sweep, and reinstall the results.
//
// The sweep is serial, on the writing caller, under its shard's lock. It runs
// for a fraction of a percent of writes (delta encoding exists to keep it
// rare), and a fan-out across goroutines cost more to start and join than it
// saved on 64 blocks (EXPERIMENTS "Decided experiments").
func (e *Engine) reencryptGroup(groupStart uint64, oldCounters []uint64, newCounter uint64) {
	atomic.AddUint64(&e.stats.GroupReencrypts, 1)
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
	for j := 0; j < n; j++ {
		blk := groupStart + uint64(j)
		pt := buf[j*BlockBytes : (j+1)*BlockBytes]
		ct := e.store.Ciphertext(blk)
		if ct == nil || e.pending(blk) {
			clear(pt)
			continue
		}
		if _, fail, err := e.verifyStored(blk, ct, oldCounters[j]); err != nil {
			panic(err) // sizes are fixed; cannot fail
		} else if fail != "" {
			e.quarantineBlock(blk)
			skip[j] = true
			clear(pt)
			continue
		}
		if err := e.ks.XORBlocks(pt, ct, blk*BlockBytes, oldCounters[j]); err != nil {
			panic(err) // sizes are fixed; cannot fail
		}
	}

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
	// The caller (Touch -> writeChunk) commits the metadata image afterwards.
}

// verifyStored authenticates a resident block's stored bits under counter,
// repairing correctable faults in place and banking the corrections. fail is
// empty when the block is authentic and otherwise says why it is not. It is
// the one check of stored bits, behind every read and the re-encryption
// sweep.
func (e *Engine) verifyStored(blk uint64, ct []byte, counter uint64) (info ReadInfo, fail string, err error) {
	addr := blk * BlockBytes
	if e.ver != nil {
		lane := macecc.Meta(e.store.Meta(blk))
		out, err := e.ver.VerifyAndCorrect(ct, &lane, addr, counter)
		if err != nil {
			return info, "", err
		}
		info.HardwareChecks = out.HardwareChecks
		if out.Status != macecc.OK {
			return info, "MAC verification failed (tamper or uncorrectable fault)", nil
		}
		info.CorrectedDataBits = out.CorrectedDataBits
		info.CorrectedMACBits = out.CorrectedMACBits
		atomic.AddUint64(&e.stats.CorrectedDataBits, uint64(out.CorrectedDataBits))
		atomic.AddUint64(&e.stats.CorrectedMACBits, uint64(out.CorrectedMACBits))
		e.store.SetMeta(blk, uint64(lane)) // corrected bits written back
		return info, "", nil
	}
	// MACInline baseline: SEC-DED first, then the MAC.
	outcome, err := ecc.DecodeBlock(ct, (*[ecc.WordsPerBlock]uint8)(e.store.Check(blk)))
	if err != nil {
		return info, "", err
	}
	if !outcome.Clean() {
		return info, "uncorrectable " + ecc.CodecName + " memory error", nil
	}
	info.CorrectedDataBits = outcome.CorrectedBits
	atomic.AddUint64(&e.stats.SECDEDCorrected, uint64(outcome.CorrectedBits))
	ok, err := e.key.Verify(ct, addr, counter, e.store.Meta(blk))
	if err != nil || ok {
		return info, "", err
	}
	return info, "MAC verification failed", nil
}

// verifiedImage fetches and freshness-checks midx's counter image. A
// counter-cache hit serves the already-verified copy and skips the tree
// walk; a miss establishes trust in the stored image (loadVerifiedImage) and
// fills the cache. addr attributes a failure to the access behind the fetch.
func (e *Engine) verifiedImage(addr, midx uint64) ([]byte, error) {
	if img := e.cc.lookup(midx); img != nil {
		atomic.AddUint64(&e.stats.MetaCacheHits, 1)
		return img, nil
	}
	atomic.AddUint64(&e.stats.MetaCacheMisses, 1)
	img, err := e.loadVerifiedImage(addr, midx)
	if err != nil {
		atomic.AddUint64(&e.stats.IntegrityFailures, 1)
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
		atomic.AddUint64(&e.stats.IntegrityFailures, 1)
		return 0, &IntegrityError{Addr: blk * BlockBytes, Reason: "counter metadata undecodable: " + err.Error(), Stage: StageCounter}
	}
	return counter, nil
}

// readVerified finishes a read whose counter has already been fetched and
// tree-verified: it authenticates the ciphertext (repairing correctable
// faults in place) and decrypts into dst.
func (e *Engine) readVerified(blk, counter uint64, dst []byte) (ReadInfo, error) {
	addr := blk * BlockBytes

	if e.quarantine != nil {
		if _, bad := e.quarantine[blk]; bad {
			atomic.AddUint64(&e.stats.QuarantineRefusals, 1)
			return ReadInfo{}, &QuarantineError{Addr: addr}
		}
	}

	ct := e.store.Ciphertext(blk)
	if ct == nil {
		if counter != 0 {
			atomic.AddUint64(&e.stats.IntegrityFailures, 1)
			return ReadInfo{}, &IntegrityError{Addr: addr, Reason: "counter advanced but block missing", Stage: StageData}
		}
		clear(dst)
		atomic.AddUint64(&e.stats.FreshReads, 1)
		return ReadInfo{Fresh: true}, nil
	}

	info, fail, err := e.verifyStored(blk, ct, counter)
	if err != nil {
		return info, err
	}
	if fail != "" {
		atomic.AddUint64(&e.stats.IntegrityFailures, 1)
		return info, &IntegrityError{Addr: addr, Reason: fail, Stage: StageData}
	}

	if err := e.ks.XORBlocks(dst, ct, addr, counter); err != nil {
		return info, err
	}
	e.bc.insert(blk, dst)
	return info, nil
}

// decodeCounter extracts a block's counter from the stored (attacker-
// reachable) metadata image, in place, using the scheme's hardware decode
// path.
func (e *Engine) decodeCounter(img []byte, blk uint64) (uint64, error) {
	return e.scheme.StoredCounter((*[ctr.MetadataBlockBytes]byte)(img), blk)
}

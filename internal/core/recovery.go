package core

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"authmem/internal/tree"
)

// Recovery path for reads that fail verification.
//
// The engine distinguishes three tiers of response to a failed read, in the
// order a memory controller escalates:
//
//  1. Metadata repair. The counter state machine and the tree's top level
//     live inside the trust boundary (see Engine). When the DRAM copy of a
//     counter block or an off-chip tree node is corrupted, the truth is
//     still on-chip: the engine re-derives every resident counter image
//     from the scheme and rebuilds the integrity tree from the re-derived
//     images. Nothing attacker-reachable is ever re-authenticated — the
//     rebuild sources are trusted state only — so repair cannot be abused
//     to launder tampered metadata.
//
//  2. Bounded re-read retries. A transient bus or cell fault clears when
//     the controller re-issues the DRAM transaction; the retry hook lets a
//     fault model (internal/campaign) decide whether the fault was
//     transient. Persistent faults keep failing and fall through.
//
//  3. Quarantine. A block whose data-plane fault exceeds the correction
//     budget is poisoned: further reads fail fast with a QuarantineError
//     (machine-check "poison" semantics) until software rewrites the block
//     with fresh data, which releases it. Data in a quarantined block is
//     lost — but loudly, never silently.

// maxRetries is the number of re-read attempts after a failed verification:
// a controller that retries a failed read twice before raising a machine
// check.
const maxRetries = 2

// SetRetryHook registers f, called with the failing block index before each
// retry re-read. It models the memory controller re-issuing the DRAM
// transaction: a fault injector reverts transient faults here, so the
// retry observes what a re-read of the physical medium would.
func (e *Engine) SetRetryHook(f func(blk uint64)) { e.retryHook = f }

// QuarantineError is returned for reads of a quarantined block: a previous
// access exhausted the correction budget and the block's contents cannot be
// trusted until rewritten.
type QuarantineError struct {
	// Addr is the byte address of the refused access.
	Addr uint64
}

// Error implements error.
func (e *QuarantineError) Error() string {
	return fmt.Sprintf("core: block at %#x is quarantined (uncorrectable fault; rewrite to release)", e.Addr)
}

// RecoverInfo extends ReadInfo with what the recovery path did.
type RecoverInfo struct {
	ReadInfo
	// Retries is the number of re-read attempts performed.
	Retries int
	// RetryRecovered is true when a retry re-read succeeded.
	RetryRecovered bool
	// MetadataRepaired is true when counter images and the tree were
	// rebuilt from trusted state during this read.
	MetadataRepaired bool
	// Quarantined is true when this read exhausted the ladder and added
	// the block to the quarantine list.
	Quarantined bool
}

// ReadRecover is ReadBlocks with the engine's recovery ladder applied to
// every block of the span that fails verification: it attempts metadata
// repair (counter-stage failures), then bounded re-read retries, and finally
// quarantines the block and returns the error, which carries that block's
// address. A block the ladder saves is read and the span goes on after it.
// RecoverInfo merges the span: the ReadInfo of every block read and the rungs
// that fired. The returned error is nil exactly when dst holds verified
// plaintext.
func (e *Engine) ReadRecover(addr uint64, dst []byte) (RecoverInfo, error) {
	return e.read(addr, dst, true)
}

// recoverBlock runs the recovery ladder for block blk, whose read into dst
// just failed with err. It records the rungs it climbs in ri and returns the
// info of the re-read that succeeded, or the final error.
func (e *Engine) recoverBlock(blk uint64, dst []byte, err error, ri *RecoverInfo) (ReadInfo, error) {
	var qe *QuarantineError
	if errors.As(err, &qe) {
		return ReadInfo{}, err // already poisoned: fail fast, no more work
	}
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		return ReadInfo{}, err // structural errors propagate
	}
	addr := blk * BlockBytes

	// Tier 1: counter-plane failures are repairable from trusted state.
	if ie.Stage == StageCounter {
		if rerr := e.repairMetadata(); rerr == nil {
			atomic.AddUint64(&e.stats.MetadataRepairs, 1)
			ri.MetadataRepaired = true
			var r RecoverInfo
			if r, err = e.read(addr, dst, false); err == nil {
				return r.ReadInfo, nil
			}
		}
	}

	// Tier 2: bounded re-read retries for transient faults.
	for t := 0; t < maxRetries; t++ {
		atomic.AddUint64(&e.stats.RetriedReads, 1)
		ri.Retries++
		if e.retryHook != nil {
			e.retryHook(blk)
		}
		var r RecoverInfo
		if r, err = e.read(addr, dst, false); err == nil {
			atomic.AddUint64(&e.stats.RetryRecoveries, 1)
			ri.RetryRecovered = true
			return r.ReadInfo, nil
		}
	}

	// Tier 3: the block is beyond recovery; poison it.
	e.quarantineBlock(blk)
	ri.Quarantined = true
	return ReadInfo{}, err
}

// quarantineBlock adds blk to the quarantine list.
func (e *Engine) quarantineBlock(blk uint64) {
	e.bc.evict(blk) // a poisoned block must never serve cached plaintext
	if e.quarantine == nil {
		e.quarantine = make(map[uint64]struct{})
	}
	if _, ok := e.quarantine[blk]; !ok {
		e.quarantine[blk] = struct{}{}
		atomic.AddUint64(&e.stats.Quarantined, 1)
	}
}

// Quarantined reports whether the block at addr is quarantined.
func (e *Engine) Quarantined(addr uint64) bool {
	_, ok := e.quarantine[addr/BlockBytes]
	return ok
}

// QuarantineCount returns the number of quarantined blocks without
// allocating.
func (e *Engine) QuarantineCount() int { return len(e.quarantine) }

// QuarantineList returns the quarantined block indices in ascending order.
func (e *Engine) QuarantineList() []uint64 {
	if len(e.quarantine) == 0 {
		return nil
	}
	blks := make([]uint64, 0, len(e.quarantine))
	for blk := range e.quarantine {
		blks = append(blks, blk)
	}
	sort.Slice(blks, func(i, j int) bool { return blks[i] < blks[j] })
	return blks
}

// MetadataIndex returns the index of the counter block covering addr, which
// is also the tree leaf that block verifies under, for fault targeting and
// reporting.
func (e *Engine) MetadataIndex(addr uint64) uint64 {
	return e.scheme.MetadataBlock(addr / BlockBytes)
}

// repairTampered handles a tree mutator's result. A mutator verifies every
// stored node it would re-MAC and fails with *tree.ErrTampered, writing
// nothing, when DRAM no longer matches the trusted level — an attacker
// rolled a node back and is waiting for an update to re-authenticate it.
// That is a detected integrity failure, repaired here from trusted state
// like any counter-plane fault: the rebuilt tree reflects every accepted
// write, so the caller carries on. Any other error is returned as is.
func (e *Engine) repairTampered(err error) error {
	if err == nil {
		return nil
	}
	var te *tree.ErrTampered
	if !errors.As(err, &te) {
		return err
	}
	atomic.AddUint64(&e.stats.IntegrityFailures, 1)
	if err := e.repairMetadata(); err != nil {
		return err
	}
	atomic.AddUint64(&e.stats.MetadataRepairs, 1)
	return nil
}

// repairMetadata re-derives every resident counter-block image from the
// trusted scheme state machine and rebuilds the integrity tree from the
// re-derived images — the recovery analogue of a write-back metadata cache
// flushing clean copies over a corrupted DRAM line. Only trusted sources
// feed the rebuild, so attacker-modified bytes are never re-authenticated.
func (e *Engine) repairMetadata() error {
	// The cache may hold lines verified against the pre-repair tree; start
	// cold so every post-repair read re-verifies against the rebuilt one.
	e.cc.flush()
	e.bc.flush()
	// Re-packing every image and rebuilding the tree below subsumes any
	// deferred Merkle maintenance; drop the dirty set rather than flushing
	// leaves the rebuild is about to recompute anyway.
	e.wp.reset()
	e.images.forEach(func(midx uint64, img []byte) {
		packed := e.scheme.PackMetadata(midx)
		copy(img, packed[:])
	})
	return e.tr.Rebuild(e.images.Load)
}

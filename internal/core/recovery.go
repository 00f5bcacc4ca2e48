package core

import (
	"errors"
	"fmt"
	"sort"
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

// RecoveryPolicy bounds the retry-then-repair read path.
type RecoveryPolicy struct {
	// MaxRetries is the number of re-read attempts after a failed
	// verification (0 disables retries).
	MaxRetries int
	// RepairMetadata enables rebuilding counter images and the integrity
	// tree from trusted on-chip state when a counter-stage check fails.
	RepairMetadata bool
}

// DefaultRecoveryPolicy mirrors a controller that retries a failed read
// twice before raising a machine check, with metadata repair enabled.
func DefaultRecoveryPolicy() RecoveryPolicy {
	return RecoveryPolicy{MaxRetries: 2, RepairMetadata: true}
}

// SetRecoveryPolicy replaces the engine's recovery policy.
func (e *Engine) SetRecoveryPolicy(p RecoveryPolicy) {
	if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
	e.recovery = p
}

// RecoveryPolicy returns the active policy.
func (e *Engine) RecoveryPolicy() RecoveryPolicy { return e.recovery }

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
	// Quarantined is true when this read exhausted the policy and added
	// the block to the quarantine list.
	Quarantined bool
}

// ReadRecover is Read with the engine's recovery policy applied: on a
// failed verification it attempts metadata repair (counter-stage failures),
// then bounded re-read retries, and finally quarantines the block. The
// returned error is nil exactly when dst holds verified plaintext.
func (e *Engine) ReadRecover(addr uint64, dst []byte) (RecoverInfo, error) {
	var ri RecoverInfo
	info, err := e.Read(addr, dst)
	ri.ReadInfo = info
	if err == nil || e.cfg.DisableEncryption {
		return ri, err
	}
	var qe *QuarantineError
	if errors.As(err, &qe) {
		return ri, err // already poisoned: fail fast, no more work
	}
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		return ri, err // structural errors (bad address etc.) propagate
	}
	blk := addr / BlockBytes

	// Tier 1: counter-plane failures are repairable from trusted state.
	if e.recovery.RepairMetadata && ie.Stage == StageCounter {
		if rerr := e.repairMetadata(); rerr == nil {
			e.stats.MetadataRepairs.Add(1)
			ri.MetadataRepaired = true
			info, err = e.Read(addr, dst)
			ri.ReadInfo = info
			if err == nil {
				return ri, nil
			}
		}
	}

	// Tier 2: bounded re-read retries for transient faults.
	for t := 0; t < e.recovery.MaxRetries; t++ {
		e.stats.RetriedReads.Add(1)
		ri.Retries++
		if e.retryHook != nil {
			e.retryHook(blk)
		}
		info, err = e.Read(addr, dst)
		ri.ReadInfo = info
		if err == nil {
			e.stats.RetryRecoveries.Add(1)
			ri.RetryRecovered = true
			return ri, nil
		}
	}

	// Tier 3: the block is beyond recovery; poison it.
	e.quarantineBlock(blk)
	ri.Quarantined = true
	return ri, err
}

// quarantineBlock adds blk to the quarantine list.
func (e *Engine) quarantineBlock(blk uint64) {
	e.bc.evict(blk) // a poisoned block must never serve cached plaintext
	if e.quarantine == nil {
		e.quarantine = make(map[uint64]struct{})
	}
	if _, ok := e.quarantine[blk]; !ok {
		e.quarantine[blk] = struct{}{}
		e.stats.Quarantined.Add(1)
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

// MetadataIndex returns the index of the counter block covering addr, for
// fault targeting and reporting.
func (e *Engine) MetadataIndex(addr uint64) uint64 {
	return e.scheme.MetadataBlock(addr / BlockBytes)
}

// MetaLeaf returns the tree-leaf index holding the given counter block, for
// targeting faults at a specific block's verification path.
func (e *Engine) MetaLeaf(midx uint64) uint64 { return e.metaLeaf(midx) }

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
		packed := e.packer.PackMetadata(midx)
		copy(img, packed[:])
	})
	zero := make([]byte, BlockBytes)
	return e.tr.Rebuild(func(leaf uint64) []byte {
		if e.cfg.DataTree {
			if leaf < e.cfg.DataBlocks() {
				if ct := e.store.Ciphertext(leaf); ct != nil {
					return ct
				}
				return zero
			}
			return e.images.Load(leaf - e.cfg.DataBlocks())
		}
		return e.images.Load(leaf)
	})
}

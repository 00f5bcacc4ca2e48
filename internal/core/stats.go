package core

import "sync/atomic"

// engineCounters is the engine's internal, concurrency-safe event bank.
//
// The lock-free read path (blockcache.go probe + ShardedEngine fast path)
// banks events while other goroutines mutate the same engine under its shard
// lock, and Stats() snapshots shards without taking any lock at all — so
// every counter is an atomic word. EngineStats stays a plain value struct:
// it is the public snapshot type (aliased as authmem.EngineStats), returned
// by value and merged with EngineStats.Add.
//
// On the locked paths the atomics replace unsynchronized ++ with uncontended
// atomic adds; on the lock-free path they are the only correct choice. Either
// way a snapshot never contends with traffic.
type engineCounters struct {
	Reads             atomic.Uint64
	Writes            atomic.Uint64
	FreshReads        atomic.Uint64
	IntegrityFailures atomic.Uint64
	CorrectedDataBits atomic.Uint64
	CorrectedMACBits  atomic.Uint64
	SECDEDCorrected   atomic.Uint64
	ScrubPasses       atomic.Uint64
	ScrubFlagged      atomic.Uint64
	GroupReencrypts   atomic.Uint64

	RetriedReads       atomic.Uint64
	RetryRecoveries    atomic.Uint64
	MetadataRepairs    atomic.Uint64
	Quarantined        atomic.Uint64
	QuarantineRefusals atomic.Uint64

	WriteCombines       atomic.Uint64
	DeferredLeafFlushes atomic.Uint64

	LockFreeHits   atomic.Uint64
	SeqlockRetries atomic.Uint64
	SlowPathReads  atomic.Uint64
}

// snapshot returns a plain copy of the counters. Individual loads are
// atomic; the snapshot as a whole is not a single linearization point, which
// is the usual (and honest) contract for performance counters read while
// traffic is in flight.
func (c *engineCounters) snapshot() EngineStats {
	return EngineStats{
		Reads:               c.Reads.Load(),
		Writes:              c.Writes.Load(),
		FreshReads:          c.FreshReads.Load(),
		IntegrityFailures:   c.IntegrityFailures.Load(),
		CorrectedDataBits:   c.CorrectedDataBits.Load(),
		CorrectedMACBits:    c.CorrectedMACBits.Load(),
		SECDEDCorrected:     c.SECDEDCorrected.Load(),
		ScrubPasses:         c.ScrubPasses.Load(),
		ScrubFlagged:        c.ScrubFlagged.Load(),
		GroupReencrypts:     c.GroupReencrypts.Load(),
		RetriedReads:        c.RetriedReads.Load(),
		RetryRecoveries:     c.RetryRecoveries.Load(),
		MetadataRepairs:     c.MetadataRepairs.Load(),
		Quarantined:         c.Quarantined.Load(),
		QuarantineRefusals:  c.QuarantineRefusals.Load(),
		WriteCombines:       c.WriteCombines.Load(),
		DeferredLeafFlushes: c.DeferredLeafFlushes.Load(),
		LockFreeHits:        c.LockFreeHits.Load(),
		SeqlockRetries:      c.SeqlockRetries.Load(),
		SlowPathReads:       c.SlowPathReads.Load(),
	}
}

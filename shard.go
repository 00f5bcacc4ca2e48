package authmem

import (
	"io"

	"authmem/internal/core"
)

// ShardedMemory is an authenticated encrypted memory partitioned into N
// independent shards for parallel access by concurrent goroutines.
//
// Each shard — a contiguous 1/N slice of the region — is a complete engine
// behind its own lock: ciphertext arena, counter state, quarantine set,
// verified-counter and verified-block caches, write pipeline, and Merkle
// subtree. Warm reads are served from the owning shard's verified-block
// cache without taking any lock. Accesses to different shards never
// contend, and multi-block spans that cross shard boundaries are split and
// served concurrently. A small trusted combining layer hashes the per-shard
// subtree roots into the single root digest used for persist/resume, so the
// whole memory still pins to one trusted value.
//
// Shard isolation is cryptographic as well as structural: each shard's keys
// are derived from the master key and the shard's position, so ciphertext
// or metadata moved between shards can never verify. A 1-shard
// ShardedMemory is bit-compatible with Memory, including persisted images.
//
// It is safe for concurrent use. Error addresses, quarantine lists, and
// statistics are all reported in the global address space.
type ShardedMemory struct {
	eng *core.ShardedEngine
}

// NewSharded builds a ShardedMemory with the given shard count. shards must
// be a power of two, and the region must divide into 4KB-block-group-
// aligned shards.
func NewSharded(cfg Config, shards int) (*ShardedMemory, error) {
	icfg, err := cfg.internal()
	if err != nil {
		return nil, err
	}
	eng, err := core.NewShardedEngine(icfg, shards)
	if err != nil {
		return nil, err
	}
	return &ShardedMemory{eng: eng}, nil
}

// Shards returns the shard count.
func (s *ShardedMemory) Shards() int { return s.eng.Shards() }

// ShardSize returns each shard's slice of the region in bytes.
func (s *ShardedMemory) ShardSize() uint64 { return s.eng.ShardBytes() }

// Size returns the protected region size in bytes.
func (s *ShardedMemory) Size() uint64 { return s.eng.ShardBytes() * uint64(s.eng.Shards()) }

// ShardOf returns the index of the shard owning addr.
func (s *ShardedMemory) ShardOf(addr uint64) int { return s.eng.ShardOf(addr) }

// Write encrypts and stores one 64-byte block, locking only the owning
// shard. See Memory.Write.
func (s *ShardedMemory) Write(addr uint64, block []byte) error {
	return s.eng.Write(addr, block)
}

// Read verifies and decrypts one 64-byte block, locking only the owning
// shard. See Memory.Read.
func (s *ShardedMemory) Read(addr uint64, dst []byte) (ReadInfo, error) {
	return s.eng.Read(addr, dst)
}

// WriteBlocks stores a contiguous span of blocks. A span crossing shard
// boundaries is split and the per-shard segments are written concurrently.
// On error the lowest-addressed failure is returned; segments in other
// shards may have completed (span atomicity is per shard, as with
// independent memory channels). See Memory.WriteBlocks.
func (s *ShardedMemory) WriteBlocks(addr uint64, src []byte) error {
	return s.eng.WriteBlocks(addr, src)
}

// ReadBlocks reads a contiguous span of blocks, fanning cross-shard spans
// out concurrently. See WriteBlocks for the error semantics and
// Memory.ReadBlocks for the single-shard behaviour.
func (s *ShardedMemory) ReadBlocks(addr uint64, dst []byte) error {
	return s.eng.ReadBlocks(addr, dst)
}

// ReadRecover reads with the recovery ladder, locking only the owning
// shard. See Memory.ReadRecover.
func (s *ShardedMemory) ReadRecover(addr uint64, dst []byte) (RecoverInfo, error) {
	return s.eng.ReadRecover(addr, dst)
}

// SetRecoveryPolicy replaces the recovery policy on every shard.
func (s *ShardedMemory) SetRecoveryPolicy(p RecoveryPolicy) { s.eng.SetRecoveryPolicy(p) }

// RecoveryPolicy reports the policy currently in force.
func (s *ShardedMemory) RecoveryPolicy() RecoveryPolicy { return s.eng.RecoveryPolicy() }

// Quarantined reports whether the block at addr is quarantined.
func (s *ShardedMemory) Quarantined(addr uint64) bool { return s.eng.Quarantined(addr) }

// QuarantineCount returns the total quarantined blocks without allocating.
func (s *ShardedMemory) QuarantineCount() int { return s.eng.QuarantineCount() }

// QuarantineList returns global quarantined block indices in ascending
// order, or nil when the quarantine is empty.
func (s *ShardedMemory) QuarantineList() []uint64 { return s.eng.QuarantineList() }

// Stats merges per-shard engine statistics into region-wide totals.
func (s *ShardedMemory) Stats() EngineStats { return s.eng.Stats() }

// CounterStats merges per-shard counter-scheme events. See
// Memory.CounterStats.
func (s *ShardedMemory) CounterStats() CounterStats { return s.eng.SchemeStats() }

// Scrub runs one patrol-scrub pass shard by shard. See Memory.Scrub.
func (s *ShardedMemory) Scrub() (ScrubReport, error) { return s.eng.Scrub() }

// ParallelScrub scrubs all shards concurrently — here the shards themselves
// are the parallelism, one goroutine per shard.
func (s *ShardedMemory) ParallelScrub() (ScrubReport, error) { return s.eng.ParallelScrub() }

// The adversary/fault interface, routed to the owning shard. Addresses are
// global; each flip locks only the shard it lands in.

// FlipDataBit flips one stored ciphertext bit of the block at addr.
func (s *ShardedMemory) FlipDataBit(addr uint64, bit int) error {
	return s.eng.TamperCiphertext(addr, bit)
}

// FlipECCBit flips one of a block's 64 ECC-lane bits (MACInECC placement).
func (s *ShardedMemory) FlipECCBit(addr uint64, bit int) error {
	return s.eng.TamperECCLane(addr, bit)
}

// FlipMACBit flips one stored MAC-tag bit (InlineMAC placement).
func (s *ShardedMemory) FlipMACBit(addr uint64, bit int) error {
	return s.eng.TamperInlineTag(addr, bit)
}

// FlipCheckBit flips one bit of a block's codec check bytes (InlineMAC
// placement; bit range is the codec's CheckBytes*8).
func (s *ShardedMemory) FlipCheckBit(addr uint64, bit int) error {
	return s.eng.TamperCheckBit(addr, bit)
}

// FlipCounterBit flips one bit of the counter block covering addr.
func (s *ShardedMemory) FlipCounterBit(addr uint64, bit int) error {
	return s.eng.TamperCounterForAddr(addr, bit)
}

// WithShard locks shard i and runs fn against a Memory view of just that
// shard, giving attack and fault experiments the full single-shard surface
// (snapshots, tree-node flips, counter stats) without racing concurrent
// traffic. Addresses inside fn are shard-local (subtract i*ShardSize() from
// global addresses). fn must not retain the Memory after returning.
func (s *ShardedMemory) WithShard(i int, fn func(m *Memory)) {
	s.eng.WithShard(i, func(eng *core.Engine) { fn(&Memory{eng: eng}) })
}

// FlushAll forces every shard's deferred Merkle maintenance to land, with
// the shards flushing concurrently. Each shard's write pipeline combines
// writes into dirty tree leaves and flushes itself at its epoch bound and
// before persist/root export; FlushAll is the explicit region-wide
// quiescent point.
func (s *ShardedMemory) FlushAll() error { return s.eng.FlushAll() }

// RootDigest returns the combining layer's trusted digest over all shard
// subtree roots — the value Persist returns, available without serializing.
func (s *ShardedMemory) RootDigest() RootDigest { return s.eng.RootDigest() }

// Persist writes the sharded NVMM image (format v2: per-shard sections
// under one header; a 1-shard memory writes a Memory-compatible v1 image)
// and returns the combined root digest. Store the digest in trusted
// storage, as with Memory.Persist — it pins every shard section against
// rollback.
func (s *ShardedMemory) Persist(w io.Writer) (RootDigest, error) { return s.eng.Persist(w) }

// ResumeSharded rebuilds a ShardedMemory from a persisted image under the
// same Config and shard count. A v1 (Memory) image is accepted when shards
// is 1. If expectRoot is non-nil the recombined root must match it.
func ResumeSharded(cfg Config, shards int, r io.Reader, expectRoot *RootDigest) (*ShardedMemory, error) {
	icfg, err := cfg.internal()
	if err != nil {
		return nil, err
	}
	eng, err := core.ResumeSharded(icfg, shards, r, expectRoot)
	if err != nil {
		return nil, err
	}
	return &ShardedMemory{eng: eng}, nil
}

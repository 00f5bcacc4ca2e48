// Package authmem is an authenticated, encrypted memory — a from-scratch
// reproduction of "Reducing the Overhead of Authenticated Memory Encryption
// Using Delta Encoding and ECC Memory" (Yitbarek & Austin, DAC 2018).
//
// A Memory behaves like a 64-byte-block RAM whose off-chip contents an
// attacker fully controls: every block is AES-CTR encrypted under a
// per-block write counter, authenticated with a 56-bit Carter-Wegman MAC,
// and protected against replay by a Bonsai Merkle tree over the counters.
// The package implements the paper's two optimizations:
//
//   - MAC-in-ECC: MACs live in the 8 ECC bytes an ECC DIMM reserves per
//     block (with a 7-bit Hamming code over the MAC and a scrub parity
//     bit), doubling as the memory's error-detection and -correction code.
//   - Delta-encoded counters: 4KB block-groups share a 56-bit reference;
//     per-block 7-bit deltas (or 6-bit with a dual-length extension), with
//     reset/re-encode optimizations that minimize group re-encryptions.
//
// Tamper, fault-injection, snapshot/replay, and scrubbing APIs are exposed
// so the security and reliability claims can be exercised directly; see the
// examples directory.
//
// There is one device. A Memory is a region of N >= 1 independently locked
// shards, safe for concurrent use: New builds the one-shard region (one
// engine behind one lock, the paper's single controller) and NewSharded the
// N-shard one. Every shard carries the on-chip half of the paper's
// controller — a verified-counter cache, a verified-block cache and a
// deferred, write-combining integrity-tree update — with nothing to enable or
// size: the caches are sized from the shard.
//
// The simulation side of the reproduction (DDR3 timing, the 4-core CPU
// model, PARSEC-like workloads, and the Figure/Table harnesses) lives under
// cmd/paperbench and the internal packages; cmd/paperbench prints the
// paper's figures from those and does not link this package. Performance of
// this package and the serving stack above it is measured by the nested
// bench/ module (BENCHMARK.json), the repository's only performance harness.
package authmem

import (
	"fmt"
	"io"

	"authmem/internal/core"
	"authmem/internal/ctr"
	"authmem/internal/tree"
)

// BlockSize is the protection granularity in bytes. All addresses passed to
// Memory must be multiples of it.
const BlockSize = core.BlockBytes

// CounterScheme selects how per-block write counters are stored.
type CounterScheme int

const (
	// Monolithic stores one 56-bit counter per block (the SGX baseline,
	// ~11% counter storage overhead, never re-encrypts).
	Monolithic CounterScheme = iota
	// SplitCounter is the split-counter baseline: a shared 64-bit major
	// counter plus a 7-bit minor per block (1.56% overhead, frequent
	// group re-encryptions).
	SplitCounter
	// DeltaEncoding is the paper's scheme: a 56-bit reference plus 7-bit
	// deltas with reset and re-encode optimizations.
	DeltaEncoding
	// DualLengthDelta is the paper's 6-bit variant with a one-shot
	// 4-bit-per-delta group extension.
	DualLengthDelta
)

func (s CounterScheme) kind() (ctr.Kind, error) {
	switch s {
	case Monolithic:
		return ctr.Monolithic, nil
	case SplitCounter:
		return ctr.Split, nil
	case DeltaEncoding:
		return ctr.Delta, nil
	case DualLengthDelta:
		return ctr.DualLength, nil
	default:
		return 0, fmt.Errorf("authmem: unknown counter scheme %d", int(s))
	}
}

// String names the scheme.
func (s CounterScheme) String() string {
	k, err := s.kind()
	if err != nil {
		return fmt.Sprintf("CounterScheme(%d)", int(s))
	}
	return k.String()
}

// MACPlacement selects where MAC tags are stored.
type MACPlacement int

const (
	// MACInECC stores MACs in the ECC lane (the paper's proposal):
	// no dedicated MAC storage, MACs arrive with the data, and the MAC
	// doubles as the error-correction code.
	MACInECC MACPlacement = iota
	// InlineMAC stores MACs in a dedicated region (the baseline); data
	// is separately protected by standard SEC-DED ECC.
	InlineMAC
)

// Config configures a Memory. The zero value is not valid; start from
// DefaultConfig.
type Config struct {
	// Size is the protected region in bytes (multiple of BlockSize,
	// at least one 4KB block-group).
	Size uint64
	// Scheme selects counter storage.
	Scheme CounterScheme
	// Placement selects MAC storage.
	Placement MACPlacement
	// Key is the device secret: 40 bytes (24 for the MAC, 16 for
	// AES-128 encryption). Required.
	Key []byte
	// CorrectBits bounds MAC-in-ECC flip-and-check correction (0..2,
	// default 2 — the paper's practical limit).
	CorrectBits int
	// OnChipTreeBytes is the trusted SRAM budget for the tree root
	// (default 3KB, as in the paper).
	OnChipTreeBytes int
	// MetadataCacheBytes/Ways size the counter/MAC cache used by the
	// timing model (defaults 32KB / 8); they do not affect functional
	// behaviour.
	MetadataCacheBytes int
	MetadataCacheWays  int
	// ClassicDataTree switches from the Bonsai Merkle tree to the
	// pre-2007 design with the integrity tree over the data blocks
	// themselves — ~60x more tree storage and a tree walk per access.
	// Provided as the comparative baseline the paper's §2.2 discusses.
	ClassicDataTree bool
	// CryptoBackend must be empty. It is kept for the frozen benchmark
	// harness, which reads it; no second value exists (the cipher and MAC
	// are crypto/aes, unconditionally) and New rejects anything else.
	CryptoBackend string
	// ECCCodec selects the check-lane codec. Under MACInECC the only
	// codec is "macsecded" (the paper's MAC+Hamming+parity lane); under
	// InlineMAC choose "secded" (8 check bytes, corrects single-bit
	// faults) or "residue" (4 check bytes, detection only — half the
	// check storage). Codecs change the stored
	// format and the protection guarantees: an explicit codec that does
	// not match Placement is a configuration error, and a persisted image
	// only resumes under the codec that wrote it. Empty means the
	// placement's default.
	ECCCodec string
}

// KeySize is the required Config.Key length.
const KeySize = core.KeyMaterialLen

// DefaultConfig returns the paper's recommended configuration
// (delta-encoded counters + MAC-in-ECC) for a region of the given size.
// The key must still be set by the caller.
func DefaultConfig(size uint64) Config {
	return Config{
		Size:               size,
		Scheme:             DeltaEncoding,
		Placement:          MACInECC,
		CorrectBits:        2,
		OnChipTreeBytes:    3 << 10,
		MetadataCacheBytes: 32 << 10,
		MetadataCacheWays:  8,
	}
}

func (c Config) internal() (core.Config, error) {
	kind, err := c.Scheme.kind()
	if err != nil {
		return core.Config{}, err
	}
	placement := core.MACInECC
	if c.Placement == InlineMAC {
		placement = core.MACInline
	}
	cfg := core.Config{
		RegionBytes:        c.Size,
		Scheme:             kind,
		Placement:          placement,
		MetadataCacheBytes: c.MetadataCacheBytes,
		MetadataCacheWays:  c.MetadataCacheWays,
		OnChipTreeBytes:    c.OnChipTreeBytes,
		CorrectBits:        c.CorrectBits,
		KeyMaterial:        c.Key,
		DataTree:           c.ClassicDataTree,
		CryptoBackend:      c.CryptoBackend,
		ECCCodec:           c.ECCCodec,
	}
	if cfg.MetadataCacheBytes == 0 {
		cfg.MetadataCacheBytes = 32 << 10
	}
	if cfg.MetadataCacheWays == 0 {
		cfg.MetadataCacheWays = 8
	}
	if cfg.OnChipTreeBytes == 0 {
		cfg.OnChipTreeBytes = 3 << 10
	}
	return cfg, nil
}

// Memory is an authenticated encrypted memory partitioned into N >= 1
// independent shards, safe for concurrent use.
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
// or metadata moved between shards can never verify. With one shard the
// master key is the shard key and the root is the shard root.
//
// Error addresses, quarantine lists, and statistics are all reported in the
// global address space.
type Memory struct {
	eng *core.ShardedEngine
}

// The frozen bench/ module still names the device by the name its N-shard
// form had when there were two; nothing else may (CI checks). ROADMAP N1
// deletes this alias.
type ShardedMemory = Memory

// New builds a one-shard Memory.
func New(cfg Config) (*Memory, error) { return NewSharded(cfg, 1) }

// NewSharded builds a Memory with the given shard count. shards must be a
// power of two, and the region must divide into 4KB-block-group-aligned
// shards.
func NewSharded(cfg Config, shards int) (*Memory, error) {
	icfg, err := cfg.internal()
	if err != nil {
		return nil, err
	}
	eng, err := core.NewShardedEngine(icfg, shards)
	if err != nil {
		return nil, err
	}
	return &Memory{eng: eng}, nil
}

// ReadInfo reports repairs applied during a read.
type ReadInfo = core.ReadInfo

// IntegrityError is returned when authentication or freshness checking
// fails: the data in DRAM is not what this Memory last wrote.
type IntegrityError = core.IntegrityError

// EngineStats aggregates engine events (reads, writes, corrections,
// integrity failures).
type EngineStats = core.EngineStats

// ScrubReport summarizes one patrol-scrub pass.
type ScrubReport = core.ScrubReport

// CounterStats aggregates counter-scheme events (resets, re-encodes,
// re-encryptions).
type CounterStats = ctr.Stats

// BlockSnapshot captures a block's DRAM-visible state, and the address it
// was taken at, for replay experiments.
type BlockSnapshot = core.BlockSnapshot

// RecoveryPolicy bounds what ReadRecover may attempt before quarantining a
// block: bounded re-reads (transient-fault absorption) and counter-metadata
// repair from trusted on-chip state.
type RecoveryPolicy = core.RecoveryPolicy

// RecoverInfo extends ReadInfo with what ReadRecover did to serve the read.
type RecoverInfo = core.RecoverInfo

// QuarantineError is returned for reads of a block ReadRecover has poisoned
// after exhausting its recovery budget. A fresh Write releases the block.
type QuarantineError = core.QuarantineError

// DefaultRecoveryPolicy returns the policy a new Memory starts with.
func DefaultRecoveryPolicy() RecoveryPolicy { return core.DefaultRecoveryPolicy() }

// Shards returns the shard count.
func (m *Memory) Shards() int { return m.eng.Shards() }

// ShardSize returns each shard's slice of the region in bytes.
func (m *Memory) ShardSize() uint64 { return m.eng.ShardBytes() }

// Size returns the protected region size in bytes.
func (m *Memory) Size() uint64 { return m.eng.Config().RegionBytes }

// ShardOf returns the index of the shard owning addr.
func (m *Memory) ShardOf(addr uint64) int { return m.eng.ShardOf(addr) }

// Write encrypts and stores one 64-byte block at the aligned address,
// locking only the owning shard.
func (m *Memory) Write(addr uint64, block []byte) error {
	return m.eng.Write(addr, block)
}

// Read verifies and decrypts one 64-byte block into dst, locking only the
// owning shard (and nothing at all when the block is warm). Correctable
// memory faults are repaired transparently (and reported in ReadInfo);
// tampering or uncorrectable faults return an *IntegrityError.
func (m *Memory) Read(addr uint64, dst []byte) (ReadInfo, error) {
	return m.eng.Read(addr, dst)
}

// WriteBlocks encrypts and stores a span of contiguous blocks starting at
// the aligned address. Each touched counter block is committed once, after
// the last write it covers — substantially cheaper than per-block Write for
// streaming stores. len(src) must be a positive multiple of BlockSize.
//
// A span crossing shard boundaries is split and the per-shard segments are
// written concurrently. On error the lowest-addressed failure is returned;
// segments in other shards may have completed (span atomicity is per shard,
// as with independent memory channels).
func (m *Memory) WriteBlocks(addr uint64, src []byte) error {
	return m.eng.WriteBlocks(addr, src)
}

// ReadBlocks verifies and decrypts a span of contiguous blocks starting at
// the aligned address into dst, verifying counter metadata once per
// covering metadata block and fanning cross-shard spans out concurrently
// (see WriteBlocks for the error semantics). len(dst) must be a positive
// multiple of BlockSize.
func (m *Memory) ReadBlocks(addr uint64, dst []byte) error {
	return m.eng.ReadBlocks(addr, dst)
}

// TryReadBlocks is ReadBlocks for a caller that must not wait: it serves a
// span lying in one shard only if that needs no lock (every block warm) or
// the shard's lock is free right now. done == false means it did neither —
// the lock was held or the span crosses shards — and changed and counted
// nothing; call ReadBlocks instead. With done == true, err and dst are
// exactly what ReadBlocks would have produced.
func (m *Memory) TryReadBlocks(addr uint64, dst []byte) (done bool, err error) {
	return m.eng.TryReadBlocks(addr, dst)
}

// TryWriteBlocks is WriteBlocks under the same rule as TryReadBlocks: done ==
// false means nothing was written because the span's shard lock was held or
// the span crosses shards; call WriteBlocks instead.
func (m *Memory) TryWriteBlocks(addr uint64, src []byte) (done bool, err error) {
	return m.eng.TryWriteBlocks(addr, src)
}

// ReadRecover is Read plus the engine's recovery ladder: on an integrity
// failure it repairs counter metadata from trusted state when the failure is
// in the counter plane, re-reads a bounded number of times to absorb
// transient faults, and finally quarantines the block (subsequent reads
// return a *QuarantineError until a fresh Write releases it). RecoverInfo
// reports which rungs fired.
func (m *Memory) ReadRecover(addr uint64, dst []byte) (RecoverInfo, error) {
	return m.eng.ReadRecover(addr, dst)
}

// FlushAll forces every shard's deferred Merkle maintenance to land now, the
// shards flushing concurrently, leaving the integrity tree consistent with
// every accepted write. Writes stage their counter-block image in trusted
// state and mark the tree leaf dirty instead of rehashing its path; dirty
// leaves flush in batches at the epoch bound, on a cold read of a dirty
// leaf, and before any state leaves the trust boundary (Persist, RootDigest,
// Scrub), so calling FlushAll is never needed for correctness — it is the
// explicit region-wide quiescent point.
func (m *Memory) FlushAll() error { return m.eng.FlushAll() }

// SetRecoveryPolicy replaces the recovery policy used by ReadRecover on
// every shard.
func (m *Memory) SetRecoveryPolicy(p RecoveryPolicy) { m.eng.SetRecoveryPolicy(p) }

// RecoveryPolicy reports the policy currently in force.
func (m *Memory) RecoveryPolicy() RecoveryPolicy { return m.eng.RecoveryPolicy() }

// Quarantined reports whether the block at addr is quarantined.
func (m *Memory) Quarantined(addr uint64) bool { return m.eng.Quarantined(addr) }

// QuarantineCount returns the number of quarantined blocks without
// allocating.
func (m *Memory) QuarantineCount() int { return m.eng.QuarantineCount() }

// QuarantineList returns the quarantined block indices in ascending order,
// or nil when the quarantine is empty.
func (m *Memory) QuarantineList() []uint64 { return m.eng.QuarantineList() }

// Stats merges per-shard engine events into region-wide totals.
func (m *Memory) Stats() EngineStats { return m.eng.Stats() }

// CounterStats merges per-shard counter-scheme events: writes, resets,
// re-encodes, extensions, and group re-encryptions (the NVMM-wear driver).
func (m *Memory) CounterStats() CounterStats { return m.eng.SchemeStats() }

// Scrub runs one patrol-scrubber pass (MAC-in-ECC placement only), all
// shards concurrently: the per-block parity bit screens for single-bit
// faults cheaply; flagged blocks are verified and repaired.
func (m *Memory) Scrub() (ScrubReport, error) { return m.eng.Scrub() }

// The adversary/fault interface. These touch exactly the state an attacker
// with physical DRAM access could: ciphertext, ECC bits, MAC tags, counter
// blocks, and off-chip tree nodes. Addresses are global; each operation
// locks only the shard it lands in.

// FlipDataBit flips one stored ciphertext bit of the block at addr.
func (m *Memory) FlipDataBit(addr uint64, bit int) error {
	return m.eng.TamperCiphertext(addr, bit)
}

// FlipECCBit flips one of a block's 64 ECC-lane bits (MACInECC placement).
func (m *Memory) FlipECCBit(addr uint64, bit int) error {
	return m.eng.TamperECCLane(addr, bit)
}

// FlipMACBit flips one stored MAC-tag bit (InlineMAC placement).
func (m *Memory) FlipMACBit(addr uint64, bit int) error {
	return m.eng.TamperInlineTag(addr, bit)
}

// FlipCheckBit flips one bit of a block's codec check bytes (InlineMAC
// placement). The valid bit range is the codec's CheckBytes*8: 64 for
// "secded", 32 for "residue".
func (m *Memory) FlipCheckBit(addr uint64, bit int) error {
	return m.eng.TamperCheckBit(addr, bit)
}

// FlipCounterBit flips one bit of the counter block covering addr.
func (m *Memory) FlipCounterBit(addr uint64, bit int) error {
	return m.eng.TamperCounterForAddr(addr, bit)
}

// FlipTreeNodeBit flips one bit of an off-chip integrity-tree node of the
// given shard's subtree (shard 0 on a one-shard Memory).
func (m *Memory) FlipTreeNodeBit(shard, level int, index uint64, bit int) error {
	return m.eng.TamperTreeNode(shard, tree.NodeID{Level: level, Index: index}, bit)
}

// Snapshot captures the DRAM-visible state of one block for a replay
// attack experiment.
func (m *Memory) Snapshot(addr uint64) (BlockSnapshot, error) {
	return m.eng.Snapshot(addr)
}

// Replay restores a snapshot into DRAM (data + MAC + counter block) at the
// address it was taken at, the classic rollback attack. A subsequent Read
// must fail.
func (m *Memory) Replay(s BlockSnapshot) error { return m.eng.Replay(s) }

// Splice plants a snapshot's ciphertext and MAC bits at a different
// address, in any shard — the block-relocation attack. Address-bound MACs
// and per-shard keys catch it.
func (m *Memory) Splice(s BlockSnapshot, addr uint64) error { return m.eng.Splice(s, addr) }

// WithShard locks shard i and runs fn against a one-shard Memory view of
// just that shard, so an experiment can drive a single shard's whole surface
// (tree-node flips, counter stats, a snapshot replayed from another shard)
// without racing concurrent traffic. Addresses inside fn are shard-local:
// local = global - i*ShardSize(). fn must not retain the view, nor touch
// shard i through the parent (its lock is held).
func (m *Memory) WithShard(i int, fn func(view *Memory)) {
	m.eng.WithShard(i, func(eng *core.Engine) { fn(&Memory{eng: core.OneShard(eng)}) })
}

// RootDigest pins the integrity tree's trusted root across power cycles.
type RootDigest = core.RootDigest

// RootDigest returns the combining layer's trusted digest over all shard
// subtree roots — the value Persist would return — without serializing the
// image. Any deferred write-pipeline maintenance is flushed first, so the
// digest always covers every accepted write.
func (m *Memory) RootDigest() RootDigest { return m.eng.RootDigest() }

// Persist writes the memory's NVMM image (ciphertext, ECC/MAC bits, counter
// blocks, integrity tree; per-shard sections under one header, which a
// one-shard memory omits) to w and returns the combined root digest. Store
// the digest in trusted storage: it pins every shard section, and resuming
// without pinning it leaves whole-image rollback undetectable.
func (m *Memory) Persist(w io.Writer) (RootDigest, error) { return m.eng.Persist(w) }

// Resume is ResumeSharded for a one-shard Memory.
func Resume(cfg Config, r io.Reader, expectRoot *RootDigest) (*Memory, error) {
	return ResumeSharded(cfg, 1, r, expectRoot)
}

// ResumeSharded rebuilds a Memory from a persisted image under the same
// Config (including the key, which is never stored in the image) and shard
// count. If expectRoot is non-nil the recombined root must match it. All
// counter metadata is verified against the tree before the memory is usable;
// data blocks verify on demand.
func ResumeSharded(cfg Config, shards int, r io.Reader, expectRoot *RootDigest) (*Memory, error) {
	icfg, err := cfg.internal()
	if err != nil {
		return nil, err
	}
	eng, err := core.ResumeSharded(icfg, shards, r, expectRoot)
	if err != nil {
		return nil, err
	}
	return &Memory{eng: eng}, nil
}

// Overhead reports the storage cost of a configuration (Figure 1).
type Overhead = core.Overhead

// ComputeOverhead derives the storage breakdown for a configuration.
func ComputeOverhead(cfg Config) (Overhead, error) {
	icfg, err := cfg.internal()
	if err != nil {
		return Overhead{}, err
	}
	return core.ComputeOverhead(icfg)
}

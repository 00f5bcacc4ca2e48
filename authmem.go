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
// The attacker's reach is package authmem/adversary: every off-chip byte
// (ciphertext, the ECC/MAC lane, check bytes, counter blocks, off-chip tree
// nodes) at one physical offset, flipped, read or written raw. With Scrub it
// lets the security and reliability claims be exercised directly; see the
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

	"authmem/internal/core"
	"authmem/internal/ctr"
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
	// Placement selects MAC storage, and with it the ECC codec: the
	// paper's MAC+Hamming+parity lane ("macsecded") under MACInECC,
	// SEC-DED check bytes ("secded") under InlineMAC. A persisted image
	// only resumes under the codec that wrote it.
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
	// CryptoBackend must be empty. It is kept for the frozen benchmark
	// harness, which reads it; no second value exists (the cipher and MAC
	// are internal/crypto's, chosen by the platform), the engine's
	// configuration has no such field, and New rejects anything else.
	CryptoBackend string
}

// KeySize is the required Config.Key length.
const KeySize = core.KeyMaterialLen

// DefaultConfig returns the paper's recommended configuration
// (delta-encoded counters + MAC-in-ECC) for a region of the given size.
// The key must still be set by the caller.
func DefaultConfig(size uint64) Config {
	return Config{
		Size:            size,
		Scheme:          DeltaEncoding,
		Placement:       MACInECC,
		CorrectBits:     2,
		OnChipTreeBytes: 3 << 10,
	}
}

func (c Config) internal() (core.Config, error) {
	if c.CryptoBackend != "" {
		return core.Config{}, fmt.Errorf("core: CryptoBackend %q: no selectable crypto backend exists (internal/crypto is the only cipher path); leave the field empty", c.CryptoBackend)
	}
	kind, err := c.Scheme.kind()
	if err != nil {
		return core.Config{}, err
	}
	placement := core.MACInECC
	if c.Placement == InlineMAC {
		placement = core.MACInline
	}
	cfg := core.Config{
		RegionBytes:     c.Size,
		Scheme:          kind,
		Placement:       placement,
		OnChipTreeBytes: c.OnChipTreeBytes,
		CorrectBits:     c.CorrectBits,
		KeyMaterial:     c.Key,
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

// Package adversary reaches a Memory's off-chip map through this hook, so
// Memory exports nothing for it.
func init() { core.MemoryEngine = func(m any) *core.ShardedEngine { return m.(*Memory).eng } }

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

// RecoverInfo extends ReadInfo with what ReadRecover did to serve the read.
type RecoverInfo = core.RecoverInfo

// QuarantineError is returned for reads of a block ReadRecover has poisoned
// after exhausting its recovery budget. A fresh Write releases the block.
type QuarantineError = core.QuarantineError

// Shards returns the shard count.
func (m *Memory) Shards() int { return m.eng.Shards() }

// ShardSize returns each shard's slice of the region in bytes.
func (m *Memory) ShardSize() uint64 { return m.eng.ShardBytes() }

// Size returns the protected region size in bytes.
func (m *Memory) Size() uint64 { return m.eng.Config().RegionBytes }

// ShardOf returns the index of the shard owning addr.
func (m *Memory) ShardOf(addr uint64) int { return m.eng.ShardOf(addr) }

// Write encrypts and stores one 64-byte block at the aligned address,
// locking only the owning shard: the one-block case of WriteBlocks.
func (m *Memory) Write(addr uint64, block []byte) error {
	return m.eng.Write(addr, block)
}

// Read verifies and decrypts one 64-byte block into dst, locking only the
// owning shard (and nothing at all when the block is warm): the one-block
// case of ReadBlocks. Correctable memory faults are repaired transparently
// (and reported in ReadInfo); tampering or uncorrectable faults return an
// *IntegrityError.
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

// ReadRecover is ReadBlocks plus the engine's recovery ladder, for a span of
// any whole number of blocks (one block included). A block that fails
// verification climbs the ladder: its counter metadata is repaired from
// trusted state when the failure is in the counter plane, it is re-read a
// bounded number of times to absorb transient faults, and finally it is
// quarantined (subsequent reads return a *QuarantineError until a fresh
// Write releases it) and the error, which carries its address, is returned.
// A block the ladder saves is read and the span goes on after it.
// RecoverInfo merges the whole span: every block's ReadInfo and the rungs
// that fired.
func (m *Memory) ReadRecover(addr uint64, dst []byte) (RecoverInfo, error) {
	return m.eng.ReadRecover(addr, dst)
}

// TryReadRecover is ReadRecover for a caller that must not wait: it serves a
// span lying in one shard only if that needs no lock (every block warm) or
// the shard's lock is free right now. done == false means it did neither —
// the lock was held or the span crosses shards — and changed and counted
// nothing; call ReadRecover instead. With done == true, info, err and dst
// are exactly what ReadRecover would have produced.
func (m *Memory) TryReadRecover(addr uint64, dst []byte) (done bool, info RecoverInfo, err error) {
	return m.eng.TryReadRecover(addr, dst)
}

// TryWriteBlocks is WriteBlocks under the same rule as TryReadRecover: done
// == false means nothing was written because the span's shard lock was held
// or the span crosses shards; call WriteBlocks instead.
func (m *Memory) TryWriteBlocks(addr uint64, src []byte) (done bool, err error) {
	return m.eng.TryWriteBlocks(addr, src)
}

// FlushAll forces every shard's deferred Merkle maintenance to land now, the
// shards flushing concurrently, leaving the integrity tree consistent with
// every accepted write. Writes stage their counter-block image in trusted
// state and mark the tree leaf dirty instead of rehashing its path; dirty
// leaves flush in batches at the epoch bound, on a cold read of a dirty
// leaf, and before any state leaves the trust boundary (a seal, RootDigest,
// Scrub), so calling FlushAll is never needed for correctness — it is the
// explicit region-wide quiescent point.
func (m *Memory) FlushAll() error { return m.eng.FlushAll() }

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

// FlipDataBit flips one stored ciphertext bit of the block at addr.
//
// Deprecated: the off-chip attack surface is package authmem/adversary:
// adversary.FlipBit at adversary.LocateAddr(m, adversary.Data, addr).
func (m *Memory) FlipDataBit(addr uint64, bit int) error {
	phys, err := m.eng.LocateAddr(core.PlaneData, addr)
	if err != nil {
		return err
	}
	return m.eng.FlipBit(phys, bit)
}

// WithShard locks shard i and runs fn against a one-shard Memory view of
// just that shard, so an experiment can drive a single shard's whole surface
// (its counter stats, or its off-chip map through package adversary)
// without racing concurrent traffic. Addresses inside fn are shard-local
// (local = global - i*ShardSize()), and so are adversary offsets on the view.
// fn must not retain the view, nor touch shard i through the parent (its
// lock is held).
func (m *Memory) WithShard(i int, fn func(view *Memory)) {
	m.eng.WithShard(i, func(eng *core.Engine) { fn(&Memory{eng: core.OneShard(eng)}) })
}

// RootDigest pins the integrity tree's trusted root across power cycles
// (SealReport.Root, OpenDurable's pin).
type RootDigest = core.RootDigest

// RootDigest returns the combining layer's trusted digest over all shard
// subtree roots, combined as a Durable's SealReport.Root combines its
// manifest's. Deferred write-pipeline maintenance is flushed first, so the
// digest always covers every accepted write.
func (m *Memory) RootDigest() RootDigest { return m.eng.RootDigest() }

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

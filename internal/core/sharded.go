package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"authmem/internal/ctr"
	"authmem/internal/tree"
)

// Sharded engine: the protected region partitioned into N independent
// shards for true parallel reads and writes.
//
// The paper's integrity machinery partitions naturally: counter groups are
// 4KB-aligned, the Bonsai Merkle tree covers counter blocks, and nothing in
// the verification of one block-group ever touches another's state. A shard
// therefore owns a contiguous 1/N slice of the block address space and
// everything below it — ciphertext arena, ECC/MAC lanes, counter scheme
// state, quarantine set, verified-counter cache, and its own Merkle subtree
// whose trusted top level is that shard's SRAM. A tiny combining layer
// (internal/tree.CombineRoots) hashes the N subtree roots into one trusted
// digest for persist/resume, so the whole memory still pins to a single
// root while no per-access path crosses a shard boundary.
//
// Concurrency model: one mutex per shard. Single-block operations lock only
// their shard; multi-block spans are split at shard boundaries and the
// segments run concurrently, each under its own shard lock. Statistics are
// kept per shard and merged on read, so observability never becomes the
// serialization point the seed's single global lock was.
//
// Isolation is cryptographic, not just structural: each shard's MAC and
// encryption keys are derived from the master key material and the shard's
// position, so ciphertext or metadata relocated between shards can never
// verify, and identical local addresses in different shards never share a
// keystream pad.

// shardGroupBytes is the finest partition boundary: one 4KB block-group.
// Counter groups must never straddle shards.
const shardGroupBytes = ctr.GroupBlocks * BlockBytes

// engineShard is one shard: an ordinary Engine over a 1/N slice of the
// region, guarded by its own lock.
type engineShard struct {
	mu  sync.Mutex
	eng *Engine
	// base is the shard's first byte address in the global space.
	base uint64
}

// ShardedEngine is a shard-parallel authenticated encrypted memory.
type ShardedEngine struct {
	cfg        Config // global configuration (full region)
	shards     []*engineShard
	shardBytes uint64 // bytes per shard
}

// ShardKeyMaterial derives shard idx's 40-byte key material from the master
// material. One shard passes the master through unchanged, so a 1-shard
// engine is bit-compatible with a lone Engine (including its persisted
// images); with more shards each gets an independent key bound to both the
// shard count and its position.
func ShardKeyMaterial(master []byte, shards, idx int) []byte {
	if shards == 1 {
		return master
	}
	derive := func(salt byte) [sha256.Size]byte {
		h := sha256.New()
		h.Write([]byte("authmem/shard-key/v1\x00"))
		h.Write(master)
		var meta [9]byte
		binary.LittleEndian.PutUint32(meta[0:], uint32(shards))
		binary.LittleEndian.PutUint32(meta[4:], uint32(idx))
		meta[8] = salt
		h.Write(meta[:])
		var out [sha256.Size]byte
		copy(out[:], h.Sum(nil))
		return out
	}
	a, b := derive(0), derive(1)
	key := make([]byte, KeyMaterialLen)
	n := copy(key, a[:])
	copy(key[n:], b[:KeyMaterialLen-n])
	return key
}

// shardConfig returns shard idx's engine configuration.
func shardConfig(cfg Config, shards, idx int) Config {
	sc := cfg
	sc.RegionBytes = cfg.RegionBytes / uint64(shards)
	if !cfg.DisableEncryption {
		sc.KeyMaterial = ShardKeyMaterial(cfg.KeyMaterial, shards, idx)
	}
	return sc
}

// ValidateShards checks that cfg can be split into the given shard count.
func ValidateShards(cfg Config, shards int) error {
	switch {
	case shards < 1:
		return fmt.Errorf("core: shard count %d must be at least 1", shards)
	case shards&(shards-1) != 0:
		return fmt.Errorf("core: shard count %d not a power of two", shards)
	case cfg.RegionBytes%uint64(shards) != 0:
		return fmt.Errorf("core: region %d bytes not divisible into %d shards", cfg.RegionBytes, shards)
	case (cfg.RegionBytes/uint64(shards))%shardGroupBytes != 0:
		return fmt.Errorf("core: shard size %d not a multiple of the %dB block-group", cfg.RegionBytes/uint64(shards), shardGroupBytes)
	// Check the master material before deriving per-shard keys: derivation
	// would turn any length — including an unset key — into valid-looking
	// 40-byte shard keys.
	case !cfg.DisableEncryption && len(cfg.KeyMaterial) != KeyMaterialLen:
		return fmt.Errorf("core: key material must be %d bytes, got %d", KeyMaterialLen, len(cfg.KeyMaterial))
	}
	return shardConfig(cfg, shards, 0).Validate()
}

// NewShardedEngine builds a sharded engine with the given power-of-two
// shard count: one complete Engine per shard, each with its own caches,
// write pipeline and re-encryption pool (see NewEngine).
func NewShardedEngine(cfg Config, shards int) (*ShardedEngine, error) {
	if err := ValidateShards(cfg, shards); err != nil {
		return nil, err
	}
	engines := make([]*Engine, shards)
	for i := range engines {
		eng, err := NewEngine(shardConfig(cfg, shards, i))
		if err != nil {
			return nil, err
		}
		engines[i] = eng
	}
	return wrapShards(cfg, engines), nil
}

// wrapShards assembles a ShardedEngine around per-shard engines, freshly
// built or restored from an image.
func wrapShards(cfg Config, engines []*Engine) *ShardedEngine {
	s := &ShardedEngine{
		cfg:        cfg,
		shards:     make([]*engineShard, len(engines)),
		shardBytes: cfg.RegionBytes / uint64(len(engines)),
	}
	for i, eng := range engines {
		s.shards[i] = &engineShard{eng: eng, base: uint64(i) * s.shardBytes}
	}
	return s
}

// Config returns the global (whole-region) configuration.
func (s *ShardedEngine) Config() Config { return s.cfg }

// Shards returns the shard count.
func (s *ShardedEngine) Shards() int { return len(s.shards) }

// ShardBytes returns each shard's region size.
func (s *ShardedEngine) ShardBytes() uint64 { return s.shardBytes }

// ShardOf returns the index of the shard owning addr.
func (s *ShardedEngine) ShardOf(addr uint64) int { return int(addr / s.shardBytes) }

// checkAddr validates a global address.
func (s *ShardedEngine) checkAddr(addr uint64) error {
	if addr%BlockBytes != 0 {
		return fmt.Errorf("core: address %#x not %d-byte aligned", addr, BlockBytes)
	}
	if addr >= s.cfg.RegionBytes {
		return fmt.Errorf("core: address %#x outside %d-byte region", addr, s.cfg.RegionBytes)
	}
	return nil
}

// shard returns shard i, for the per-shard operations callers index directly.
func (s *ShardedEngine) shard(i int) (*engineShard, error) {
	if i < 0 || i >= len(s.shards) {
		return nil, fmt.Errorf("core: shard %d out of range [0,%d)", i, len(s.shards))
	}
	return s.shards[i], nil
}

// route maps a checked global address to its shard and local address.
func (s *ShardedEngine) route(addr uint64) (*engineShard, uint64) {
	sh := s.shards[addr/s.shardBytes]
	return sh, addr - sh.base
}

// offsetErr rebases shard-local error addresses into the global address
// space. Integrity and quarantine errors carry the failing address; other
// errors pass through (the sharded layer pre-validates addresses, so
// engine-level structural errors cannot carry local addresses).
func offsetErr(err error, base uint64) error {
	if err == nil || base == 0 {
		return err
	}
	var ie *IntegrityError
	if errors.As(err, &ie) {
		cp := *ie
		cp.Addr += base
		return &cp
	}
	var qe *QuarantineError
	if errors.As(err, &qe) {
		cp := *qe
		cp.Addr += base
		return &cp
	}
	return err
}

// Write encrypts and stores one block, locking only the owning shard.
func (s *ShardedEngine) Write(addr uint64, plaintext []byte) error {
	if err := s.checkAddr(addr); err != nil {
		return err
	}
	sh, local := s.route(addr)
	sh.mu.Lock()
	err := sh.eng.Write(local, plaintext)
	sh.mu.Unlock()
	return offsetErr(err, sh.base)
}

// Read verifies and decrypts one block. A warm read — the block resident in
// the owning shard's verified-block cache — is served lock-free via the
// seqlock probe, with zero lock acquisitions and zero allocations; anything
// else locks only the owning shard (counted in Stats().SlowPathReads).
func (s *ShardedEngine) Read(addr uint64, dst []byte) (ReadInfo, error) {
	if err := s.checkAddr(addr); err != nil {
		return ReadInfo{}, err
	}
	sh, local := s.route(addr)
	if sh.eng.ReadLockFree(local, dst) {
		return ReadInfo{}, nil
	}
	sh.mu.Lock()
	sh.eng.stats.SlowPathReads.Add(1)
	info, err := sh.eng.Read(local, dst)
	sh.mu.Unlock()
	return info, offsetErr(err, sh.base)
}

// ReadRecover reads with the recovery ladder, locking only the owning
// shard. Metadata repair triggered by the ladder stays shard-local. A warm
// cache hit short-circuits the ladder lock-free: trusted plaintext needs no
// recovery, and a quarantined or tampered block is never resident (see
// blockcache.go), so the ladder only ever runs for reads that truly verify.
func (s *ShardedEngine) ReadRecover(addr uint64, dst []byte) (RecoverInfo, error) {
	if err := s.checkAddr(addr); err != nil {
		return RecoverInfo{}, err
	}
	sh, local := s.route(addr)
	if sh.eng.ReadLockFree(local, dst) {
		return RecoverInfo{}, nil
	}
	sh.mu.Lock()
	sh.eng.stats.SlowPathReads.Add(1)
	info, err := sh.eng.ReadRecover(local, dst)
	sh.mu.Unlock()
	return info, offsetErr(err, sh.base)
}

// segment is one shard-local slice of a multi-block span.
type segment struct {
	sh    *engineShard
	local uint64 // shard-local start address
	off   int    // byte offset into the caller's buffer
	n     int    // byte length
}

// segments splits a checked global span at shard boundaries.
func (s *ShardedEngine) segments(addr uint64, n int) []segment {
	first := addr / s.shardBytes
	last := (addr + uint64(n) - 1) / s.shardBytes
	segs := make([]segment, 0, last-first+1)
	for i := first; i <= last; i++ {
		sh := s.shards[i]
		start := max(addr, sh.base)
		end := min(addr+uint64(n), sh.base+s.shardBytes)
		segs = append(segs, segment{
			sh:    sh,
			local: start - sh.base,
			off:   int(start - addr),
			n:     int(end - start),
		})
	}
	return segs
}

func (s *ShardedEngine) checkSpan(addr uint64, n int, what string) error {
	if err := s.checkAddr(addr); err != nil {
		return err
	}
	if n == 0 || n%BlockBytes != 0 {
		return fmt.Errorf("core: %s length %d not a positive multiple of %d", what, n, BlockBytes)
	}
	if addr+uint64(n) > s.cfg.RegionBytes {
		return fmt.Errorf("core: %s span [%#x, %#x) outside %d-byte region", what, addr, addr+uint64(n), s.cfg.RegionBytes)
	}
	return nil
}

// spanFan runs one operation per shard segment of a span that crosses
// shards, concurrently, and returns the lowest-addressed failure. Unlike the
// monolithic batched path, segments in *other* shards may have completed
// after the failing one — span atomicity is per shard, which is the honest
// semantics of independent memory channels.
func (s *ShardedEngine) spanFan(segs []segment, op func(sh *engineShard, local uint64, off, n int) error) error {
	errs := make([]error, len(segs))
	var wg sync.WaitGroup
	for i, g := range segs {
		wg.Add(1)
		go func(i int, g segment) {
			defer wg.Done()
			g.sh.mu.Lock()
			err := op(g.sh, g.local, g.off, g.n)
			g.sh.mu.Unlock()
			errs[i] = offsetErr(err, g.sh.base)
		}(i, g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// bankLockFreeSpan publishes a span-read's banked lock-free events to sh.
func bankLockFreeSpan(sh *engineShard, hits, retries uint64) {
	if hits > 0 {
		sh.eng.stats.Reads.Add(hits)
		sh.eng.stats.LockFreeHits.Add(hits)
		sh.eng.bc.hits.Add(hits)
	}
	if retries > 0 {
		sh.eng.stats.SeqlockRetries.Add(retries)
	}
}

// readBlocksLockFree serves the longest prefix of a checked span from the
// per-shard verified-block caches without taking any lock, and returns the
// number of bytes served. Each block served is an individually consistent
// seqlock snapshot — the same per-block linearization the cross-shard
// fan-out already has at segment granularity. Events are banked per shard
// and only for blocks actually served, so the locked path that picks up the
// remainder never double-counts.
func (s *ShardedEngine) readBlocksLockFree(addr uint64, dst []byte) int {
	if s.cfg.DisableEncryption {
		return 0 // no caches: reads are raw copies under the shard lock
	}
	var (
		served      int
		cur         *engineShard
		hits, tears uint64
	)
	for served < len(dst) {
		sh, local := s.route(addr + uint64(served))
		if sh != cur {
			if cur != nil {
				bankLockFreeSpan(cur, hits, tears)
			}
			cur, hits, tears = sh, 0, 0
		}
		hit, r := sh.eng.bc.probe(local/BlockBytes, dst[served:served+BlockBytes])
		tears += uint64(r)
		if !hit {
			break
		}
		hits++
		served += BlockBytes
	}
	if cur != nil {
		bankLockFreeSpan(cur, hits, tears)
	}
	return served
}

// ReadBlocks verifies and decrypts a contiguous span, fanning shard
// segments out concurrently. The returned error is the lowest-addressed
// failure; see spanFan for cross-shard atomicity semantics. A warm prefix
// of the span is served lock-free block by block; only the cold remainder
// takes shard locks.
func (s *ShardedEngine) ReadBlocks(addr uint64, dst []byte) error {
	if err := s.checkSpan(addr, len(dst), "read"); err != nil {
		return err
	}
	served := s.readBlocksLockFree(addr, dst)
	if served == len(dst) {
		return nil
	}
	addr += uint64(served)
	cold := dst[served:]
	// The common span sits in one shard and runs directly under its lock: no
	// segment list, no closure, nothing allocated.
	if sh, local := s.route(addr); local+uint64(len(cold)) <= s.shardBytes {
		sh.mu.Lock()
		sh.eng.stats.SlowPathReads.Add(uint64(len(cold) / BlockBytes))
		err := sh.eng.ReadBlocks(local, cold)
		sh.mu.Unlock()
		return offsetErr(err, sh.base)
	}
	return s.spanFan(s.segments(addr, len(cold)), func(sh *engineShard, local uint64, off, n int) error {
		sh.eng.stats.SlowPathReads.Add(uint64(n / BlockBytes))
		return sh.eng.ReadBlocks(local, cold[off:off+n])
	})
}

// WriteBlocks encrypts and stores a contiguous span, fanning shard segments
// out concurrently.
func (s *ShardedEngine) WriteBlocks(addr uint64, src []byte) error {
	if err := s.checkSpan(addr, len(src), "write"); err != nil {
		return err
	}
	if sh, local := s.route(addr); local+uint64(len(src)) <= s.shardBytes {
		sh.mu.Lock()
		err := sh.eng.WriteBlocks(local, src)
		sh.mu.Unlock()
		return offsetErr(err, sh.base)
	}
	return s.spanFan(s.segments(addr, len(src)), func(sh *engineShard, local uint64, off, n int) error {
		return sh.eng.WriteBlocks(local, src[off:off+n])
	})
}

// TryReadBlocks is ReadBlocks that never waits for a shard lock, for a span
// lying in one shard: warm blocks are served by the same lock-free probe, and
// a cold remainder runs under the shard's lock only if TryLock gets it at
// once. done == false means the span crosses shards or the lock was held;
// no engine state changed and nothing was counted, so the caller falls back
// to ReadBlocks (dst may hold warm blocks that call will overwrite). With
// done == true the outcome and the statistics are exactly ReadBlocks'.
func (s *ShardedEngine) TryReadBlocks(addr uint64, dst []byte) (done bool, err error) {
	if err := s.checkSpan(addr, len(dst), "read"); err != nil {
		return true, err
	}
	sh, local := s.route(addr)
	if local+uint64(len(dst)) > s.shardBytes {
		return false, nil
	}
	// The lock-free events are banked only once the call is sure to finish,
	// so a refused call leaves nothing for the fallback to count twice.
	var hits, tears uint64
	served := 0
	for !s.cfg.DisableEncryption && served < len(dst) {
		hit, r := sh.eng.bc.probe((local+uint64(served))/BlockBytes, dst[served:served+BlockBytes])
		tears += uint64(r)
		if !hit {
			break
		}
		hits++
		served += BlockBytes
	}
	if served < len(dst) && !sh.mu.TryLock() {
		return false, nil
	}
	bankLockFreeSpan(sh, hits, tears)
	if served == len(dst) {
		return true, nil
	}
	cold := dst[served:]
	sh.eng.stats.SlowPathReads.Add(uint64(len(cold) / BlockBytes))
	err = sh.eng.ReadBlocks(local+uint64(served), cold)
	sh.mu.Unlock()
	return true, offsetErr(err, sh.base)
}

// TryWriteBlocks is WriteBlocks that never waits for a shard lock. done ==
// false means the span crosses shards or its shard's lock was held; nothing
// was written or counted and the caller falls back to WriteBlocks.
func (s *ShardedEngine) TryWriteBlocks(addr uint64, src []byte) (done bool, err error) {
	if err := s.checkSpan(addr, len(src), "write"); err != nil {
		return true, err
	}
	sh, local := s.route(addr)
	if local+uint64(len(src)) > s.shardBytes || !sh.mu.TryLock() {
		return false, nil
	}
	err = sh.eng.WriteBlocks(local, src)
	sh.mu.Unlock()
	return true, offsetErr(err, sh.base)
}

// Stats merges per-shard counters on read. Every engine counter is atomic,
// so the merge takes no locks and never contends with the read path —
// observation costs the observer, not the traffic. The snapshot is not a
// single linearization point across shards (counters advance while it is
// taken), which is the standard contract for live performance counters.
func (s *ShardedEngine) Stats() EngineStats {
	var total EngineStats
	for _, sh := range s.shards {
		total.Add(sh.eng.Stats())
	}
	return total
}

// SchemeStats merges per-shard counter-scheme events.
func (s *ShardedEngine) SchemeStats() ctr.Stats {
	var total ctr.Stats
	for _, sh := range s.shards {
		sh.mu.Lock()
		st := sh.eng.SchemeStats()
		sh.mu.Unlock()
		total.Writes += st.Writes
		total.Resets += st.Resets
		total.Reencodes += st.Reencodes
		total.Extensions += st.Extensions
		total.Reencryptions += st.Reencryptions
		total.ReencryptedBlocks += st.ReencryptedBlocks
	}
	return total
}

// SetRecoveryPolicy applies the policy to every shard.
func (s *ShardedEngine) SetRecoveryPolicy(p RecoveryPolicy) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.eng.SetRecoveryPolicy(p)
		sh.mu.Unlock()
	}
}

// RecoveryPolicy reports the policy in force (identical across shards).
func (s *ShardedEngine) RecoveryPolicy() RecoveryPolicy {
	sh := s.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.eng.RecoveryPolicy()
}

// SetRetryHook registers f, invoked with global block indices.
func (s *ShardedEngine) SetRetryHook(f func(blk uint64)) {
	for _, sh := range s.shards {
		base := sh.base / BlockBytes
		sh.mu.Lock()
		if f == nil {
			sh.eng.SetRetryHook(nil)
		} else {
			sh.eng.SetRetryHook(func(blk uint64) { f(base + blk) })
		}
		sh.mu.Unlock()
	}
}

// Quarantined reports whether the block at addr is quarantined.
func (s *ShardedEngine) Quarantined(addr uint64) bool {
	if s.checkAddr(addr) != nil {
		return false
	}
	sh, local := s.route(addr)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.eng.Quarantined(local)
}

// QuarantineCount returns the total quarantined blocks without allocating.
func (s *ShardedEngine) QuarantineCount() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += sh.eng.QuarantineCount()
		sh.mu.Unlock()
	}
	return total
}

// QuarantineList returns global quarantined block indices in ascending
// order, or nil (no allocation) when the quarantine is empty.
func (s *ShardedEngine) QuarantineList() []uint64 {
	var out []uint64
	for _, sh := range s.shards {
		sh.mu.Lock()
		local := sh.eng.QuarantineList()
		base := sh.base / BlockBytes
		if len(local) > 0 {
			if out == nil {
				out = make([]uint64, 0, len(local))
			}
			for _, blk := range local {
				out = append(out, base+blk) // shard order == ascending global order
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// Scrub runs one patrol-scrub pass over the whole region, every shard
// scrubbing concurrently under its own lock — the shard fan-out is the
// parallelism, and each shard's pass stays serial.
func (s *ShardedEngine) Scrub() (ScrubReport, error) {
	reports := make([]ScrubReport, len(s.shards))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *engineShard) {
			defer wg.Done()
			sh.mu.Lock()
			reports[i], errs[i] = sh.eng.Scrub()
			sh.mu.Unlock()
		}(i, sh)
	}
	wg.Wait()
	var total ScrubReport
	for i := range reports {
		if errs[i] != nil {
			return total, errs[i]
		}
		total.BlocksScanned += reports[i].BlocksScanned
		total.ParityFlagged += reports[i].ParityFlagged
		total.Corrected += reports[i].Corrected
		total.Uncorrectable += reports[i].Uncorrectable
	}
	return total, nil
}

// WithShard locks shard i and passes its engine to fn — how attack
// experiments and the fault campaign reach a shard's tamper surface without
// racing traffic.
func (s *ShardedEngine) WithShard(i int, fn func(eng *Engine)) {
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fn(sh.eng)
}

// OneShard wraps eng as a one-shard region with a lock of its own: the view
// of a single shard that WithShard callers drive through the region's API.
func OneShard(eng *Engine) *ShardedEngine {
	return wrapShards(eng.Config(), []*Engine{eng})
}

// attack runs one adversary operation on the shard owning the global address
// addr, under that shard's lock and with the address made shard-local.
func (s *ShardedEngine) attack(addr uint64, op func(eng *Engine, local uint64) error) error {
	if err := s.checkAddr(addr); err != nil {
		return err
	}
	sh, local := s.route(addr)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return op(sh.eng, local)
}

// TamperCiphertext flips a stored ciphertext bit (global address).
func (s *ShardedEngine) TamperCiphertext(addr uint64, bit int) error {
	return s.attack(addr, func(eng *Engine, local uint64) error { return eng.TamperCiphertext(local, bit) })
}

// TamperECCLane flips an ECC-lane bit (global address, MACInECC only).
func (s *ShardedEngine) TamperECCLane(addr uint64, bit int) error {
	return s.attack(addr, func(eng *Engine, local uint64) error { return eng.TamperECCLane(local, bit) })
}

// TamperInlineTag flips a stored MAC-tag bit (global address, MACInline).
func (s *ShardedEngine) TamperInlineTag(addr uint64, bit int) error {
	return s.attack(addr, func(eng *Engine, local uint64) error { return eng.TamperInlineTag(local, bit) })
}

// TamperCheckBit flips a stored codec check-byte bit (global address,
// MACInline only).
func (s *ShardedEngine) TamperCheckBit(addr uint64, bit int) error {
	return s.attack(addr, func(eng *Engine, local uint64) error { return eng.TamperCheckBit(local, bit) })
}

// TamperCounterForAddr flips one bit of the counter block covering the
// global address addr.
func (s *ShardedEngine) TamperCounterForAddr(addr uint64, bit int) error {
	return s.attack(addr, func(eng *Engine, local uint64) error {
		return eng.TamperCounterBlock(eng.MetadataIndex(local), bit)
	})
}

// TamperTreeNode flips one bit of an off-chip node of shard i's subtree:
// every shard has a tree of its own, so a node is named by shard and NodeID.
func (s *ShardedEngine) TamperTreeNode(i int, id tree.NodeID, bit int) error {
	sh, err := s.shard(i)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.eng.TamperTreeNode(id, bit)
}

// Snapshot records the DRAM-visible state of the block at the global address
// addr; the snapshot remembers that address for Replay.
func (s *ShardedEngine) Snapshot(addr uint64) (BlockSnapshot, error) {
	var snap BlockSnapshot
	err := s.attack(addr, func(eng *Engine, local uint64) (err error) {
		snap, err = eng.Snapshot(local)
		snap.addr = addr
		return err
	})
	return snap, err
}

// Replay restores a snapshot at the address it was taken from — the rollback
// attack, routed to the owning shard.
func (s *ShardedEngine) Replay(snap BlockSnapshot) error {
	return s.attack(snap.addr, func(eng *Engine, local uint64) error { return eng.replayAt(snap, local) })
}

// Splice plants a snapshot's data and MAC bits at the global address addr,
// which may lie in another shard than the one the snapshot came from.
func (s *ShardedEngine) Splice(snap BlockSnapshot, addr uint64) error {
	return s.attack(addr, func(eng *Engine, local uint64) error { return eng.Splice(snap, local) })
}

// FlushAll forces every shard's deferred Merkle maintenance to land. Only
// shards with work pending are visited: one dirty shard — the common case
// after a single-span write — flushes on the caller's goroutine, several
// flush concurrently (each flush touches only that shard's own counter
// images and subtree, under its own lock), so the epoch barrier costs one
// shard's flush, not the sum. Engine-level flush hooks (persist, root
// export, scrub) fire per shard automatically; FlushAll is for callers that
// want a region-wide quiescent point on demand.
func (s *ShardedEngine) FlushAll() error {
	// Each shard's write pipe keeps an atomic dirty gauge, so an
	// already-flushed region answers without locks, goroutines, or
	// allocations — FlushAll in a read-mostly loop costs a few loads.
	var last *engineShard
	dirty := 0
	for _, sh := range s.shards {
		if sh.eng.flushPending() {
			last = sh
			dirty++
		}
	}
	switch dirty {
	case 0:
		return nil
	case 1:
		return last.flush()
	}
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		if !sh.eng.flushPending() {
			continue
		}
		wg.Add(1)
		go func(i int, sh *engineShard) {
			defer wg.Done()
			errs[i] = sh.flush()
		}(i, sh)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// flush lands the shard's deferred Merkle maintenance under its lock.
func (sh *engineShard) flush() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.eng.Flush()
}

// RootDigest returns the combining layer's trusted digest over all shard
// subtree roots. Shards are locked one at a time, not together: each
// shard's root reflects every write to that shard that completed before
// RootDigest was called (its deferred maintenance is flushed under the
// lock), so on a quiescent engine the digest pins exactly the current
// state, and a caller that has just completed a write gets a root that
// covers it. Under concurrent writers the per-shard roots may come from
// different instants — each one a state that shard really held. A shard
// nothing has written to since the last call contributes its cached digest,
// so the cost is one 3KB hash per shard dirtied in between plus the
// combining hash, with no allocation.
func (s *ShardedEngine) RootDigest() RootDigest {
	var buf [16][sha256.Size]byte
	roots := buf[:0]
	for _, sh := range s.shards {
		sh.mu.Lock()
		roots = append(roots, sh.eng.RootDigest())
		sh.mu.Unlock()
	}
	return tree.CombineRoots(roots)
}

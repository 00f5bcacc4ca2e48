package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"authmem/internal/counter"
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
	sc.KeyMaterial = ShardKeyMaterial(cfg.KeyMaterial, shards, idx)
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
	case len(cfg.KeyMaterial) != KeyMaterialLen:
		return fmt.Errorf("core: key material must be %d bytes, got %d", KeyMaterialLen, len(cfg.KeyMaterial))
	}
	return shardConfig(cfg, shards, 0).Validate()
}

// NewShardedEngine builds a sharded engine with the given power-of-two
// shard count: one complete Engine per shard, each with its own caches and
// write pipeline (see NewEngine).
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

// spanFan runs op once per shard segment of the checked span [addr,
// addr+n), which crosses shards: segment i lies in shard sh from shard-local
// address local, at byte offset off into the caller's buffer, n bytes long.
// The segments run concurrently, each under its shard's lock, and spanFan
// returns the lowest-addressed failure. Segments in *other* shards may have
// completed after the failing one — span atomicity is per shard, which is
// the honest semantics of independent memory channels.
func (s *ShardedEngine) spanFan(addr uint64, n int, op func(i int, sh *engineShard, local uint64, off, n int) error) error {
	first := addr / s.shardBytes
	errs := make([]error, (addr+uint64(n)-1)/s.shardBytes-first+1)
	var wg sync.WaitGroup
	for i := range errs {
		sh := s.shards[first+uint64(i)]
		start, end := max(addr, sh.base), min(addr+uint64(n), sh.base+s.shardBytes)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.mu.Lock()
			err := op(i, sh, start-sh.base, int(start-addr), int(end-start))
			sh.mu.Unlock()
			errs[i] = offsetErr(err, sh.base)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// probe serves the longest warm prefix of dst, a whole-block span lying in
// the shard from shard-local address local, from the shard's verified-block
// cache without taking any lock. It returns the bytes served and the seqlock
// retries the probes took, and banks nothing: the caller passes both to bank
// once it knows the read will finish. No quarantine check is needed:
// quarantining a block evicts its line under the writer protocol, and every
// insert first releases the block, so a resident line is a healthy block
// (see blockcache.go).
func (sh *engineShard) probe(local uint64, dst []byte) (served int, retries uint64) {
	return probeSpan(sh.eng.bc, local/BlockBytes, dst)
}

// bank counts a probe's outcome in the shard's stats and returns served.
// Each block served is a read, a lock-free hit and a data-cache hit; bank
// adds LockFreeHits only and Engine.Stats derives the other two. Blocks the
// probe missed are counted by the locked path that reads them.
func (sh *engineShard) bank(served int, retries uint64) int {
	st := &sh.eng.stats
	if hits := uint64(served / BlockBytes); hits > 0 {
		atomic.AddUint64(&st.LockFreeHits, hits)
	}
	if retries > 0 {
		atomic.AddUint64(&st.SeqlockRetries, retries)
	}
	return served
}

// lock takes the shard's lock; with try, only if it is free right now.
func (sh *engineShard) lock(try bool) bool {
	if try {
		return sh.mu.TryLock()
	}
	sh.mu.Lock()
	return true
}

// readLocked reads a cold stretch of the shard under its lock, which the
// caller holds, counting each block as a slow-path read. Error addresses are
// shard-local.
func (sh *engineShard) readLocked(local uint64, dst []byte, ladder bool) (RecoverInfo, error) {
	atomic.AddUint64(&sh.eng.stats.SlowPathReads, uint64(len(dst)/BlockBytes))
	return sh.eng.read(local, dst, ladder)
}

// read is the one read body behind Read, ReadBlocks, ReadRecover and
// TryReadRecover. A warm prefix of the span — blocks resident in their
// shard's verified-block cache — is served lock-free; only the cold rest
// takes a shard lock, and with ladder it reads through the recovery ladder.
// Each block served lock-free is an individually consistent seqlock
// snapshot, the same per-block linearization the cross-shard fan-out has at
// segment granularity.
//
// With try the call never waits: a span crossing shards, or one whose cold
// rest finds its shard's lock held, returns done == false having changed and
// counted nothing. Otherwise done is true and the outcome and statistics are
// the blocking call's. A span crossing shards fans its cold rest out one
// segment per shard (spanFan); the error is the lowest-addressed failure.
func (s *ShardedEngine) read(addr uint64, dst []byte, try, ladder bool) (done bool, ri RecoverInfo, err error) {
	if err := checkSpan(s.cfg.RegionBytes, addr, len(dst), "read"); err != nil {
		return true, ri, err
	}
	if sh, local := s.route(addr); local+uint64(len(dst)) <= s.shardBytes {
		// The common span sits in one shard: no goroutine, no closure,
		// nothing allocated. The lock-free events are banked only once the
		// call is sure to finish, so a refused try leaves nothing to count
		// twice.
		served, retries := sh.probe(local, dst)
		if served < len(dst) && !sh.lock(try) {
			return false, ri, nil
		}
		sh.bank(served, retries)
		if served == len(dst) {
			return true, ri, nil
		}
		ri, err = sh.readLocked(local+uint64(served), dst[served:], ladder)
		sh.mu.Unlock()
		ri.Fresh = ri.Fresh && served == 0
		return true, ri, offsetErr(err, sh.base)
	}
	if try {
		return false, ri, nil
	}
	served := 0
	for served < len(dst) {
		sh, local := s.route(addr + uint64(served))
		n := min(len(dst)-served, int(s.shardBytes-local))
		got := sh.bank(sh.probe(local, dst[served:served+n]))
		served += got
		if got < n {
			break
		}
	}
	if served == len(dst) {
		return true, ri, nil
	}
	addr, cold := addr+uint64(served), dst[served:]
	infos := make([]RecoverInfo, s.ShardOf(addr+uint64(len(cold))-1)-s.ShardOf(addr)+1)
	err = s.spanFan(addr, len(cold), func(i int, sh *engineShard, local uint64, off, n int) error {
		var err error
		infos[i], err = sh.readLocked(local, cold[off:off+n], ladder)
		return err
	})
	ri.Fresh = served == 0
	for _, o := range infos {
		ri.add(o)
	}
	return true, ri, err
}

// write is the one write body behind Write, WriteBlocks and TryWriteBlocks:
// a span inside one shard runs under that shard's lock, one crossing shards
// fans out one segment per shard. With try the call never waits: a span
// crossing shards, or one whose shard's lock is held, returns done == false
// having written and counted nothing.
func (s *ShardedEngine) write(addr uint64, src []byte, try bool) (done bool, err error) {
	if err := checkSpan(s.cfg.RegionBytes, addr, len(src), "write"); err != nil {
		return true, err
	}
	if sh, local := s.route(addr); local+uint64(len(src)) <= s.shardBytes {
		if !sh.lock(try) {
			return false, nil
		}
		err = sh.eng.WriteBlocks(local, src)
		sh.mu.Unlock()
		return true, offsetErr(err, sh.base)
	}
	if try {
		return false, nil
	}
	return true, s.spanFan(addr, len(src), func(_ int, sh *engineShard, local uint64, off, n int) error {
		return sh.eng.WriteBlocks(local, src[off:off+n])
	})
}

// Read verifies and decrypts one block: the one-block span. A warm read is
// served lock-free with zero lock acquisitions and zero allocations; anything
// else locks only the owning shard (counted in Stats().SlowPathReads).
func (s *ShardedEngine) Read(addr uint64, dst []byte) (ReadInfo, error) {
	if err := oneBlock(len(dst), "read buffer"); err != nil {
		return ReadInfo{}, err
	}
	_, ri, err := s.read(addr, dst, false, false)
	return ri.ReadInfo, err
}

// ReadBlocks verifies and decrypts a contiguous span (see read).
func (s *ShardedEngine) ReadBlocks(addr uint64, dst []byte) error {
	_, _, err := s.read(addr, dst, false, false)
	return err
}

// ReadRecover reads a contiguous span through the recovery ladder (see
// Engine.ReadRecover). Metadata repair stays shard-local. A warm block needs
// no ladder: trusted plaintext needs no recovery, and a quarantined or
// tampered block is never resident (see blockcache.go).
func (s *ShardedEngine) ReadRecover(addr uint64, dst []byte) (RecoverInfo, error) {
	_, ri, err := s.read(addr, dst, false, true)
	return ri, err
}

// TryReadRecover is ReadRecover that never waits for a shard lock, for a
// span lying in one shard. done == false means the span crosses shards or
// its cold rest found the lock held; nothing changed and nothing was
// counted, so the caller falls back to ReadRecover (dst may hold warm blocks
// that call will overwrite).
func (s *ShardedEngine) TryReadRecover(addr uint64, dst []byte) (done bool, ri RecoverInfo, err error) {
	return s.read(addr, dst, true, true)
}

// Write encrypts and stores one block: the one-block span.
func (s *ShardedEngine) Write(addr uint64, plaintext []byte) error {
	if err := oneBlock(len(plaintext), "write"); err != nil {
		return err
	}
	_, err := s.write(addr, plaintext, false)
	return err
}

// WriteBlocks encrypts and stores a contiguous span (see write).
func (s *ShardedEngine) WriteBlocks(addr uint64, src []byte) error {
	_, err := s.write(addr, src, false)
	return err
}

// TryWriteBlocks is WriteBlocks that never waits for a shard lock (see
// write); on done == false the caller falls back to WriteBlocks.
func (s *ShardedEngine) TryWriteBlocks(addr uint64, src []byte) (done bool, err error) {
	return s.write(addr, src, true)
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
		counter.Sum(&total, sh.eng.SchemeStats())
		sh.mu.Unlock()
	}
	return total
}

// Quarantined reports whether the block at addr is quarantined.
func (s *ShardedEngine) Quarantined(addr uint64) bool {
	if checkSpan(s.cfg.RegionBytes, addr, BlockBytes, "quarantine query") != nil {
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

// WithShard locks shard i and passes its engine to fn, so a test or an
// experiment can drive one shard's whole engine without racing traffic.
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

// MemoryEngine returns the engine behind an *authmem.Memory. Package authmem
// sets it at init, so authmem/adversary reaches the off-chip map without
// Memory exporting an accessor.
var MemoryEngine func(m any) *ShardedEngine

// OffChip returns shard i's off-chip map and the global offset it starts at:
// the region's map is the shards' maps end to end. Use the map for its
// geometry, which is immutable and needs no lock; its raw operations need
// the shard's, which FlipBit, ReadRaw and WriteRaw below take.
func (s *ShardedEngine) OffChip(i int) (m *OffChip, base uint64, err error) {
	sh, err := s.shard(i)
	if err != nil {
		return nil, 0, err
	}
	return sh.eng.off, uint64(i) * sh.eng.off.Size(), nil
}

// LocateAddr returns the global offset of the plane-p element holding the
// block at the global address addr (see OffChip.LocateAddr).
func (s *ShardedEngine) LocateAddr(p Plane, addr uint64) (uint64, error) {
	if err := checkSpan(s.cfg.RegionBytes, addr, BlockBytes, "locate"); err != nil {
		return 0, err
	}
	sh, local := s.route(addr)
	off, err := sh.eng.off.LocateAddr(p, local)
	if err != nil {
		return 0, err
	}
	return uint64(s.ShardOf(addr))*sh.eng.off.Size() + off, nil
}

// onShard runs a raw operation at the global offset phys on its shard's map,
// under that shard's lock, with phys made shard-local.
func (s *ShardedEngine) onShard(phys uint64, op func(m *OffChip, local uint64) error) error {
	span := s.shards[0].eng.off.Size()
	if size := uint64(len(s.shards)) * span; phys >= size {
		return fmt.Errorf("core: offset %#x outside the %d-byte off-chip map", phys, size)
	}
	sh := s.shards[phys/span]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return op(sh.eng.off, phys%span)
}

// FlipBit is OffChip.FlipBit at a global offset.
func (s *ShardedEngine) FlipBit(phys uint64, bit int) error {
	return s.onShard(phys, func(m *OffChip, local uint64) error { return m.FlipBit(local, bit) })
}

// ReadRaw is OffChip.ReadRaw at a global offset.
func (s *ShardedEngine) ReadRaw(phys uint64, dst []byte) error {
	return s.onShard(phys, func(m *OffChip, local uint64) error { return m.ReadRaw(local, dst) })
}

// WriteRaw is OffChip.WriteRaw at a global offset.
func (s *ShardedEngine) WriteRaw(phys uint64, src []byte) error {
	return s.onShard(phys, func(m *OffChip, local uint64) error { return m.WriteRaw(local, src) })
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

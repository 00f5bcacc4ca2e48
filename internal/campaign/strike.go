package campaign

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"authmem/internal/core"
	"authmem/internal/ctr"
	"authmem/internal/tree"
)

// Strike campaign phase: faults under lock-free readers.
//
// The concurrent phase proves the sharded engine's safety bar under locked
// traffic. The strike phase asks the sharper question the lock-free read
// path introduces: while readers are being served warm plaintext with ZERO
// lock acquisitions — straight out of the seqlock-versioned verified-block
// caches — can a fault ever be masked by a stale-but-trusted cache line?
//
// The design puts the reads and the faults on the same lines on purpose. A
// fixed hot set (two groups per shard) is written once and never legally
// changed, so every reader checks against a constant oracle with no write
// ambiguity: any successful read that is not byte-identical to the oracle
// is a silent escape, full stop. A striker goroutine then repeatedly picks
// a hot victim, lands a fault on one of the four planes (ciphertext,
// check lane, counter block, off-chip tree node), recovers the victim
// loudly through the ladder, and restores the oracle bytes — while the
// readers keep hammering the hot set through the lock-free path the whole
// time. The trust-boundary invariant under test: every tamper entry point
// publishes an eviction/epoch-flush through the same generation protocol
// the lock-free probe reads, so from the instant the fault lands, no
// reader can be served the pre-fault plaintext as a cache hit — it must
// fall to the locked slow path and take the detection machinery's verdict
// (loud error, correction, or repair), exactly like a cold read.
//
// The phase fails if any reader observes wrong bytes with a success
// verdict, and it requires the lock-free path to have actually engaged
// (LockFreeHits > 0) so a regression that silently disables the fast path
// cannot vacuously pass.

// StrikeConfig parameterizes the strike phase.
type StrikeConfig struct {
	// Engine is the design point under test (region sized by the runner).
	Engine core.Config
	// Seed makes striker and reader schedules deterministic per goroutine.
	Seed int64
	// Shards is the ShardedEngine partition count (power of two).
	Shards int
	// Readers is the number of lock-free reader goroutines.
	Readers int
	// Strikes is the number of fault events the striker lands.
	Strikes int
	// ReadsPerReader is each reader's minimum operation count; readers keep
	// reading past it until every strike has landed.
	ReadsPerReader int
	// BurstMax bounds bit flips per strike.
	BurstMax int
}

// DefaultStrike returns a strike-phase configuration: 4 shards, 3 readers,
// strikes sized to ops.
func DefaultStrike(engine core.Config, ops int, seed int64) StrikeConfig {
	strikes := ops / 20
	if strikes < 1 {
		strikes = 1
	}
	return StrikeConfig{
		Engine:         engine,
		Seed:           seed,
		Shards:         4,
		Readers:        3,
		Strikes:        strikes,
		ReadsPerReader: ops,
		BurstMax:       4,
	}
}

// Validate checks the strike-phase parameters.
func (c StrikeConfig) Validate() error {
	switch {
	case c.Readers < 1:
		return fmt.Errorf("campaign: Readers must be positive")
	case c.Strikes < 1:
		return fmt.Errorf("campaign: Strikes must be positive")
	case c.ReadsPerReader <= 0:
		return fmt.Errorf("campaign: ReadsPerReader must be positive")
	case c.BurstMax < 1:
		return fmt.Errorf("campaign: BurstMax must be >= 1")
	}
	ecfg := c.Engine
	ecfg.RegionBytes = regionBytes
	return core.ValidateShards(ecfg, c.Shards)
}

// StrikeReport is the strike phase's result.
type StrikeReport struct {
	Scheme    string `json:"scheme"`
	Placement string `json:"placement"`
	Codec     string `json:"codec"`
	Shards    int    `json:"shards"`
	Readers   int    `json:"readers"`
	Seed      int64  `json:"seed"`

	ReadOps     uint64 `json:"read_ops"`
	FaultEvents uint64 `json:"fault_events"`
	BitsFlipped uint64 `json:"bits_flipped"`

	Outcomes      map[string]uint64 `json:"outcomes"`
	SilentEscapes uint64            `json:"silent_escapes"`

	// FinalSweep classifies the post-strike oracle sweep over the hot set.
	FinalSweep string `json:"final_sweep"`

	// Lock-free path engagement during the phase (engine counters).
	LockFreeHits   uint64 `json:"lock_free_hits"`
	SeqlockRetries uint64 `json:"seqlock_retries"`
	SlowPathReads  uint64 `json:"slow_path_reads"`

	MetadataRepairs uint64 `json:"metadata_repairs"`
	RetryRecoveries uint64 `json:"retry_recoveries"`
	Quarantined     uint64 `json:"quarantined"`
}

// Passed reports the safety bar: zero silent escapes live and in the final
// sweep, with the lock-free path genuinely engaged.
func (r *StrikeReport) Passed() bool {
	return r.SilentEscapes == 0 && r.FinalSweep != Silent.String() && r.LockFreeHits > 0
}

// strikeOracle returns the fixed plaintext for a hot block.
func strikeOracle(blk uint64) [core.BlockBytes]byte {
	var b [core.BlockBytes]byte
	x := blk*0x9E3779B97F4A7C15 + 1
	for i := range b {
		x = x*6364136223846793005 + 1442695040888963407
		b[i] = byte(x >> 56)
	}
	return b
}

// RunStrike executes the strike phase and returns its report.
func RunStrike(cfg StrikeConfig) (*StrikeReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ecfg := cfg.Engine
	ecfg.RegionBytes = regionBytes

	s, err := core.NewShardedEngine(ecfg, cfg.Shards)
	if err != nil {
		return nil, err
	}

	// Hot set: the first two groups of every shard — all shards under
	// attack, all group-aligned so counter strikes stay inside the set.
	shardBlocks := s.ShardBytes() / core.BlockBytes
	var hot []uint64
	for sh := 0; sh < cfg.Shards; sh++ {
		base := uint64(sh) * shardBlocks
		for b := uint64(0); b < 2*ctr.GroupBlocks; b++ {
			hot = append(hot, base+b)
		}
	}
	for _, blk := range hot {
		img := strikeOracle(blk)
		if err := s.Write(blk*core.BlockBytes, img[:]); err != nil {
			return nil, fmt.Errorf("campaign: strike prefill blk %d: %w", blk, err)
		}
	}

	rep := &StrikeReport{
		Scheme:    ecfg.Scheme.String(),
		Placement: ecfg.Placement.String(),
		Codec:     ecfg.CodecName(),
		Shards:    cfg.Shards,
		Readers:   cfg.Readers,
		Seed:      cfg.Seed,
		Outcomes:  make(map[string]uint64),
	}

	var (
		wg          sync.WaitGroup
		strikesDone atomic.Bool
		outcomes    = make([][numOutcomes]uint64, cfg.Readers)
		readOps     = make([]uint64, cfg.Readers)
	)

	for g := 0; g < cfg.Readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed ^ int64(g+1)*0x5851F42D4C957F2D))
			dst := make([]byte, core.BlockBytes)
			for op := 0; op < cfg.ReadsPerReader || !strikesDone.Load(); op++ {
				blk := hot[rng.Intn(len(hot))]
				readOps[g]++
				info, err := s.Read(blk*core.BlockBytes, dst)
				if err != nil {
					outcomes[g][Halted]++ // loud; the striker restores
					continue
				}
				want := strikeOracle(blk)
				if *(*[core.BlockBytes]byte)(dst) != want {
					outcomes[g][Silent]++
					continue
				}
				if info.CorrectedDataBits > 0 || info.CorrectedMACBits > 0 {
					outcomes[g][Corrected]++
				} else {
					outcomes[g][Clean]++
				}
			}
		}(g)
	}

	// The striker: fault, recover loudly, restore the oracle.
	srng := rand.New(rand.NewSource(cfg.Seed ^ 0x53545249))
	dst := make([]byte, core.BlockBytes)
	var strikeErr error
	for i := 0; i < cfg.Strikes; i++ {
		blk := hot[srng.Intn(len(hot))]
		addr := blk * core.BlockBytes
		flips := 1 + srng.Intn(cfg.BurstMax)
		rep.FaultEvents++
		if strikeErr = strikePlane(s, addr, i%4, flips, srng, &rep.BitsFlipped); strikeErr != nil {
			break
		}
		// Recover the victim through the ladder: success must return the
		// oracle bytes; failure is loud and the restore below repairs it.
		if _, err := s.ReadRecover(addr, dst); err == nil {
			want := strikeOracle(blk)
			if *(*[core.BlockBytes]byte)(dst) != want {
				rep.SilentEscapes++ // recovery returned wrong bytes
			}
		}
		want := strikeOracle(blk)
		if err := s.Write(addr, want[:]); err != nil {
			strikeErr = fmt.Errorf("campaign: strike restore blk %d: %w", blk, err)
			break
		}
	}
	strikesDone.Store(true)
	wg.Wait()
	if strikeErr != nil {
		return nil, strikeErr
	}

	for g := range outcomes {
		rep.ReadOps += readOps[g]
		for o, n := range outcomes[g] {
			if n > 0 {
				rep.Outcomes[Outcome(o).String()] += n
			}
		}
		rep.SilentEscapes += outcomes[g][Silent]
	}

	// Final sweep: after a last restore pass, every hot block must verify
	// and match the oracle.
	sweep := Clean
	for _, blk := range hot {
		if _, err := s.ReadRecover(blk*core.BlockBytes, dst); err != nil {
			sweep = maxOutcome(sweep, Halted)
			continue
		}
		want := strikeOracle(blk)
		if *(*[core.BlockBytes]byte)(dst) != want {
			sweep = Silent
		}
	}
	rep.FinalSweep = sweep.String()

	st := s.Stats()
	rep.LockFreeHits = st.LockFreeHits
	rep.SeqlockRetries = st.SeqlockRetries
	rep.SlowPathReads = st.SlowPathReads
	rep.MetadataRepairs = st.MetadataRepairs
	rep.RetryRecoveries = st.RetryRecoveries
	rep.Quarantined = st.Quarantined
	return rep, nil
}

// strikePlane lands one fault event on the chosen plane of the block at
// addr: 0 ciphertext, 1 the lane (ECC lane or inline tag), 2 its counter
// block, 3 an off-chip node on its tree path in the owning shard.
func strikePlane(s *core.ShardedEngine, addr uint64, plane, flips int, rng *rand.Rand, bits *uint64) error {
	p, width := core.PlaneData, core.BlockBytes*8
	switch plane {
	case 1:
		p, width = core.PlaneLane, 64
	case 2:
		p = core.PlaneCounter
	case 3:
		p, width = core.PlaneTree, tree.NodeBytes*8
	}
	var phys uint64
	var err error
	if p != core.PlaneTree {
		phys, err = s.LocateAddr(p, addr)
	} else {
		shard := s.ShardOf(addr)
		flat, ok := uint64(0), false
		s.WithShard(shard, func(eng *core.Engine) { flat, ok = pathNode(eng, addr-uint64(shard)*s.ShardBytes(), rng) })
		if !ok {
			return nil // the tree fits on chip
		}
		m, base, _ := s.OffChip(shard)
		if phys, err = m.Locate(p, flat); err == nil {
			phys += base
		}
	}
	if err != nil {
		return err
	}
	for i := 0; i < flips; i++ {
		if err := s.FlipBit(phys, rng.Intn(width)); err != nil {
			return err
		}
		*bits++
	}
	return nil
}

// maxOutcome returns the worse of two outcomes in severity order.
func maxOutcome(a, b Outcome) Outcome {
	if b > a {
		return b
	}
	return a
}

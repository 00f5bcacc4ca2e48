package campaign

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"

	"authmem/internal/core"
	"authmem/internal/ctr"
	"authmem/internal/wal"
)

// Persist-crash campaign phase: strikes against the incremental-persistence
// artifacts (base snapshot + sealed delta WAL) rather than live DRAM.
//
// The other phases ask whether a faulted *running* engine can be made to
// return wrong data. This phase asks the durability-plane version: after the
// base image and the delta log have been damaged — torn at arbitrary byte
// offsets, bit-flipped, fed garbage tails, or maliciously truncated at a
// record boundary against a pinned root — can an incremental resume ever be made
// to hand back a memory whose contents disagree with some committed epoch's
// oracle without saying so?
//
// Two arrangements run the same strike set:
//
//   - flat: one Engine with the write pipeline, checkpointed over several
//     epochs of single-threaded traffic;
//   - sharded: a ShardedEngine with per-shard delta logs, written by
//     concurrent workers between epoch barriers (traffic is parallel, the
//     checkpoint is a quiescent cut — exactly how cmd/memserved drives it).
//
// Outcome mapping (same taxonomy, durability reading):
//
//	Clean      — resume replayed the whole log, state matches the final
//	             epoch's oracle.
//	Corrected  — resume succeeded and some read needed in-line correction
//	             (base-image flips under a correcting codec).
//	Recovered  — a typed truncated/rollback verdict cut the log at an
//	             earlier epoch, and the state matches THAT epoch's oracle
//	             exactly: the crash contract.
//	Halted     — resume (or a post-resume read) refused loudly.
//	Silent     — resume reported success but the state disagrees with the
//	             recovered epoch's oracle, or a pinned rollback was
//	             accepted. Automatic failure.

// Strike kinds, report keys.
const (
	strikeWALTruncate = "wal-truncate" // tear the log at a random byte
	strikeWALBitflip  = "wal-bitflip"  // flip 1..BurstMax log bits
	strikeWALGarbage  = "wal-garbage"  // append a garbage tail
	strikeBaseBitflip = "base-bitflip" // flip 1..BurstMax base-image bits
	strikePinRollback = "pin-rollback" // valid shorter prefix vs pinned root
)

func strikeKinds() []string {
	return []string{strikeWALTruncate, strikeWALBitflip, strikeWALGarbage, strikeBaseBitflip, strikePinRollback}
}

// PersistCrashConfig parameterizes the persist-crash phase.
type PersistCrashConfig struct {
	// Engine is the design point under test (region sized by the runner).
	Engine core.Config
	// Seed makes the phase deterministic.
	Seed int64
	// Epochs is the number of committed checkpoint epochs per arrangement.
	Epochs int
	// WritesPerEpoch is the write traffic between checkpoints.
	WritesPerEpoch int
	// Trials is the number of strikes per arrangement.
	Trials int
	// BurstMax bounds bit flips per corruption strike.
	BurstMax int
	// Shards/Workers shape the sharded arrangement.
	Shards  int
	Workers int
}

// DefaultPersistCrash sizes the phase from a total strike budget.
func DefaultPersistCrash(engine core.Config, trials int, seed int64) PersistCrashConfig {
	per := trials / 2
	if per < len(strikeKinds()) {
		per = len(strikeKinds())
	}
	return PersistCrashConfig{
		Engine:         engine,
		Seed:           seed,
		Epochs:         4,
		WritesPerEpoch: 300,
		Trials:         per,
		BurstMax:       4,
		Shards:         4,
		Workers:        3,
	}
}

// Validate checks the phase parameters.
func (c PersistCrashConfig) Validate() error {
	switch {
	case c.Epochs < 1:
		return fmt.Errorf("campaign: Epochs must be positive")
	case c.WritesPerEpoch < 1:
		return fmt.Errorf("campaign: WritesPerEpoch must be positive")
	case c.Trials < 1:
		return fmt.Errorf("campaign: Trials must be positive")
	case c.BurstMax < 1:
		return fmt.Errorf("campaign: BurstMax must be >= 1")
	case c.Workers < 1:
		return fmt.Errorf("campaign: Workers must be positive")
	}
	ecfg := c.Engine
	ecfg.RegionBytes = regionBytes
	return core.ValidateShards(ecfg, c.Shards)
}

// PersistCrashReport is the phase result, folded into the campaign report.
type PersistCrashReport struct {
	Scheme    string `json:"scheme"`
	Placement string `json:"placement"`
	Codec     string `json:"codec"`
	Seed      int64  `json:"seed"`

	Epochs        int   `json:"epochs"`
	FlatTrials    int   `json:"flat_trials"`
	ShardedTrials int   `json:"sharded_trials"`
	FlatWALBytes  int64 `json:"flat_wal_bytes"`

	// Strikes counts trials by strike kind across both arrangements.
	Strikes map[string]uint64 `json:"strikes"`
	// Outcomes is the taxonomy matrix over all resume trials.
	Outcomes map[string]uint64 `json:"outcomes"`
	// SilentEscapes must be zero for the phase to pass.
	SilentEscapes uint64 `json:"silent_escapes"`
}

// Passed reports whether the phase met the safety bar.
func (r *PersistCrashReport) Passed() bool { return r.SilentEscapes == 0 }

// persistArtifacts is one arrangement's strike surface: the base image, the
// per-log bytes, per-epoch oracles, and the trusted pins.
type persistArtifacts struct {
	base []byte
	logs [][]byte // one per shard (len 1 for flat)
	// epochOracle[k] is the plaintext oracle after k committed epochs.
	epochOracle []map[uint64][core.BlockBytes]byte
	// epochEnds[s][k] is shard s's log length after k committed epochs —
	// the record-boundary cuts an attacker would use.
	epochEnds [][]int64
	// pin is the final combined root (the value trusted storage holds).
	pin core.RootDigest
}

// RunPersistCrash executes the phase and returns its report.
func RunPersistCrash(cfg PersistCrashConfig) (*PersistCrashReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ecfg := cfg.Engine
	ecfg.RegionBytes = regionBytes

	rep := &PersistCrashReport{
		Scheme:    ecfg.Scheme.String(),
		Placement: ecfg.Placement.String(),
		Codec:     ecfg.CodecName(),
		Seed:      cfg.Seed,
		Epochs:    cfg.Epochs,
		Strikes:   make(map[string]uint64),
		Outcomes:  make(map[string]uint64),
	}

	flat, err := buildFlatArtifacts(cfg, ecfg)
	if err != nil {
		return nil, fmt.Errorf("campaign: persist-crash flat arrangement: %w", err)
	}
	rep.FlatWALBytes = int64(len(flat.logs[0]))
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x70657273697374))
	for trial := 0; trial < cfg.Trials; trial++ {
		kind := strikeKinds()[trial%len(strikeKinds())]
		o := strikeOnce(ecfg, 1, flat, kind, cfg.BurstMax, rng)
		rep.Strikes[kind]++
		rep.Outcomes[o.String()]++
		rep.FlatTrials++
		if o == Silent {
			rep.SilentEscapes++
		}
	}

	sharded, err := buildShardedArtifacts(cfg, ecfg)
	if err != nil {
		return nil, fmt.Errorf("campaign: persist-crash sharded arrangement: %w", err)
	}
	for trial := 0; trial < cfg.Trials; trial++ {
		kind := strikeKinds()[trial%len(strikeKinds())]
		o := strikeOnce(ecfg, cfg.Shards, sharded, kind, cfg.BurstMax, rng)
		rep.Strikes[kind]++
		rep.Outcomes[o.String()]++
		rep.ShardedTrials++
		if o == Silent {
			rep.SilentEscapes++
		}
	}
	return rep, nil
}

func copyOracle(m map[uint64][core.BlockBytes]byte) map[uint64][core.BlockBytes]byte {
	c := make(map[uint64][core.BlockBytes]byte, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// buildFlatArtifacts checkpoints a single engine over cfg.Epochs epochs of
// traffic.
func buildFlatArtifacts(cfg PersistCrashConfig, ecfg core.Config) (*persistArtifacts, error) {
	e, err := core.NewEngine(ecfg)
	if err != nil {
		return nil, err
	}
	e.EnableDeltaTracking()
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x666c6174))
	blocks := int64(ecfg.DataBlocks())
	oracle := make(map[uint64][core.BlockBytes]byte)
	write := func() error {
		blk := uint64(rng.Int63n(blocks))
		var data [core.BlockBytes]byte
		rng.Read(data[:])
		if err := e.Write(blk*core.BlockBytes, data[:]); err != nil {
			return err
		}
		oracle[blk] = data
		return nil
	}
	for i := 0; i < cfg.WritesPerEpoch; i++ {
		if err := write(); err != nil {
			return nil, err
		}
	}
	var base, log bytes.Buffer
	if _, err := e.Persist(&base); err != nil {
		return nil, err
	}
	w, err := e.NewDeltaWriter(&log)
	if err != nil {
		return nil, err
	}
	art := &persistArtifacts{
		base:        base.Bytes(),
		epochOracle: []map[uint64][core.BlockBytes]byte{copyOracle(oracle)},
		epochEnds:   [][]int64{{w.Offset()}},
	}
	for ep := 0; ep < cfg.Epochs; ep++ {
		for i := 0; i < cfg.WritesPerEpoch; i++ {
			if err := write(); err != nil {
				return nil, err
			}
		}
		if _, err := e.AppendDelta(w); err != nil {
			return nil, err
		}
		art.epochOracle = append(art.epochOracle, copyOracle(oracle))
		art.epochEnds[0] = append(art.epochEnds[0], w.Offset())
	}
	art.logs = [][]byte{log.Bytes()}
	art.pin = e.RootDigest()
	return art, nil
}

// buildShardedArtifacts checkpoints a ShardedEngine whose traffic comes from
// concurrent workers; each epoch is a barrier cut, as a daemon's checkpoint
// loop would take it.
func buildShardedArtifacts(cfg PersistCrashConfig, ecfg core.Config) (*persistArtifacts, error) {
	s, err := core.NewShardedEngine(ecfg, cfg.Shards)
	if err != nil {
		return nil, err
	}
	s.EnableDeltaTracking()
	blocks := ecfg.DataBlocks()

	// Disjoint group-aligned worker ranges, as in the concurrent phase.
	type pworker struct {
		rng     *rand.Rand
		lo, hi  uint64
		pending map[uint64][core.BlockBytes]byte
		err     error
	}
	per := blocks / uint64(cfg.Workers) / ctr.GroupBlocks * ctr.GroupBlocks
	if per == 0 {
		return nil, fmt.Errorf("region too small for %d workers", cfg.Workers)
	}
	workers := make([]*pworker, cfg.Workers)
	for i := range workers {
		lo, hi := uint64(i)*per, uint64(i+1)*per
		if i == cfg.Workers-1 {
			hi = blocks
		}
		workers[i] = &pworker{
			rng: rand.New(rand.NewSource(cfg.Seed ^ int64(i+1)*0x5851F42D4C957F2D)),
			lo:  lo, hi: hi,
			pending: make(map[uint64][core.BlockBytes]byte),
		}
	}
	runEpochTraffic := func(n int) error {
		var wg sync.WaitGroup
		for _, w := range workers {
			wg.Add(1)
			go func(w *pworker) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					blk := w.lo + uint64(w.rng.Int63n(int64(w.hi-w.lo)))
					var data [core.BlockBytes]byte
					w.rng.Read(data[:])
					if err := s.Write(blk*core.BlockBytes, data[:]); err != nil {
						w.err = err
						return
					}
					w.pending[blk] = data
				}
			}(w)
		}
		wg.Wait()
		for _, w := range workers {
			if w.err != nil {
				return w.err
			}
		}
		return nil
	}

	oracle := make(map[uint64][core.BlockBytes]byte)
	merge := func() {
		for _, w := range workers {
			for blk, data := range w.pending {
				oracle[blk] = data
			}
			w.pending = make(map[uint64][core.BlockBytes]byte)
		}
	}

	if err := runEpochTraffic(cfg.WritesPerEpoch / cfg.Workers); err != nil {
		return nil, err
	}
	merge()
	var base bytes.Buffer
	if _, err := s.Persist(&base); err != nil {
		return nil, err
	}
	logBufs := make([]bytes.Buffer, cfg.Shards)
	art := &persistArtifacts{
		base:        base.Bytes(),
		epochOracle: []map[uint64][core.BlockBytes]byte{copyOracle(oracle)},
		epochEnds:   make([][]int64, cfg.Shards),
	}
	shardWriters := make([]*wal.Writer, cfg.Shards)
	for i := range shardWriters {
		w, err := s.NewShardDeltaWriter(i, &logBufs[i])
		if err != nil {
			return nil, err
		}
		shardWriters[i] = w
		art.epochEnds[i] = []int64{w.Offset()}
	}
	for ep := 0; ep < cfg.Epochs; ep++ {
		if err := runEpochTraffic(cfg.WritesPerEpoch / cfg.Workers); err != nil {
			return nil, err
		}
		merge()
		for i, w := range shardWriters {
			if _, err := s.AppendDeltaShard(i, w); err != nil {
				return nil, err
			}
			art.epochEnds[i] = append(art.epochEnds[i], w.Offset())
		}
		art.epochOracle = append(art.epochOracle, copyOracle(oracle))
	}
	art.logs = make([][]byte, cfg.Shards)
	for i := range art.logs {
		art.logs[i] = logBufs[i].Bytes()
	}
	art.pin = s.RootDigest()
	return art, nil
}

// strikeOnce applies one strike to a fresh copy of the artifacts, resumes,
// and classifies the result.
func strikeOnce(ecfg core.Config, shards int, art *persistArtifacts, kind string, burstMax int, rng *rand.Rand) Outcome {
	base := art.base
	logs := make([][]byte, len(art.logs))
	copy(logs, art.logs)
	victim := rng.Intn(len(logs))
	var pin *core.RootDigest
	finalEpoch := len(art.epochOracle) - 1
	expectRefusal := false

	switch kind {
	case strikeWALTruncate:
		cut := rng.Int63n(int64(len(logs[victim])) + 1)
		logs[victim] = logs[victim][:cut]
	case strikeWALBitflip:
		mut := append([]byte(nil), logs[victim]...)
		for i := 0; i < 1+rng.Intn(burstMax); i++ {
			bit := rng.Intn(len(mut) * 8)
			mut[bit/8] ^= 1 << (bit % 8)
		}
		logs[victim] = mut
	case strikeWALGarbage:
		tail := make([]byte, 16+rng.Intn(256))
		rng.Read(tail)
		logs[victim] = append(append([]byte(nil), logs[victim]...), tail...)
	case strikeBaseBitflip:
		mut := append([]byte(nil), base...)
		for i := 0; i < 1+rng.Intn(burstMax); i++ {
			bit := rng.Intn(len(mut) * 8)
			mut[bit/8] ^= 1 << (bit % 8)
		}
		base = mut
	case strikePinRollback:
		// Present a valid log prefix ending at an earlier epoch boundary,
		// against the pinned final root: the truncation attack. Accepting it
		// is a silent escape by definition.
		ep := rng.Intn(finalEpoch) // 0..finalEpoch-1
		logs[victim] = logs[victim][:art.epochEnds[victim][ep]]
		pin = &art.pin
		expectRefusal = true
	}

	return classifyShardedResume(ecfg, shards, base, logs, pin, art, expectRefusal)
}

// classifyShardedResume resumes and grades the outcome against the per-epoch
// oracles: each shard may legitimately recover a different epoch, so every
// block is checked against its owning shard's recovered-epoch oracle. The flat
// arrangement is the one-shard case.
func classifyShardedResume(ecfg core.Config, shards int, base []byte, logs [][]byte, pin *core.RootDigest, art *persistArtifacts, expectRefusal bool) Outcome {
	wals := make([]io.Reader, len(logs))
	for i := range logs {
		wals[i] = bytes.NewReader(logs[i])
	}
	s, reports, err := core.ResumeShardedIncremental(ecfg, shards, bytes.NewReader(base), wals, pin)
	if err != nil {
		return Halted
	}
	if expectRefusal {
		return Silent
	}
	final := len(art.epochOracle) - 1
	worst := Clean
	for _, rep := range reports {
		if rep.Epochs < 0 || rep.Epochs > final {
			return Silent
		}
		if rep.Status != core.RecoveryClean || rep.Epochs != final {
			worst = Recovered
		}
	}
	var dst [core.BlockBytes]byte
	for blk := range art.epochOracle[final] {
		shard := s.ShardOf(blk * core.BlockBytes)
		ep := reports[shard].Epochs
		want, ok := art.epochOracle[ep][blk]
		if !ok {
			continue // first written after the shard's recovered epoch
		}
		ri, err := s.Read(blk*core.BlockBytes, dst[:])
		if err != nil {
			if worst < Halted {
				worst = Halted
			}
			continue
		}
		if dst != want {
			return Silent
		}
		if (ri.CorrectedDataBits > 0 || ri.CorrectedMACBits > 0) && worst < Corrected {
			worst = Corrected
		}
	}
	return worst
}

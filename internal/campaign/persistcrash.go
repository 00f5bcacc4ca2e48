package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
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
// One builder checkpoints a ShardedEngine with per-shard delta logs, written
// by concurrent workers between epoch barriers (traffic is parallel, the
// checkpoint is a quiescent cut — exactly how cmd/memserved drives it), and
// two arrangements of it run the same strike set:
//
//   - one shard written by one worker, whose base is a bare v1 image (the
//     report's flat_* keys);
//   - Shards shards written by Workers workers, whose base is a v2 image.
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
	// Shards/Workers shape the second arrangement.
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

	// The flat_* keys describe the one-shard arrangement, sharded_trials
	// the Shards-shard one.
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
	logs [][]byte // one per shard
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

	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x70657273697374))
	for i, a := range cfg.arrangements() {
		art, err := buildArtifacts(cfg, ecfg, a)
		if err != nil {
			return nil, fmt.Errorf("campaign: persist-crash %d-shard arrangement: %w", a.shards, err)
		}
		trials := &rep.ShardedTrials
		if i == 0 {
			trials = &rep.FlatTrials
			rep.FlatWALBytes = int64(len(art.logs[0]))
		}
		for trial := 0; trial < cfg.Trials; trial++ {
			kind := strikeKinds()[trial%len(strikeKinds())]
			o := strikeOnce(ecfg, a.shards, art, kind, cfg.BurstMax, rng)
			rep.Strikes[kind]++
			rep.Outcomes[o.String()]++
			*trials++
			if o == Silent {
				rep.SilentEscapes++
			}
		}
	}
	return rep, nil
}

// arrangement shapes one persist-crash build. Worker i is seeded with
// Seed ^ (salt + i·0x5851F42D4C957F2D).
type arrangement struct {
	shards, workers int
	salt            int64
}

// arrangements lists the phase's two builds in run order: one shard written
// by one worker, then Shards shards written by Workers workers.
func (c PersistCrashConfig) arrangements() []arrangement {
	return []arrangement{{1, 1, 0x666c6174}, {c.Shards, c.Workers, 0x5851F42D4C957F2D}}
}

// buildArtifacts checkpoints a ShardedEngine whose traffic comes from
// concurrent workers; each epoch is a barrier cut, as a daemon's checkpoint
// loop would take it.
func buildArtifacts(cfg PersistCrashConfig, ecfg core.Config, a arrangement) (*persistArtifacts, error) {
	s, err := core.NewShardedEngine(ecfg, a.shards)
	if err != nil {
		return nil, err
	}
	s.EnableDeltaTracking()

	// Disjoint group-aligned worker ranges, as in the concurrent phase, each
	// written through its own shadow driver.
	blocks := ecfg.DataBlocks()
	per := blocks / uint64(a.workers) / ctr.GroupBlocks * ctr.GroupBlocks
	if per == 0 {
		return nil, fmt.Errorf("region too small for %d workers", a.workers)
	}
	workers := make([]shadow, a.workers)
	for i := range workers {
		workers[i] = newShadow(s, rand.New(rand.NewSource(cfg.Seed^(a.salt+int64(i)*0x5851F42D4C957F2D))))
	}
	// epoch runs one epoch of traffic, the workers in parallel, and returns
	// the oracle of every write so far.
	epoch := func() (map[uint64][core.BlockBytes]byte, error) {
		errs := make([]error, len(workers))
		var wg sync.WaitGroup
		for i := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w, lo, hi := &workers[i], uint64(i)*per, uint64(i+1)*per
				if i == len(workers)-1 {
					hi = blocks
				}
				for range cfg.WritesPerEpoch / len(workers) {
					if errs[i] = w.write(lo + uint64(w.rng.Int63n(int64(hi-lo)))); errs[i] != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
		oracle := make(map[uint64][core.BlockBytes]byte)
		for _, w := range workers {
			maps.Copy(oracle, w.oracle)
		}
		return oracle, errors.Join(errs...)
	}

	oracle, err := epoch()
	if err != nil {
		return nil, err
	}
	var base bytes.Buffer
	if _, err := s.Persist(&base); err != nil {
		return nil, err
	}
	art := &persistArtifacts{
		base:        base.Bytes(),
		logs:        make([][]byte, a.shards),
		epochOracle: []map[uint64][core.BlockBytes]byte{oracle},
		epochEnds:   make([][]int64, a.shards),
	}
	logBufs := make([]bytes.Buffer, a.shards)
	logs := make([]*wal.Writer, a.shards)
	for i := range logs {
		if logs[i], err = s.NewShardDeltaWriter(i, &logBufs[i]); err != nil {
			return nil, err
		}
		art.epochEnds[i] = []int64{logs[i].Offset()}
	}
	for range cfg.Epochs {
		oracle, err := epoch()
		if err != nil {
			return nil, err
		}
		for i, w := range logs {
			if _, err := s.AppendDeltaShard(i, w); err != nil {
				return nil, err
			}
			art.epochEnds[i] = append(art.epochEnds[i], w.Offset())
		}
		art.epochOracle = append(art.epochOracle, oracle)
	}
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

	return classifyResume(ecfg, shards, base, logs, pin, art, expectRefusal)
}

// classifyResume resumes and grades the outcome against the per-epoch
// oracles: each shard may legitimately recover a different epoch, so every
// block is checked against its owning shard's recovered-epoch oracle.
func classifyResume(ecfg core.Config, shards int, base []byte, logs [][]byte, pin *core.RootDigest, art *persistArtifacts, expectRefusal bool) Outcome {
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
		worst = max(worst, grade(err, dst[:], want[:], core.RecoverInfo{ReadInfo: ri}))
	}
	return worst
}

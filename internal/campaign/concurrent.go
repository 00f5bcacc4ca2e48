package campaign

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"

	"authmem/internal/core"
	"authmem/internal/ctr"
)

// Concurrent campaign phase: parallel faulted traffic against a sharded
// engine.
//
// The single-engine campaign proves the integrity machinery never returns
// wrong data as if it were right — one operation at a time. The concurrent
// phase asks the same question of the ShardedEngine while several workers
// hammer it simultaneously, with faults landing under the same shard locks
// the traffic takes. Each worker owns a disjoint, group-aligned slice of
// the block space and keeps a private shadow oracle for it, so a silent
// escape is detected exactly, with no cross-worker ambiguity. The worker
// count is deliberately chosen so worker slices straddle shard boundaries:
// every worker's span traffic crosses shards, and every shard serves more
// than one worker, which is precisely the contention the per-shard locks
// must survive.
//
// Faults here are persistent only (transient-fault modeling needs the
// retry-hook ledger, which is inherently single-threaded); the ciphertext,
// ECC/MAC, counter, and tree planes are all exercised. Counter faults stay
// inside the owning worker's group-aligned slice; tree faults may collide
// with a neighbouring worker's reads in the same shard, which must surface
// as loud recovery or halts — never silence.
//
// The phase ends with a persist/resume round trip of the faulted, concurrent-
// written state through the sharded v2 image format, re-checking every
// worker's oracle on the resumed engine.

// ConcurrentConfig parameterizes the concurrent phase.
type ConcurrentConfig struct {
	// Engine is the design point under test (region sized by the runner).
	Engine core.Config
	// Seed makes the phase deterministic per worker; cross-worker
	// interleaving is scheduler-dependent, but safety classification is
	// interleaving-independent.
	Seed int64
	// Shards is the ShardedEngine partition count (power of two).
	Shards int
	// Workers is the number of concurrent traffic goroutines. Pick a value
	// that does not divide Shards so worker slices straddle shard
	// boundaries (the Default does).
	Workers int
	// OpsPerWorker is each worker's operation count.
	OpsPerWorker int
	// FaultRate is the per-operation probability of injecting a fault.
	FaultRate float64
	// BurstMax bounds bit flips per fault event.
	BurstMax int
}

// DefaultConcurrent returns a concurrent-phase configuration: 4 shards, 3
// workers (so every worker slice straddles a shard boundary), ops split
// across the workers.
func DefaultConcurrent(engine core.Config, ops int, seed int64) ConcurrentConfig {
	per := ops / 3
	if per < 1 {
		per = 1
	}
	return ConcurrentConfig{
		Engine:       engine,
		Seed:         seed,
		Shards:       4,
		Workers:      3,
		OpsPerWorker: per,
		FaultRate:    0.15,
		BurstMax:     4,
	}
}

// Validate checks the concurrent-phase parameters.
func (c ConcurrentConfig) Validate() error {
	switch {
	case c.Workers < 1:
		return fmt.Errorf("campaign: Workers must be positive")
	case c.OpsPerWorker <= 0:
		return fmt.Errorf("campaign: OpsPerWorker must be positive")
	case c.FaultRate < 0 || c.FaultRate > 1:
		return fmt.Errorf("campaign: FaultRate %v out of [0,1]", c.FaultRate)
	case c.BurstMax < 1:
		return fmt.Errorf("campaign: BurstMax must be >= 1")
	}
	ecfg := c.Engine
	ecfg.RegionBytes = regionBytes
	return core.ValidateShards(ecfg, c.Shards)
}

// ConcurrentReport is the concurrent phase's result.
type ConcurrentReport struct {
	Scheme    string `json:"scheme"`
	Placement string `json:"placement"`
	Codec     string `json:"codec"`
	Shards    int    `json:"shards"`
	Workers   int    `json:"workers"`
	Seed      int64  `json:"seed"`

	Ops         uint64 `json:"ops"`
	SpanReads   uint64 `json:"span_reads"`
	FaultEvents uint64 `json:"fault_events"`
	BitsFlipped uint64 `json:"bits_flipped"`

	Outcomes      map[string]uint64 `json:"outcomes"`
	SilentEscapes uint64            `json:"silent_escapes"`

	// ResumeOutcome classifies the final sharded persist/resume sweep.
	ResumeOutcome string `json:"resume_outcome"`

	RetriedReads    uint64 `json:"retried_reads"`
	RetryRecoveries uint64 `json:"retry_recoveries"`
	MetadataRepairs uint64 `json:"metadata_repairs"`
	Quarantined     uint64 `json:"quarantined"`
}

// Passed reports whether the phase met the safety bar: zero silent escapes,
// both live and across the resume sweep.
func (r *ConcurrentReport) Passed() bool {
	return r.SilentEscapes == 0 && r.ResumeOutcome != Silent.String()
}

// cWorker is one traffic goroutine's private state: a disjoint block range
// and its shadow oracle.
type cWorker struct {
	cfg        ConcurrentConfig
	rng        *rand.Rand
	s          *core.ShardedEngine
	lo         uint64    // first owned block (inclusive), group-aligned
	hi         uint64    // last owned block (exclusive)
	span       [2]uint64 // pre-filled stripe [lo, hi) for span reads
	oracle     map[uint64][core.BlockBytes]byte
	written    []uint64
	writtenSet map[uint64]struct{}

	ops, spanReads, faultEvents, bitsFlipped uint64
	outcomes                                 [numOutcomes]uint64
	err                                      error
}

// RunConcurrent executes the concurrent phase and returns its report.
func RunConcurrent(cfg ConcurrentConfig) (*ConcurrentReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ecfg := cfg.Engine
	ecfg.RegionBytes = regionBytes

	s, err := core.NewShardedEngine(ecfg, cfg.Shards)
	if err != nil {
		return nil, err
	}

	workers := partitionWorkers(cfg, s, ecfg.DataBlocks())

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *cWorker) {
			defer wg.Done()
			w.run()
		}(w)
	}
	wg.Wait()

	rep := &ConcurrentReport{
		Scheme:    ecfg.Scheme.String(),
		Placement: ecfg.Placement.String(),
		Codec:     ecfg.CodecName(),
		Shards:    cfg.Shards,
		Workers:   cfg.Workers,
		Seed:      cfg.Seed,
		Outcomes:  make(map[string]uint64),
	}
	for _, w := range workers {
		if w.err != nil {
			return nil, fmt.Errorf("campaign: concurrent worker [%d,%d): %w", w.lo, w.hi, w.err)
		}
		rep.Ops += w.ops
		rep.SpanReads += w.spanReads
		rep.FaultEvents += w.faultEvents
		rep.BitsFlipped += w.bitsFlipped
		for o, n := range w.outcomes {
			if n > 0 {
				rep.Outcomes[Outcome(o).String()] += n
			}
		}
		rep.SilentEscapes += w.outcomes[Silent]
	}
	st := s.Stats()
	rep.RetriedReads = st.RetriedReads
	rep.RetryRecoveries = st.RetryRecoveries
	rep.MetadataRepairs = st.MetadataRepairs
	rep.Quarantined = st.Quarantined

	// Final round trip: the faulted, concurrently-written state must
	// survive the sharded v2 image format, and every worker's oracle must
	// still hold on the resumed engine.
	rep.ResumeOutcome = resumeSweep(ecfg, cfg.Shards, s, workers).String()
	return rep, nil
}

// partitionWorkers slices the block space into group-aligned disjoint
// ranges, one per worker, and positions each worker's span stripe across a
// shard boundary when its range contains one.
func partitionWorkers(cfg ConcurrentConfig, s *core.ShardedEngine, blocks uint64) []*cWorker {
	per := blocks / uint64(cfg.Workers) / ctr.GroupBlocks * ctr.GroupBlocks
	shardBlocks := s.ShardBytes() / core.BlockBytes
	workers := make([]*cWorker, cfg.Workers)
	for i := range workers {
		lo := uint64(i) * per
		hi := lo + per
		if i == cfg.Workers-1 {
			hi = blocks
		}
		w := &cWorker{
			cfg:        cfg,
			rng:        rand.New(rand.NewSource(cfg.Seed ^ int64(i+1)*0x5851F42D4C957F2D)),
			s:          s,
			lo:         lo,
			hi:         hi,
			oracle:     make(map[uint64][core.BlockBytes]byte),
			writtenSet: make(map[uint64]struct{}),
		}
		// Span stripe: 128 blocks centred on a shard boundary inside the
		// range when one exists, else at the range start — so most
		// workers' span reads genuinely fan out across shards.
		const stripe = 128
		w.span = [2]uint64{lo, min(lo+stripe, hi)}
		for b := (lo/shardBlocks + 1) * shardBlocks; b < hi; b += shardBlocks {
			if b >= lo+stripe/2 && b+stripe/2 <= hi {
				w.span = [2]uint64{b - stripe/2, b + stripe/2}
				break
			}
		}
		workers[i] = w
	}
	return workers
}

// run is one worker's traffic loop.
func (w *cWorker) run() {
	// Warm-up: make every stripe block resident so span reads are always
	// legal, and seed some scattered writes.
	for blk := w.span[0]; blk < w.span[1]; blk++ {
		if w.err = w.doWrite(blk); w.err != nil {
			return
		}
	}
	for op := 0; op < w.cfg.OpsPerWorker; op++ {
		if w.rng.Float64() < w.cfg.FaultRate {
			w.injectFault()
		}
		switch {
		case op%8 == 7:
			if w.err = w.doSpanRead(); w.err != nil {
				return
			}
		case w.rng.Float64() < 0.5:
			blk := w.lo + uint64(w.rng.Int63n(int64(w.hi-w.lo)))
			if w.err = w.doWrite(blk); w.err != nil {
				return
			}
		default:
			w.doRead(w.written[w.rng.Intn(len(w.written))])
		}
	}
	// Drain: flush out any outstanding fault no mid-run read touched.
	for _, blk := range w.written {
		w.doRead(blk)
	}
}

func (w *cWorker) doWrite(blk uint64) error {
	var data [core.BlockBytes]byte
	w.rng.Read(data[:])
	w.ops++
	if err := w.s.Write(blk*core.BlockBytes, data[:]); err != nil {
		return err
	}
	w.oracle[blk] = data
	if _, ok := w.writtenSet[blk]; !ok {
		w.writtenSet[blk] = struct{}{}
		w.written = append(w.written, blk)
	}
	return nil
}

func (w *cWorker) doRead(blk uint64) {
	var dst [core.BlockBytes]byte
	w.ops++
	ri, err := w.s.ReadRecover(blk*core.BlockBytes, dst[:])
	want := w.oracle[blk]
	if err != nil {
		w.outcomes[Halted]++
		if werr := w.s.Write(blk*core.BlockBytes, want[:]); werr != nil {
			panic(fmt.Sprintf("campaign: concurrent resync write blk %d: %v", blk, werr))
		}
		return
	}
	if dst != want {
		w.outcomes[Silent]++
		return
	}
	switch {
	case ri.MetadataRepaired || ri.RetryRecovered:
		w.outcomes[Recovered]++
	case ri.CorrectedDataBits > 0 || ri.CorrectedMACBits > 0:
		w.outcomes[Corrected]++
	default:
		w.outcomes[Clean]++
	}
}

// doSpanRead reads a random sub-span of the worker's pre-filled stripe
// through the fan-out path and checks every byte against the oracle.
func (w *cWorker) doSpanRead() error {
	n := w.span[1] - w.span[0]
	start := w.span[0] + uint64(w.rng.Int63n(int64(n)))
	count := 1 + uint64(w.rng.Int63n(int64(w.span[1]-start)))
	buf := make([]byte, count*core.BlockBytes)
	w.ops++
	w.spanReads++
	if err := w.s.ReadBlocks(start*core.BlockBytes, buf); err != nil {
		// The span path has no recovery ladder: any fault inside is a
		// loud halt. Rewrite the whole stripe from the oracle.
		w.outcomes[Halted]++
		for blk := w.span[0]; blk < w.span[1]; blk++ {
			img := w.oracle[blk]
			if werr := w.s.Write(blk*core.BlockBytes, img[:]); werr != nil {
				return fmt.Errorf("stripe resync blk %d: %w", blk, werr)
			}
		}
		return nil
	}
	for i := uint64(0); i < count; i++ {
		want := w.oracle[start+i]
		if !bytes.Equal(buf[i*core.BlockBytes:(i+1)*core.BlockBytes], want[:]) {
			w.outcomes[Silent]++
			return nil
		}
	}
	w.outcomes[Clean]++
	return nil
}

// injectFault applies one persistent fault event to an own written block,
// under the owning shard's lock (the raw operations take it).
func (w *cWorker) injectFault() {
	if len(w.written) == 0 {
		return
	}
	blk := w.written[w.rng.Intn(len(w.written))]
	addr := blk * core.BlockBytes
	flips := 1 + w.rng.Intn(w.cfg.BurstMax)
	w.faultEvents++

	if err := strikePlane(w.s, addr, w.rng.Intn(4), flips, w.rng, &w.bitsFlipped); err != nil {
		panic(fmt.Sprintf("campaign: concurrent flip blk %d: %v", blk, err))
	}
}

// resumeSweep persists the sharded engine through the v2 image format,
// resumes it with the pinned combined root, and re-reads every worker's
// oracle. Returns the worst outcome observed.
func resumeSweep(ecfg core.Config, shards int, s *core.ShardedEngine, workers []*cWorker) Outcome {
	var buf bytes.Buffer
	root, err := s.Persist(&buf)
	if err != nil {
		return Halted
	}
	r, err := core.ResumeSharded(ecfg, shards, bytes.NewReader(buf.Bytes()), &root)
	if err != nil {
		return Halted
	}
	worst := Clean
	var dst [core.BlockBytes]byte
	for _, w := range workers {
		for _, blk := range w.written {
			ri, err := r.ReadRecover(blk*core.BlockBytes, dst[:])
			want := w.oracle[blk]
			switch {
			case err != nil:
				if worst < Halted {
					worst = Halted
				}
			case dst != want:
				return Silent
			case ri.MetadataRepaired || ri.RetryRecovered:
				if worst < Recovered {
					worst = Recovered
				}
			case ri.CorrectedDataBits > 0 || ri.CorrectedMACBits > 0:
				if worst < Corrected {
					worst = Corrected
				}
			}
		}
	}
	return worst
}

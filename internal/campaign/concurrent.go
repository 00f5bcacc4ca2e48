package campaign

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"authmem/internal/core"
	"authmem/internal/ctr"
)

// Concurrent campaign phase: parallel faulted traffic against a sharded
// engine, with lock-free readers on the lines a striker faults.
//
// The per-plane phases prove the integrity machinery never returns wrong
// data as if it were right — one operation at a time, on a one-shard
// region. The concurrent
// phase asks the same question of the ShardedEngine under three kinds of
// simultaneous traffic, every read graded against an oracle:
//
//   - Workers. Each owns a disjoint, group-aligned slice of the block space
//     with a private shadow oracle, and mixes writes, ReadRecover reads and
//     span reads with persistent faults on its own blocks, in all four
//     planes, under the shard locks the raw operations take. Worker slices
//     straddle shard boundaries, so span reads fan out across shards and
//     every shard serves more than one worker.
//   - Readers. A hot set, two whole groups in every shard and outside every
//     worker's slice, is written once with constant oracle bytes. As many
//     readers as workers Read it, mostly served warm from the seqlock-
//     versioned verified-block caches with no lock taken.
//   - The striker, the hot set's only writer. It lands a fault on a hot
//     block, recovers the victim through ReadRecover and restores the oracle
//     bytes while the readers keep reading. Every tamper entry point
//     publishes an eviction through the generation protocol the lock-free
//     probe reads, so from the instant a fault lands no reader may be served
//     the pre-fault plaintext as a hit: it must fall to the locked slow path
//     and take the detection machinery's verdict.
//
// Faults land through strikePlane, the per-plane phases' placer, in all four
// planes, the ECC plane's inline check bytes included, and are persistent
// only (transient faults need the retry-hook ledger, which is
// single-threaded). A tree fault may land on a node that other goroutines'
// blocks share; that must surface as recovery or a halt, never as silence.
// When the traffic window closes the phase takes one stats snapshot, sweeps
// the hot set on the live engine, then persists the engine through the
// sharded image format, resumes it under the pinned root and sweeps every
// oracle block on the resumed engine.

// ConcurrentConfig parameterizes the concurrent phase.
type ConcurrentConfig struct {
	// Engine is the design point under test (region sized by the runner).
	Engine core.Config
	// Seed makes the phase deterministic per goroutine; cross-goroutine
	// interleaving is scheduler-dependent, but safety classification is
	// interleaving-independent.
	Seed int64
	// Shards is the ShardedEngine partition count (power of two).
	Shards int
	// Workers is the number of traffic goroutines, and of hot-set readers.
	// Pick a value that does not divide Shards so worker slices straddle
	// shard boundaries (the Default does).
	Workers int
	// OpsPerWorker is each worker's operation count, and each reader's
	// minimum; readers keep reading until the striker is done. The striker
	// lands one fault per 20 worker operations.
	OpsPerWorker int
	// FaultRate is the per-operation probability of a worker fault.
	FaultRate float64
	// BurstMax bounds bit flips per fault event.
	BurstMax int
}

// DefaultConcurrent returns a concurrent-phase configuration: 4 shards, 3
// workers (so every worker slice straddles a shard boundary), ops split
// across the workers.
func DefaultConcurrent(engine core.Config, ops int, seed int64) ConcurrentConfig {
	c := ConcurrentConfig{
		Engine:    engine,
		Seed:      seed,
		Shards:    4,
		Workers:   3,
		FaultRate: 0.15,
		BurstMax:  4,
	}
	c.SplitOps(ops)
	return c
}

// SplitOps sets OpsPerWorker so the Workers together run ops operations,
// at least one each. Set Workers first.
func (c *ConcurrentConfig) SplitOps(ops int) {
	c.OpsPerWorker = max(1, ops/max(1, c.Workers)) // Validate refuses Workers < 1
}

// Validate checks the concurrent-phase parameters, including that the
// worker slices and the hot set fit the region.
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
	if err := core.ValidateShards(ecfg, c.Shards); err != nil {
		return err
	}
	groups := ecfg.DataBlocks() / ctr.GroupBlocks
	if per := groups / uint64(c.Shards); per < hotGroups+2 {
		return fmt.Errorf("campaign: %d shards leave %d groups per shard; the hot set and a boundary stripe need %d",
			c.Shards, per, hotGroups+2)
	}
	if free := groups - hotGroups*uint64(c.Shards); uint64(c.Workers) > free {
		return fmt.Errorf("campaign: %d workers exceed the %d groups outside the hot set", c.Workers, free)
	}
	return nil
}

// ConcurrentReport is the concurrent phase's result.
type ConcurrentReport struct {
	Scheme    string `json:"scheme"`
	Placement string `json:"placement"`
	Codec     string `json:"codec"`
	Shards    int    `json:"shards"`
	Workers   int    `json:"workers"`
	Seed      int64  `json:"seed"`

	// Ops counts the workers' traffic-loop operations, Workers ×
	// OpsPerWorker (warm-up writes and drain reads are not among them), and
	// SpanReads those that were span reads; HotReads counts the readers'
	// reads and Strikes the striker's faults. FaultEvents counts the
	// workers' faults and the strikes.
	Ops         uint64 `json:"ops"`
	SpanReads   uint64 `json:"span_reads"`
	HotReads    uint64 `json:"hot_reads"`
	Strikes     uint64 `json:"strikes"`
	FaultEvents uint64 `json:"fault_events"`
	BitsFlipped uint64 `json:"bits_flipped"`

	// Outcomes grades every read of the traffic window: the workers', the
	// readers' and the striker's recoveries.
	Outcomes      map[string]uint64 `json:"outcomes"`
	SilentEscapes uint64            `json:"silent_escapes"`

	// LiveSweep is the worst grade of the hot set read back on the live
	// engine, ResumeSweep that of every oracle block on the engine the
	// pinned sharded persist/resume produces.
	LiveSweep   string `json:"live_sweep"`
	ResumeSweep string `json:"resume_sweep"`

	// BlocksRead counts the blocks the traffic window read, the workers'
	// drain reads included; the engine counters below are one snapshot
	// taken when that window closes, before either sweep.
	BlocksRead      uint64 `json:"blocks_read"`
	LockFreeHits    uint64 `json:"lock_free_hits"`
	SeqlockRetries  uint64 `json:"seqlock_retries"`
	SlowPathReads   uint64 `json:"slow_path_reads"`
	RetriedReads    uint64 `json:"retried_reads"`
	RetryRecoveries uint64 `json:"retry_recoveries"`
	MetadataRepairs uint64 `json:"metadata_repairs"`
	Quarantined     uint64 `json:"quarantined"`
}

// Passed reports whether the phase met the safety bar: zero silent escapes
// live and in both sweeps, with the lock-free path engaged, so a regression
// that disables it cannot pass vacuously.
func (r *ConcurrentReport) Passed() bool {
	return r.SilentEscapes == 0 && r.LiveSweep != Silent.String() &&
		r.ResumeSweep != Silent.String() && r.LockFreeHits > 0
}

// hotGroups is the hot set's share of every shard: its groups 1 and 2, clear
// of the boundary stripes, which use a shard's first and last group.
const (
	hotGroups = 2
	hotLo     = ctr.GroupBlocks             // the hot set's first block within its shard
	hotBlocks = hotGroups * ctr.GroupBlocks // hot blocks per shard
)

// layout maps the phase's block space: the hot set in every shard, and the
// blocks outside it, numbered in address order, which the workers split.
type layout struct{ shardBlocks uint64 }

// block returns the v-th block outside the hot set.
func (l layout) block(v uint64) uint64 {
	per := l.shardBlocks - hotBlocks
	blk := v/per*l.shardBlocks + v%per
	if v%per >= hotLo {
		blk += hotBlocks
	}
	return blk
}

// hot lists the hot set of an engine with the given shard count.
func (l layout) hot(shards int) []uint64 {
	hot := make([]uint64, 0, shards*hotBlocks)
	for sh := range uint64(shards) {
		for b := range uint64(hotBlocks) {
			hot = append(hot, sh*l.shardBlocks+hotLo+b)
		}
	}
	return hot
}

// cWorker is one traffic goroutine's private state: a disjoint block slice
// and its shadow driver.
type cWorker struct {
	shadow
	cfg    ConcurrentConfig
	l      layout
	lo, hi uint64    // owned blocks [lo, hi), counted outside the hot set
	span   [2]uint64 // pre-filled stripe [lo, hi) of blocks for span reads

	spanReads, spanBlocks uint64
	err                   error
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
	l := layout{s.ShardBytes() / core.BlockBytes}
	workers := partitionWorkers(cfg, s, l)
	// The striker's shadow driver holds the hot set, which it alone writes.
	hot := newShadow(s, rand.New(rand.NewSource(cfg.Seed^0x484F54)))
	for _, blk := range l.hot(cfg.Shards) {
		if err := hot.write(blk); err != nil {
			return nil, fmt.Errorf("campaign: hot-set prefill blk %d: %w", blk, err)
		}
	}

	rep := &ConcurrentReport{
		Scheme:    ecfg.Scheme.String(),
		Placement: ecfg.Placement.String(),
		Codec:     ecfg.CodecName(),
		Shards:    cfg.Shards,
		Workers:   cfg.Workers,
		Seed:      cfg.Seed,
		Outcomes:  make(map[string]uint64),
	}

	// The traffic window: the workers run their operations, the striker its
	// strikes, and the readers read until the striker is done.
	var traffic sync.WaitGroup
	var struckAll atomic.Bool
	readers := make([][numOutcomes]uint64, cfg.Workers)
	for g := range readers {
		traffic.Add(1)
		go func() {
			defer traffic.Done()
			rng := rand.New(rand.NewSource(cfg.Seed ^ int64(cfg.Workers+g+1)*0x5851F42D4C957F2D))
			var dst [core.BlockBytes]byte
			for op := 0; op < cfg.OpsPerWorker || !struckAll.Load(); op++ {
				blk := hot.written[rng.Intn(len(hot.written))]
				info, err := s.Read(blk*core.BlockBytes, dst[:])
				want := hot.oracle[blk]
				readers[g][grade(err, dst[:], want[:], core.RecoverInfo{ReadInfo: info})]++
			}
		}()
	}
	for _, w := range workers {
		traffic.Add(1)
		go func() {
			defer traffic.Done()
			w.run()
		}()
	}
	strikeErr := strike(cfg, &hot)
	struckAll.Store(true)
	traffic.Wait()
	if strikeErr != nil {
		return nil, strikeErr
	}
	st := s.Stats()

	tally := func(outcomes [numOutcomes]uint64) (reads uint64) {
		for o, n := range outcomes {
			if n > 0 {
				rep.Outcomes[Outcome(o).String()] += n
			}
			reads += n
		}
		rep.SilentEscapes += outcomes[Silent]
		return reads
	}
	for _, w := range workers {
		if w.err != nil {
			return nil, fmt.Errorf("campaign: concurrent worker [%d,%d): %w", w.lo, w.hi, w.err)
		}
		rep.Ops += uint64(cfg.OpsPerWorker) // the worker ran its whole loop
		rep.SpanReads += w.spanReads
		rep.FaultEvents += w.faultEvents
		rep.BitsFlipped += w.bitsFlipped
		rep.BlocksRead += w.reads + w.spanBlocks
		tally(w.outcomes)
	}
	for _, r := range readers {
		rep.HotReads += tally(r)
	}
	rep.Strikes = hot.faultEvents
	rep.FaultEvents += hot.faultEvents
	rep.BitsFlipped += hot.bitsFlipped
	rep.BlocksRead += rep.HotReads + tally(hot.outcomes)
	rep.LockFreeHits = st.LockFreeHits
	rep.SeqlockRetries = st.SeqlockRetries
	rep.SlowPathReads = st.SlowPathReads
	rep.RetriedReads = st.RetriedReads
	rep.RetryRecoveries = st.RetryRecoveries
	rep.MetadataRepairs = st.MetadataRepairs
	rep.Quarantined = st.Quarantined

	rep.LiveSweep = sweep(s.ReadRecover, hot.written, hot.oracle).String()
	rep.ResumeSweep = resumeSweep(ecfg, cfg.Shards, s, workers, &hot).String()
	return rep, nil
}

// partitionWorkers splits the blocks outside the hot set into group-aligned
// disjoint slices, one per worker, and places each worker's span stripe
// across a shard boundary when its slice holds one, else on its first group.
func partitionWorkers(cfg ConcurrentConfig, s *core.ShardedEngine, l layout) []*cWorker {
	free := uint64(cfg.Shards) * (l.shardBlocks - hotBlocks)
	per := free / uint64(cfg.Workers) / ctr.GroupBlocks * ctr.GroupBlocks
	workers := make([]*cWorker, cfg.Workers)
	for i := range workers {
		lo := uint64(i) * per
		hi := lo + per
		if i == cfg.Workers-1 {
			hi = free
		}
		w := &cWorker{
			shadow: newShadow(s, rand.New(rand.NewSource(cfg.Seed^int64(i+1)*0x5851F42D4C957F2D))),
			cfg:    cfg,
			l:      l,
			lo:     lo,
			hi:     hi,
		}
		// A shard's first and last groups are never hot, so two groups
		// centred on a boundary inside the slice are all the worker's.
		first, last := l.block(lo), l.block(hi-1)+1
		w.span = [2]uint64{first, first + ctr.GroupBlocks}
		for b := (first/l.shardBlocks + 1) * l.shardBlocks; b < last; b += l.shardBlocks {
			if b >= first+ctr.GroupBlocks && b+ctr.GroupBlocks <= last {
				w.span = [2]uint64{b - ctr.GroupBlocks, b + ctr.GroupBlocks}
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
	// legal.
	for blk := w.span[0]; blk < w.span[1]; blk++ {
		if w.err = w.write(blk); w.err != nil {
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
			blk := w.l.block(w.lo + uint64(w.rng.Int63n(int64(w.hi-w.lo))))
			if w.err = w.write(blk); w.err != nil {
				return
			}
		default:
			w.read(w.pick())
		}
	}
	// Drain: flush out any outstanding fault no mid-run read touched.
	for _, blk := range w.written {
		w.read(blk)
	}
}

// doSpanRead reads a random sub-span of the worker's pre-filled stripe
// through the fan-out path and checks every byte against the oracle.
func (w *cWorker) doSpanRead() error {
	n := w.span[1] - w.span[0]
	start := w.span[0] + uint64(w.rng.Int63n(int64(n)))
	count := 1 + uint64(w.rng.Int63n(int64(w.span[1]-start)))
	buf := make([]byte, count*core.BlockBytes)
	want := make([]byte, 0, len(buf))
	for blk := start; blk < start+count; blk++ {
		img := w.oracle[blk]
		want = append(want, img[:]...)
	}
	w.spanReads++
	w.spanBlocks += count
	o := grade(w.s.ReadBlocks(start*core.BlockBytes, buf), buf, want, core.RecoverInfo{})
	w.outcomes[o]++
	if o != Halted {
		return nil
	}
	// The span path has no recovery ladder: any fault inside is a loud
	// halt. Rewrite the whole stripe from the oracle.
	for blk := w.span[0]; blk < w.span[1]; blk++ {
		img := w.oracle[blk]
		if werr := w.s.Write(blk*core.BlockBytes, img[:]); werr != nil {
			return fmt.Errorf("stripe resync blk %d: %w", blk, werr)
		}
	}
	return nil
}

// injectFault applies one persistent fault event to an own written block,
// under the owning shard's lock (the raw operations take it).
func (w *cWorker) injectFault() {
	if len(w.written) == 0 {
		return
	}
	blk := w.pick()
	flips := 1 + w.rng.Intn(w.cfg.BurstMax)
	w.strike(blk, Plane(w.rng.Intn(4)), flips)
}

// strike is the striker: one strike per 20 worker operations, each a fault
// on Plane(i%4) of a hot block, a recovery read through the ladder and a
// restore of the oracle bytes, through st, the hot set's shadow driver.
func strike(cfg ConcurrentConfig, st *shadow) error {
	st.rng = rand.New(rand.NewSource(cfg.Seed ^ 0x53545249))
	for i := range max(1, cfg.Workers*cfg.OpsPerWorker/20) {
		blk := st.pick()
		st.strike(blk, Plane(i%4), 1+st.rng.Intn(cfg.BurstMax))
		if st.read(blk) == Halted {
			continue // the read's resync restored the block
		}
		want := st.oracle[blk]
		if err := st.s.Write(blk*core.BlockBytes, want[:]); err != nil {
			return fmt.Errorf("campaign: strike restore blk %d: %w", blk, err)
		}
	}
	return nil
}

// resumeSweep persists the sharded engine through the v2 image format,
// resumes it with the pinned combined root, and grades every oracle block
// on the resumed engine.
func resumeSweep(ecfg core.Config, shards int, s *core.ShardedEngine, workers []*cWorker, hot *shadow) Outcome {
	var buf bytes.Buffer
	root, err := s.Persist(&buf)
	if err != nil {
		return Halted
	}
	r, _, err := core.ResumeShardedIncremental(ecfg, shards, bytes.NewReader(buf.Bytes()), nil, &root)
	if err != nil {
		return Halted
	}
	worst := sweep(r.ReadRecover, hot.written, hot.oracle)
	for _, w := range workers {
		worst = max(worst, sweep(r.ReadRecover, w.written, w.oracle))
	}
	return worst
}

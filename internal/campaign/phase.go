package campaign

import (
	"bytes"
	"fmt"
	"math/rand"

	"authmem/internal/core"
	"authmem/internal/workload"
)

// phaseRun executes one plane's campaign phase on a one-shard region. Each
// phase gets a fresh region and a fresh oracle so every outcome is
// attributable to exactly one plane. A one-shard region is bit-compatible
// with a lone engine: the master key passes through, its image is a bare v1
// image and its combined root is the shard's root.
type phaseRun struct {
	shadow
	cfg   Config
	ecfg  core.Config
	plane Plane

	gen *workload.WritebackGen

	// ledger holds outstanding ciphertext and ECC-plane flips per block, so
	// the retry hook can model a transient fault clearing on re-read by
	// un-flipping it. Counter and tree faults are not tracked: they are
	// repaired wholesale from trusted on-chip state, so their bit positions
	// never need reverting.
	ledger map[uint64][]flipRec

	resumeTrials uint64

	// accStats folds in stats from regions retired by persist cycles, so
	// recovery counters survive the swap on resume.
	accStats core.EngineStats
}

// stats returns engine counters accumulated across every region this phase
// has driven (the persist plane retires one at each clean resume).
func (p *phaseRun) stats() core.EngineStats {
	a := p.accStats
	a.Add(p.s.Stats())
	return a
}

func runPhase(cfg Config, ecfg core.Config, plane Plane) (*phaseRun, error) {
	p := &phaseRun{
		shadow: newShadow(nil, rand.New(rand.NewSource(cfg.Seed^int64(plane+1)*0x5851F42D4C957F2D))),
		cfg:    cfg,
		ecfg:   ecfg,
		plane:  plane,
		ledger: make(map[uint64][]flipRec),
	}
	app, _ := workload.ByName(cfg.App)
	p.gen = app.WritebackGen(cfg.Seed ^ int64(plane)<<16)

	s, err := core.NewShardedEngine(ecfg, 1)
	if err != nil {
		return nil, err
	}
	p.attach(s)

	for op := 0; op < cfg.OpsPerPlane; op++ {
		if p.plane != PlanePersist && p.rng.Float64() < cfg.FaultRate {
			p.injectFault()
		}
		if len(p.written) == 0 || p.rng.Float64() < 0.5 {
			if err := p.writeNext(); err != nil {
				return nil, err
			}
		} else {
			p.readBack(p.pick())
		}
		if cfg.ScrubEvery > 0 && p.ecfg.Placement == core.MACInECC && (op+1)%cfg.ScrubEvery == 0 {
			if _, err := p.s.Scrub(); err != nil {
				return nil, err
			}
			p.pinLedger()
		}
		if p.plane == PlanePersist && (op+1)%cfg.PersistEvery == 0 {
			if err := p.persistCycle(); err != nil {
				return nil, err
			}
		}
	}

	// Drain: read back every block ever written. Outstanding faults that
	// no mid-run read happened to touch are flushed out here, so nothing
	// corrupt can hide in unread memory at campaign end.
	for _, blk := range p.written {
		p.readBack(blk)
	}
	return p, nil
}

// attach wires the phase's fault model into a region (fresh or resumed),
// banking the retiring region's counters first. Every engine runs the
// deferred-Merkle write pipeline and both verified caches: the campaign's
// job includes proving that faults landing in the write-to-flush window are
// detected, never laundered into the tree, and that no fault hides behind a
// warm cache line.
func (p *phaseRun) attach(s *core.ShardedEngine) {
	if p.s != nil {
		p.accStats = p.stats()
	}
	p.s = s
	s.WithShard(0, func(eng *core.Engine) { eng.SetRetryHook(p.onRetry) })
}

// onRetry models the memory controller re-reading DRAM: transient flips on
// the failing block clear, persistent ones remain. The hook runs under the
// shard's lock, so it un-flips through the shard's map, which takes none;
// one shard's offsets are the region's.
func (p *phaseRun) onRetry(blk uint64) {
	m, _, _ := p.s.OffChip(0)
	recs := p.ledger[blk]
	kept := recs[:0]
	for _, f := range recs {
		if !f.transient {
			kept = append(kept, f)
			continue
		}
		if err := m.FlipBit(f.phys, f.bit); err != nil { // a flip is its own inverse
			panic(fmt.Sprintf("campaign: un-flip offset %#x bit %d: %v", f.phys, f.bit, err))
		}
	}
	if len(kept) == 0 {
		delete(p.ledger, blk)
	} else {
		p.ledger[blk] = kept
	}
}

// pinLedger marks all outstanding flips persistent. Called after a scrub
// pass: the scrub may already have repaired some of them in place, and
// un-flipping a repaired bit would corrupt good data.
func (p *phaseRun) pinLedger() {
	for _, recs := range p.ledger {
		for i := range recs {
			recs[i].transient = false
		}
	}
}

// injectFault applies one fault event to this phase's plane.
func (p *phaseRun) injectFault() {
	if len(p.written) == 0 {
		return
	}
	plane := p.plane
	if plane == PlaneMixed {
		plane = Plane(p.rng.Intn(int(PlaneTree) + 1))
	}
	blk := p.pick()
	flips := 1 + p.rng.Intn(p.cfg.BurstMax)
	data := plane == PlaneCiphertext || plane == PlaneECC
	transient := data && p.rng.Float64() < p.cfg.TransientFrac
	recs := p.strike(blk, plane, flips)
	if data {
		for _, rec := range recs {
			rec.transient = transient
			p.ledger[blk] = append(p.ledger[blk], rec)
		}
	}
}

// writeNext issues the next workload write to both the region and the
// oracle.
func (p *phaseRun) writeNext() error {
	blk := p.gen.Next() % p.ecfg.DataBlocks()
	if err := p.write(blk); err != nil {
		return err
	}
	// The write overwrote ciphertext and check bits; outstanding flips on
	// this block no longer exist.
	delete(p.ledger, blk)
	// Dirty-leaf strike (mixed plane): the write just staged this block's
	// counter image, and its tree leaf is dirty until the next flush. Hit
	// the staged image *inside* that window — the one state the integrity
	// tree does not yet cover — so the campaign proves deferred maintenance
	// detects write-to-flush faults instead of laundering them on flush.
	if p.plane != PlaneMixed {
		return nil
	}
	dirty := 0
	p.s.WithShard(0, func(eng *core.Engine) { dirty = eng.DirtyLeaves() })
	if dirty > 0 && p.rng.Float64() < p.cfg.FaultRate {
		p.strike(blk, PlaneCounter, 1)
	}
	return nil
}

// readBack reads blk through the shadow driver. The read consumed,
// corrected or missed the block's outstanding flips, or the resync
// overwrote them; the ledger must not revert them later against a
// now-healthy block.
func (p *phaseRun) readBack(blk uint64) {
	p.read(blk)
	delete(p.ledger, blk)
}

// persistCycle drives the persist plane: snapshot the region, attack
// corrupted copies of the image through ResumeSharded, and continue the run
// from a clean resume — proving the campaign's state survives the round
// trip.
func (p *phaseRun) persistCycle() error {
	var buf bytes.Buffer
	root, err := p.s.Persist(&buf)
	if err != nil {
		return err
	}
	img := buf.Bytes()

	for t := 0; t < p.cfg.ResumeTrials; t++ {
		p.resumeTrials++
		p.faultEvents++
		corrupt := make([]byte, len(img))
		copy(corrupt, img)
		if p.rng.Float64() < 0.25 {
			// Truncation: a torn write to the persistent medium.
			corrupt = corrupt[:p.rng.Intn(len(corrupt))]
		} else {
			flips := 1 + p.rng.Intn(p.cfg.BurstMax)
			for i := 0; i < flips; i++ {
				bit := p.rng.Intn(len(corrupt) * 8)
				corrupt[bit/8] ^= 1 << uint(bit%8)
				p.bitsFlipped++
			}
		}
		s2, err := core.ResumeSharded(p.ecfg, 1, bytes.NewReader(corrupt), &root)
		if err != nil {
			p.outcomes[Halted]++ // corruption caught at resume time
			continue
		}
		// Resume accepted the image: corruption must have landed in the
		// data section, whose verification is deferred to read time.
		// Sweep every oracle block and classify the trial by its worst
		// per-block outcome.
		p.outcomes[sweep(s2.ReadRecover, p.written, p.oracle)]++
	}

	// Clean resume with the pinned root must always work; the run
	// continues on the resumed region so later faults hit restored state.
	s2, err := core.ResumeSharded(p.ecfg, 1, bytes.NewReader(img), &root)
	if err != nil {
		return fmt.Errorf("clean resume failed: %w", err)
	}
	p.attach(s2)
	return nil
}

// report flattens the phase counters into the serializable form. Every
// loop step is one operation, and the drain reads each written block once.
func (p *phaseRun) report() PlaneReport {
	pr := PlaneReport{
		Plane:        p.plane.String(),
		Ops:          uint64(p.cfg.OpsPerPlane + len(p.written)),
		FaultEvents:  p.faultEvents,
		BitsFlipped:  p.bitsFlipped,
		Outcomes:     make(map[string]uint64),
		Quarantines:  p.stats().Quarantined,
		ResumeTrials: p.resumeTrials,
	}
	for _, o := range Outcomes() {
		if n := p.outcomes[o]; n > 0 {
			pr.Outcomes[o.String()] = n
		}
	}
	return pr
}

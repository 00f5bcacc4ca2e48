package campaign

import (
	"bytes"
	"fmt"
	"math/rand"

	"authmem/internal/core"
	"authmem/internal/tree"
	"authmem/internal/workload"
)

// flipRec is one applied data-plane bit flip, remembered so the retry hook
// can model a transient fault clearing on re-read by un-flipping it.
// Counter and tree faults are not tracked: they are repaired wholesale from
// trusted on-chip state, so their bit positions never need reverting.
type flipRec struct {
	plane     core.Plane // PlaneData, PlaneLane or PlaneCheck
	bit       int
	transient bool
}

// phaseRun executes one plane's campaign phase. Each phase gets a fresh
// engine and a fresh oracle so every outcome is attributable to exactly one
// plane.
type phaseRun struct {
	cfg   Config
	ecfg  core.Config
	plane Plane
	rng   *rand.Rand

	eng          *core.Engine
	oracle       map[uint64][core.BlockBytes]byte
	written      []uint64 // distinct written blocks, insertion order
	writtenSet   map[uint64]struct{}
	gen          *workload.WritebackGen
	regionBlocks uint64

	// ledger holds outstanding data-plane flips per block.
	ledger map[uint64][]flipRec

	ops          uint64
	faultEvents  uint64
	bitsFlipped  uint64
	outcomes     [numOutcomes]uint64
	resumeTrials uint64

	// accStats folds in stats from engines retired by persist cycles, so
	// recovery counters survive the engine swap on resume.
	accStats core.EngineStats
}

// stats returns engine counters accumulated across every engine this phase
// has driven (the persist plane retires engines at each clean resume).
func (p *phaseRun) stats() core.EngineStats {
	a := p.accStats
	a.Add(p.eng.Stats())
	return a
}

func runPhase(cfg Config, ecfg core.Config, plane Plane) (*phaseRun, error) {
	p := &phaseRun{
		cfg:          cfg,
		ecfg:         ecfg,
		plane:        plane,
		rng:          rand.New(rand.NewSource(cfg.Seed ^ int64(plane+1)*0x5851F42D4C957F2D)),
		oracle:       make(map[uint64][core.BlockBytes]byte),
		writtenSet:   make(map[uint64]struct{}),
		ledger:       make(map[uint64][]flipRec),
		regionBlocks: ecfg.DataBlocks(),
	}
	app, _ := workload.ByName(cfg.App)
	p.gen = app.WritebackGen(cfg.Seed ^ int64(plane)<<16)

	eng, err := core.NewEngine(ecfg)
	if err != nil {
		return nil, err
	}
	p.attach(eng)

	for op := 0; op < cfg.OpsPerPlane; op++ {
		if p.plane != PlanePersist && p.rng.Float64() < cfg.FaultRate {
			p.injectFault()
		}
		if len(p.written) == 0 || p.rng.Float64() < 0.5 {
			if err := p.doWrite(); err != nil {
				return nil, err
			}
		} else {
			p.doRead(p.written[p.rng.Intn(len(p.written))])
		}
		if cfg.ScrubEvery > 0 && p.ecfg.Placement == core.MACInECC && (op+1)%cfg.ScrubEvery == 0 {
			if _, err := p.eng.Scrub(); err != nil {
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
		p.doRead(blk)
	}
	return p, nil
}

// attach wires the phase's fault model into an engine (fresh or resumed),
// banking the retiring engine's counters first. Every engine runs the
// deferred-Merkle write pipeline and both verified caches: the campaign's
// job includes proving that faults landing in the write-to-flush window are
// detected, never laundered into the tree, and that no fault hides behind a
// warm cache line.
func (p *phaseRun) attach(eng *core.Engine) {
	if p.eng != nil {
		p.accStats = p.stats()
	}
	p.eng = eng
	eng.SetRetryHook(p.onRetry)
}

// onRetry models the memory controller re-reading DRAM: transient flips on
// the failing block clear, persistent ones remain.
func (p *phaseRun) onRetry(blk uint64) {
	recs := p.ledger[blk]
	kept := recs[:0]
	for _, f := range recs {
		if !f.transient {
			kept = append(kept, f)
			continue
		}
		p.flip(f.plane, blk, f.bit) // a flip is its own inverse
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
	for blk, recs := range p.ledger {
		for i := range recs {
			recs[i].transient = false
		}
		p.ledger[blk] = recs
	}
}

// flip flips one bit of element i of an off-chip plane through the engine's
// map. Targets are always resident written blocks, their counter images or
// nodes on their tree paths; failure is a campaign bug, not a fault outcome.
func (p *phaseRun) flip(plane core.Plane, i uint64, bit int) {
	off := p.eng.OffChip()
	phys, err := off.Locate(plane, i)
	if err == nil {
		err = off.FlipBit(phys, bit)
	}
	if err != nil {
		panic(fmt.Sprintf("campaign: flip %s element %d bit %d: %v", plane, i, bit, err))
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
	blk := p.written[p.rng.Intn(len(p.written))]
	flips := 1 + p.rng.Intn(p.cfg.BurstMax)
	p.faultEvents++

	switch plane {
	case PlaneCiphertext, PlaneECC:
		bits := core.BlockBytes * 8 // ciphertext bits
		if plane == PlaneECC {
			// The lane's 64 bits (ECC lane under MACInECC, inline tag
			// otherwise), then the inline codec's check bytes.
			bits = 64 + 8*int(p.eng.OffChip().PlaneSize(core.PlaneCheck)/p.regionBlocks)
		}
		transient := p.rng.Float64() < p.cfg.TransientFrac
		for i := 0; i < flips; i++ {
			rec := flipRec{plane: core.PlaneData, bit: p.rng.Intn(bits), transient: transient}
			switch {
			case plane == PlaneCiphertext:
			case rec.bit < 64:
				rec.plane = core.PlaneLane
			default:
				rec.plane, rec.bit = core.PlaneCheck, rec.bit-64
			}
			p.flip(rec.plane, blk, rec.bit)
			p.ledger[blk] = append(p.ledger[blk], rec)
			p.bitsFlipped++
		}
	case PlaneCounter:
		midx := p.eng.MetadataIndex(blk * core.BlockBytes)
		for i := 0; i < flips; i++ {
			p.flip(core.PlaneCounter, midx, p.rng.Intn(core.BlockBytes*8))
			p.bitsFlipped++
		}
	case PlaneTree:
		flat, ok := pathNode(p.eng, blk*core.BlockBytes, p.rng)
		if !ok {
			return // tree fits on chip: no attacker-reachable nodes
		}
		for i := 0; i < flips; i++ {
			p.flip(core.PlaneTree, flat, p.rng.Intn(tree.NodeBytes*8))
			p.bitsFlipped++
		}
	}
}

// pathNode draws a level of eng's off-chip tree and returns the dense index
// of the node at that level on the path of the counter block covering the
// address addr; ok is false when the whole tree fits on chip.
func pathNode(eng *core.Engine, addr uint64, rng *rand.Rand) (flat uint64, ok bool) {
	tr := eng.Tree()
	off := tr.OffChipLevels()
	if off == 0 {
		return 0, false
	}
	index := eng.MetadataIndex(addr) // the counter block's tree leaf
	level := rng.Intn(off)
	for k := 0; k <= level; k++ {
		index /= tree.Arity
	}
	return tr.FlatIndex(tree.NodeID{Level: level, Index: index}), true
}

// doWrite issues the next workload write to both the engine and the oracle.
func (p *phaseRun) doWrite() error {
	blk := p.gen.Next() % p.regionBlocks
	var data [core.BlockBytes]byte
	p.rng.Read(data[:])

	p.ops++
	if err := p.eng.Write(blk*core.BlockBytes, data[:]); err != nil {
		return err
	}
	p.oracle[blk] = data
	// The write overwrote ciphertext and check bits; outstanding flips on
	// this block no longer exist.
	delete(p.ledger, blk)
	if _, ok := p.writtenSet[blk]; !ok {
		p.writtenSet[blk] = struct{}{}
		p.written = append(p.written, blk)
	}
	// Dirty-leaf strike (mixed plane): the write just staged this block's
	// counter image, and its tree leaf is dirty until the next flush. Hit
	// the staged image *inside* that window — the one state the integrity
	// tree does not yet cover — so the campaign proves deferred maintenance
	// detects write-to-flush faults instead of laundering them on flush.
	if p.plane == PlaneMixed && p.eng.DirtyLeaves() > 0 && p.rng.Float64() < p.cfg.FaultRate {
		p.flip(core.PlaneCounter, p.eng.MetadataIndex(blk*core.BlockBytes), p.rng.Intn(core.BlockBytes*8))
		p.faultEvents++
		p.bitsFlipped++
	}
	return nil
}

// doRead reads blk through the recovery path, classifies the outcome
// against the oracle, and — after a loud failure — rewrites the block from
// the oracle, as software would after a machine-check on a poisoned line.
func (p *phaseRun) doRead(blk uint64) {
	var dst [core.BlockBytes]byte
	p.ops++
	ri, err := p.eng.ReadRecover(blk*core.BlockBytes, dst[:])
	want := p.oracle[blk]

	if err != nil {
		p.outcomes[Halted]++
		// Resync engine and oracle so later operations (and the drain
		// pass) check this block's fresh contents, not lost ones.
		if werr := p.eng.Write(blk*core.BlockBytes, want[:]); werr != nil {
			panic(fmt.Sprintf("campaign: resync write blk %d: %v", blk, werr))
		}
		delete(p.ledger, blk)
		return
	}
	// Successful reads may have silently consumed (corrected) or simply
	// missed outstanding flips; either way the ledger must not revert
	// them later against a now-healthy block.
	delete(p.ledger, blk)

	if dst != want {
		p.outcomes[Silent]++ // the one unacceptable outcome
		return
	}
	switch {
	case ri.MetadataRepaired || ri.RetryRecovered:
		p.outcomes[Recovered]++
	case ri.CorrectedDataBits > 0 || ri.CorrectedMACBits > 0:
		p.outcomes[Corrected]++
	default:
		p.outcomes[Clean]++
	}
}

// persistCycle drives the persist plane: snapshot the engine, attack
// corrupted copies of the image through Resume, and continue the run from a
// clean resume — proving the campaign's state survives the round trip.
func (p *phaseRun) persistCycle() error {
	var buf bytes.Buffer
	root, err := p.eng.Persist(&buf)
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
		e2, err := core.Resume(p.ecfg, bytes.NewReader(corrupt), &root)
		if err != nil {
			p.outcomes[Halted]++ // corruption caught at resume time
			continue
		}
		// Resume accepted the image: corruption must have landed in the
		// data section, whose verification is deferred to read time.
		// Sweep every oracle block and classify the trial by its worst
		// per-block outcome.
		p.outcomes[p.sweepResumed(e2)]++
	}

	// Clean resume with the pinned root must always work; the run
	// continues on the resumed engine so later faults hit restored state.
	e2, err := core.Resume(p.ecfg, bytes.NewReader(img), &root)
	if err != nil {
		return fmt.Errorf("clean resume failed: %w", err)
	}
	p.attach(e2)
	return nil
}

// sweepResumed reads every oracle block from a resumed engine and returns
// the worst outcome observed: Silent > Halted > Corrected/Recovered > Clean.
func (p *phaseRun) sweepResumed(e2 *core.Engine) Outcome {
	worst := Clean
	var dst [core.BlockBytes]byte
	for _, blk := range p.written {
		ri, err := e2.ReadRecover(blk*core.BlockBytes, dst[:])
		want := p.oracle[blk]
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
	return worst
}

// report flattens the phase counters into the serializable form.
func (p *phaseRun) report() PlaneReport {
	pr := PlaneReport{
		Plane:        p.plane.String(),
		Ops:          p.ops,
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

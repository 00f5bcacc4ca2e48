// Package campaign runs whole-engine fault-injection campaigns: randomized
// workloads execute against a full core.Engine while faults are injected
// into every attacker-reachable storage plane, and every read is checked
// against a differential shadow oracle — a plain map of plaintext memory
// that receives the same write stream through a path with no cryptography
// to get wrong.
//
// Where internal/fault (Figure 3) injects faults into a single isolated
// block and asks "does the code correct this pattern?", a campaign asks the
// end-to-end question: across thousands of operations, with faults landing
// in ciphertext, ECC/MAC storage, counter blocks, tree nodes, and persisted
// images, does the engine ever *return wrong data as if it were right*?
// Silent corruption — engine output disagreeing with the oracle on a read
// that reported success — is the one outcome no run may contain.
//
// Outcome taxonomy (per read, and per resume trial):
//
//	Clean      — read succeeded, matched the oracle, no repair involved.
//	Corrected  — read succeeded via in-line correction (MAC flip-and-check
//	             or SEC-DED) and matched the oracle.
//	Recovered  — read succeeded via the engine's recovery path (metadata
//	             repair from trusted state, or a retry re-read clearing a
//	             transient fault) and matched the oracle.
//	Halted     — read (or resume) failed loudly: data is lost but the
//	             engine said so. The workload rewrites the block from the
//	             oracle and continues, as real software would after a
//	             machine check.
//	Silent     — read reported success but returned bytes that differ from
//	             the oracle. Automatic campaign failure.
package campaign

import (
	"bytes"
	"fmt"

	"authmem/internal/core"
	"authmem/internal/workload"
)

// Plane names an attacker-reachable storage plane.
type Plane int

const (
	// PlaneCiphertext targets stored ciphertext bits.
	PlaneCiphertext Plane = iota
	// PlaneECC targets MAC/check storage: the ECC lane under MACInECC,
	// the inline tag under MACInline.
	PlaneECC
	// PlaneCounter targets counter-block images in DRAM.
	PlaneCounter
	// PlaneTree targets off-chip integrity-tree nodes.
	PlaneTree
	// PlanePersist targets persisted engine images reloaded mid-run.
	PlanePersist
	// PlaneMixed draws each fault's plane at random from the first four.
	PlaneMixed
	numPlanes
)

// Planes lists every campaign plane in report order.
func Planes() []Plane {
	return []Plane{PlaneCiphertext, PlaneECC, PlaneCounter, PlaneTree, PlanePersist, PlaneMixed}
}

// String names the plane.
func (p Plane) String() string {
	switch p {
	case PlaneCiphertext:
		return "ciphertext"
	case PlaneECC:
		return "ecc"
	case PlaneCounter:
		return "counter"
	case PlaneTree:
		return "tree"
	case PlanePersist:
		return "persist"
	case PlaneMixed:
		return "mixed"
	default:
		return fmt.Sprintf("Plane(%d)", int(p))
	}
}

// Outcome classifies one observed read or resume trial.
type Outcome int

const (
	// Clean: success, oracle match, no repair.
	Clean Outcome = iota
	// Corrected: success via in-line correction.
	Corrected
	// Recovered: success via the recovery path (repair or retry).
	Recovered
	// Halted: loud failure; data lost but reported.
	Halted
	// Silent: success reported with wrong data. Campaign failure.
	Silent
	numOutcomes
)

// grade classifies one read of want's bytes: an error is Halted, wrong bytes
// Silent, a metadata repair or retry Recovered, an in-line correction
// Corrected, anything else Clean.
func grade(err error, got, want []byte, ri core.RecoverInfo) Outcome {
	switch {
	case err != nil:
		return Halted
	case !bytes.Equal(got, want):
		return Silent
	case ri.MetadataRepaired || ri.RetryRecovered:
		return Recovered
	case ri.CorrectedDataBits > 0 || ri.CorrectedMACBits > 0:
		return Corrected
	}
	return Clean
}

// sweep reads blocks in order through read and returns the worst grade
// against the oracle.
func sweep(read func(addr uint64, dst []byte) (core.RecoverInfo, error), blocks []uint64,
	oracle map[uint64][core.BlockBytes]byte) Outcome {
	worst := Clean
	var dst [core.BlockBytes]byte
	for _, blk := range blocks {
		ri, err := read(blk*core.BlockBytes, dst[:])
		want := oracle[blk]
		worst = max(worst, grade(err, dst[:], want[:], ri))
	}
	return worst
}

// Outcomes lists the classes in report order.
func Outcomes() []Outcome { return []Outcome{Clean, Corrected, Recovered, Halted, Silent} }

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Clean:
		return "clean"
	case Corrected:
		return "corrected"
	case Recovered:
		return "recovered"
	case Halted:
		return "halted"
	case Silent:
		return "silent"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Config parameterizes one campaign.
type Config struct {
	// Engine is the design point under test.
	Engine core.Config
	// Seed makes the whole campaign deterministic: same seed, same
	// config, same report.
	Seed int64
	// OpsPerPlane is the number of memory operations each plane phase
	// executes.
	OpsPerPlane int
	// FaultRate is the per-operation probability of injecting one fault
	// event before the operation.
	FaultRate float64
	// BurstMax bounds the flips per fault event (uniform 1..BurstMax), so
	// a campaign mixes within-budget and beyond-budget faults.
	BurstMax int
	// TransientFrac is the fraction of ciphertext/ECC fault events that
	// clear on a controller re-read (the retry path's prey). Counter and
	// tree faults are always persistent: they are repaired from trusted
	// state, so transience is irrelevant to them.
	TransientFrac float64
	// App names the workload generator (see internal/workload); its
	// writeback stream, folded into the region, drives write traffic.
	App string
	// ScrubEvery inserts a patrol-scrub pass every N operations under
	// MACInECC (0 disables).
	ScrubEvery int
	// PersistEvery is the persist-plane cycle length: every N operations
	// the engine is persisted, corrupt-image resume trials run, and the
	// run continues from a clean resume.
	PersistEvery int
	// ResumeTrials is the number of corrupt-image resume attempts per
	// persist cycle.
	ResumeTrials int
}

// Default returns a campaign configuration sized so that all six phases
// together execute ops memory operations.
func Default(engine core.Config, ops int, seed int64) Config {
	per := ops / len(Planes())
	if per < 1 {
		per = 1
	}
	return Config{
		Engine:        engine,
		Seed:          seed,
		OpsPerPlane:   per,
		FaultRate:     0.15,
		BurstMax:      4,
		TransientFrac: 0.3,
		App:           "facesim",
		ScrubEvery:    500,
		PersistEvery:  per/3 + 1,
		ResumeTrials:  3,
	}
}

// Validate checks campaign parameters.
func (c Config) Validate() error {
	switch {
	case c.OpsPerPlane <= 0:
		return fmt.Errorf("campaign: OpsPerPlane must be positive")
	case c.FaultRate < 0 || c.FaultRate > 1:
		return fmt.Errorf("campaign: FaultRate %v out of [0,1]", c.FaultRate)
	case c.BurstMax < 1:
		return fmt.Errorf("campaign: BurstMax must be >= 1")
	case c.TransientFrac < 0 || c.TransientFrac > 1:
		return fmt.Errorf("campaign: TransientFrac %v out of [0,1]", c.TransientFrac)
	case c.PersistEvery < 1 || c.ResumeTrials < 0:
		return fmt.Errorf("campaign: persist cycle parameters invalid")
	}
	if _, ok := workload.ByName(c.App); !ok {
		return fmt.Errorf("campaign: unknown workload app %q", c.App)
	}
	return c.Engine.Validate()
}

// PlaneReport is one plane phase's outcome matrix.
type PlaneReport struct {
	Plane       string            `json:"plane"`
	Ops         uint64            `json:"ops"`
	FaultEvents uint64            `json:"fault_events"`
	BitsFlipped uint64            `json:"bits_flipped"`
	Outcomes    map[string]uint64 `json:"outcomes"`
	Quarantines uint64            `json:"quarantines"`
	// ResumeTrials counts corrupt-image resume attempts (persist plane).
	ResumeTrials uint64 `json:"resume_trials,omitempty"`
}

// Report is the campaign result, serialized to JSON by cmd/faultinject.
type Report struct {
	Scheme        string  `json:"scheme"`
	Placement     string  `json:"placement"`
	Codec         string  `json:"codec"`
	CorrectBits   int     `json:"correct_bits"`
	Seed          int64   `json:"seed"`
	App           string  `json:"app"`
	FaultRate     float64 `json:"fault_rate"`
	BurstMax      int     `json:"burst_max"`
	TransientFrac float64 `json:"transient_frac"`

	Ops         uint64 `json:"ops"`
	FaultEvents uint64 `json:"fault_events"`
	BitsFlipped uint64 `json:"bits_flipped"`

	Planes []PlaneReport `json:"planes"`

	// Totals over all planes, keyed by outcome class.
	Totals map[string]uint64 `json:"totals"`
	// SilentEscapes must be zero for the campaign to pass.
	SilentEscapes uint64 `json:"silent_escapes"`

	// PersistCrash is the durability-plane strike phase (base + delta-WAL
	// damage under crash-recovery); nil when the phase did not run. Its
	// silent escapes fail the campaign exactly like live-plane ones.
	PersistCrash *PersistCrashReport `json:"persist_crash,omitempty"`

	// Cluster is the distributed phase (node corruption, rollback, kill,
	// partition, rebalance against the quorum cluster client); nil when
	// the phase did not run. Its silent escapes fail the campaign too.
	Cluster *ClusterReport `json:"cluster,omitempty"`

	// Engine-side recovery counters accumulated across phases.
	RetriedReads    uint64 `json:"retried_reads"`
	RetryRecoveries uint64 `json:"retry_recoveries"`
	MetadataRepairs uint64 `json:"metadata_repairs"`
	Quarantined     uint64 `json:"quarantined"`
	GroupReencrypts uint64 `json:"group_reencrypts"`
	ScrubPasses     uint64 `json:"scrub_passes"`
}

// Passed reports whether the campaign met its safety bar: zero silent
// escapes in the live planes and, when the persist-crash or cluster phases
// ran, zero in those too.
func (r *Report) Passed() bool {
	return r.SilentEscapes == 0 &&
		(r.PersistCrash == nil || r.PersistCrash.Passed()) &&
		(r.Cluster == nil || r.Cluster.Passed())
}

// regionBytes sizes the test region: big enough for several hundred block
// groups (so delta escalation and tree depth are exercised) while keeping a
// 10k-op campaign fast.
const regionBytes = 4 << 20

// Run executes the campaign and returns its report. The only error source
// is configuration; fault outcomes — including silent escapes — are
// reported, not returned, so callers can always persist the report.
func Run(cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ecfg := cfg.Engine
	ecfg.RegionBytes = regionBytes

	rep := &Report{
		Scheme:        ecfg.Scheme.String(),
		Placement:     ecfg.Placement.String(),
		Codec:         ecfg.CodecName(),
		CorrectBits:   ecfg.CorrectBits,
		Seed:          cfg.Seed,
		App:           cfg.App,
		FaultRate:     cfg.FaultRate,
		BurstMax:      cfg.BurstMax,
		TransientFrac: cfg.TransientFrac,
		Totals:        make(map[string]uint64),
	}
	for _, plane := range Planes() {
		pr, err := runPhase(cfg, ecfg, plane)
		if err != nil {
			return nil, fmt.Errorf("campaign: %s phase: %w", plane, err)
		}
		rep.Planes = append(rep.Planes, pr.report())
		rep.Ops += pr.ops
		rep.FaultEvents += pr.faultEvents
		rep.BitsFlipped += pr.bitsFlipped
		for o, n := range pr.outcomes {
			rep.Totals[Outcome(o).String()] += n
		}
		rep.SilentEscapes += pr.outcomes[Silent]
		st := pr.stats()
		rep.RetriedReads += st.RetriedReads
		rep.RetryRecoveries += st.RetryRecoveries
		rep.MetadataRepairs += st.MetadataRepairs
		rep.Quarantined += st.Quarantined
		rep.GroupReencrypts += st.GroupReencrypts
		rep.ScrubPasses += st.ScrubPasses
	}
	return rep, nil
}

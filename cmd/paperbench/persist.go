package main

// -persist: tracked incremental-persistence benchmark (BENCH_persist.json).
//
// The claim under test: AppendDelta is O(dirty groups) while Persist is
// O(region), so checkpointing a lightly-dirty region through the delta log
// should beat a full snapshot by orders of magnitude. The sweep dirties
// 0.1%, 1%, 10%, and 100% of the region's 4KB groups, measures one full
// Persist and one AppendDelta epoch at each point, and reports the time and
// byte ratios. The replay section then drives a 10k-op trace through epoch
// appends and times ResumeIncremental from base+log back to a root-verified
// engine — the recovery cost a daemon restart actually pays.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	"authmem"
	"authmem/internal/stats"
)

// persistPoint is one dirty-fraction measurement in BENCH_persist.json.
type persistPoint struct {
	DirtyFraction float64 `json:"dirty_fraction"`
	DirtyGroups   int     `json:"dirty_groups"`
	FullNs        float64 `json:"full_persist_ns"`
	FullBytes     int64   `json:"full_persist_bytes"`
	DeltaNs       float64 `json:"delta_ns"`
	DeltaBytes    int64   `json:"delta_bytes"`
	SpeedupX      float64 `json:"speedup_x"`
	BytesRatioX   float64 `json:"bytes_ratio_x"`
}

type persistReplay struct {
	Ops          int     `json:"ops"`
	Epochs       int     `json:"epochs"`
	LogBytes     int64   `json:"log_bytes"`
	GroupRecords int     `json:"group_records"`
	ReplayNs     float64 `json:"replay_ns"`
	OpsPerSec    float64 `json:"replayed_ops_per_sec"`
	RootVerified bool    `json:"root_verified"`
}

type persistReport struct {
	Note string `json:"note"`
	benchEnv
	RegionBytes uint64         `json:"region_bytes"`
	GroupBytes  int            `json:"group_bytes"`
	Points      []persistPoint `json:"points"`
	Replay      persistReplay  `json:"replay"`
}

// countWriter measures what a persist path writes without buffering it.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func runPersistBench(outPath string, quick bool) {
	fmt.Println("=== Incremental persistence: AppendDelta vs full Persist ===")
	regionBytes := uint64(64 << 20)
	replayOps := 10_000
	runs := 5
	if quick {
		regionBytes = 8 << 20
		replayOps = 2_000
		runs = 2
	}
	const groupBytes = 64 * authmem.BlockSize // ctr.GroupBlocks
	totalGroups := int(regionBytes) / groupBytes

	cfg := authmem.DefaultConfig(regionBytes)
	cfg.Key = benchKeyMaterial()
	m, err := authmem.New(cfg)
	if err != nil {
		fatal(err)
	}
	m.EnableDeltaTracking()

	// Prefill every group so a full Persist carries a fully-populated
	// region — the O(region) cost the delta path is measured against.
	rng := rand.New(rand.NewSource(42))
	blk := make([]byte, authmem.BlockSize)
	for g := 0; g < totalGroups; g++ {
		rng.Read(blk)
		if err := m.Write(uint64(g)*uint64(groupBytes), blk); err != nil {
			fatal(err)
		}
	}

	rep := persistReport{
		Note: "speedup_x is full-Persist time over one AppendDelta epoch at " +
			"the given dirty fraction, same engine, same run; bytes_ratio_x " +
			"compares image size to delta-epoch log growth. replay drives a " +
			"random write trace through epoch appends and times " +
			"ResumeIncremental (base + log -> root-verified engine).",
		benchEnv:    captureEnv(),
		RegionBytes: regionBytes,
		GroupBytes:  groupBytes,
	}

	// One full-persist measurement serves every point: its cost does not
	// depend on the dirty set. Best of `runs` to shed scheduler noise.
	fullNs, fullBytes := math.MaxFloat64, int64(0)
	for r := 0; r < runs; r++ {
		var cw countWriter
		start := time.Now()
		if _, err := m.Persist(&cw); err != nil {
			fatal(err)
		}
		if ns := float64(time.Since(start).Nanoseconds()); ns < fullNs {
			fullNs = ns
		}
		fullBytes = cw.n
	}

	dirtyAndAppend := func(frac float64) (float64, int64, int) {
		groups := int(float64(totalGroups) * frac)
		if groups < 1 {
			groups = 1
		}
		bestNs, deltaBytes, dirtied := math.MaxFloat64, int64(0), 0
		for r := 0; r < runs; r++ {
			// Drain marks left by earlier runs, then dirty exactly the
			// target groups (one block each — a group is dirty however
			// little of it changed).
			var cw countWriter
			dl, err := m.NewDeltaLog(&cw)
			if err != nil {
				fatal(err)
			}
			if _, err := m.AppendDelta(dl); err != nil {
				fatal(err)
			}
			stride := totalGroups / groups
			for g := 0; g < groups; g++ {
				rng.Read(blk)
				if err := m.Write(uint64(g*stride)*uint64(groupBytes), blk); err != nil {
					fatal(err)
				}
			}
			pre := cw.n
			start := time.Now()
			st, err := m.AppendDelta(dl)
			if err != nil {
				fatal(err)
			}
			if ns := float64(time.Since(start).Nanoseconds()); ns < bestNs {
				bestNs = ns
			}
			deltaBytes = cw.n - pre
			dirtied = st.Groups
		}
		return bestNs, deltaBytes, dirtied
	}

	for _, frac := range []float64{0.001, 0.01, 0.10, 1.0} {
		ns, db, groups := dirtyAndAppend(frac)
		p := persistPoint{
			DirtyFraction: frac,
			DirtyGroups:   groups,
			FullNs:        fullNs,
			FullBytes:     fullBytes,
			DeltaNs:       ns,
			DeltaBytes:    db,
			SpeedupX:      fullNs / ns,
			BytesRatioX:   float64(fullBytes) / float64(db),
		}
		rep.Points = append(rep.Points, p)
		fmt.Printf("  dirty %6.1f%% (%5d groups): full %8.2fms vs delta %8.3fms  (%7.1fx time, %7.1fx bytes)\n",
			frac*100, groups, fullNs/1e6, ns/1e6, p.SpeedupX, p.BytesRatioX)
	}

	rep.Replay = runReplayBench(cfg, replayOps)
	fmt.Printf("  replay: %d ops over %d epochs, %d group records, %.2fms (%.0f ops/s), root verified: %v\n",
		rep.Replay.Ops, rep.Replay.Epochs, rep.Replay.GroupRecords,
		rep.Replay.ReplayNs/1e6, rep.Replay.OpsPerSec, rep.Replay.RootVerified)

	if err := stats.WriteJSON(outPath, rep); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", outPath)
}

// runReplayBench builds a base + multi-epoch delta log from a random write
// trace, then times the verified resume.
func runReplayBench(cfg authmem.Config, ops int) persistReplay {
	// A smaller region keeps the base-resume share modest so the number
	// reflects log replay, which is what scales with the trace.
	cfg.Size = 8 << 20
	m, err := authmem.New(cfg)
	if err != nil {
		fatal(err)
	}
	m.EnableDeltaTracking()

	var base, log bytes.Buffer
	if _, err := m.Persist(&base); err != nil {
		fatal(err)
	}
	dl, err := m.NewDeltaLog(&log)
	if err != nil {
		fatal(err)
	}

	const epochs = 10
	perEpoch := ops / epochs
	rng := rand.New(rand.NewSource(99))
	blk := make([]byte, authmem.BlockSize)
	blocks := cfg.Size / authmem.BlockSize
	groupRecords := 0
	var pin authmem.RootDigest
	for e := 0; e < epochs; e++ {
		for i := 0; i < perEpoch; i++ {
			rng.Read(blk)
			addr := (uint64(rng.Intn(int(blocks)))) * authmem.BlockSize
			if err := m.Write(addr, blk); err != nil {
				fatal(err)
			}
		}
		st, err := m.AppendDelta(dl)
		if err != nil {
			fatal(err)
		}
		groupRecords += st.Groups
		pin = st.Root
	}

	start := time.Now()
	_, rp, err := authmem.ResumeIncremental(cfg, bytes.NewReader(base.Bytes()), bytes.NewReader(log.Bytes()), &pin)
	elapsed := time.Since(start)
	if err != nil {
		fatal(err)
	}
	return persistReplay{
		Ops:          epochs * perEpoch,
		Epochs:       rp.Epochs,
		LogBytes:     int64(log.Len()),
		GroupRecords: groupRecords,
		ReplayNs:     float64(elapsed.Nanoseconds()),
		OpsPerSec:    float64(epochs*perEpoch) / elapsed.Seconds(),
		RootVerified: rp.Status == authmem.RecoveryClean && rp.Root == pin,
	}
}

package campaign

import (
	"testing"

	"authmem/internal/core"
	"authmem/internal/ctr"
)

func runConcurrent(t *testing.T, scheme ctr.Kind, placement core.MACPlacement, ops int, seed int64) *ConcurrentReport {
	t.Helper()
	cfg := DefaultConcurrent(core.Default(scheme, placement), ops, seed)
	rep, err := RunConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestConcurrentNoSilentEscapes is the sharded engine's headline claim:
// under parallel faulted traffic — workers straddling shard boundaries,
// faults landing in all four planes under the shard locks, lock-free readers
// on the very lines the striker faults — no read ever returns wrong data as
// if it were right, no warm line masks a fault, and the faulted state
// survives a sharded persist/resume round trip. Run under -race in CI.
func TestConcurrentNoSilentEscapes(t *testing.T) {
	for _, scheme := range []ctr.Kind{ctr.Monolithic, ctr.Delta} {
		for _, placement := range []core.MACPlacement{core.MACInline, core.MACInECC} {
			t.Run(scheme.String()+"/"+placement.String(), func(t *testing.T) {
				t.Parallel()
				rep := runConcurrent(t, scheme, placement, 2400, 11)
				if !rep.Passed() {
					t.Fatalf("%d silent escapes, live sweep %s, resume sweep %s, %d lock-free hits:\n%+v",
						rep.SilentEscapes, rep.LiveSweep, rep.ResumeSweep, rep.LockFreeHits, rep)
				}
				if rep.FaultEvents == 0 || rep.Strikes == 0 {
					t.Fatalf("%d fault events, %d strikes", rep.FaultEvents, rep.Strikes)
				}
				if rep.SpanReads == 0 {
					t.Fatal("concurrent phase issued no cross-shard span reads")
				}
				if rep.Outcomes[Halted.String()] == 0 && rep.Outcomes[Recovered.String()] == 0 && rep.Outcomes[Corrected.String()] == 0 {
					t.Fatal("faults never bit: all reads were clean")
				}
				if rep.LockFreeHits == 0 || rep.SlowPathReads == 0 {
					t.Fatalf("%d lock-free hits, %d slow-path reads: faults cannot have evicted warm lines",
						rep.LockFreeHits, rep.SlowPathReads)
				}
				if rep.Outcomes[Halted.String()]+rep.Outcomes[Corrected.String()]+rep.MetadataRepairs == 0 {
					t.Fatal("no loud outcome and no repair; faults never landed under traffic")
				}
				// The snapshot is taken when the traffic window closes, so
				// every hit and slow-path read it counts is a block that
				// window read.
				if rep.LockFreeHits+rep.SlowPathReads > rep.BlocksRead {
					t.Fatalf("%d lock-free hits + %d slow-path reads exceed the %d blocks read",
						rep.LockFreeHits, rep.SlowPathReads, rep.BlocksRead)
				}
			})
		}
	}
}

// TestConcurrentWorkersStraddleShards verifies the phase's structural
// premise: with the default 3-workers-over-4-shards layout, worker slices
// cross shard boundaries so span traffic genuinely fans out, and the hot set
// lies in every shard, outside every worker's slice and stripe.
func TestConcurrentWorkersStraddleShards(t *testing.T) {
	cfg := DefaultConcurrent(core.Default(ctr.Delta, core.MACInECC), 300, 1)
	ecfg := cfg.Engine
	ecfg.RegionBytes = regionBytes
	s, err := core.NewShardedEngine(ecfg, cfg.Shards)
	if err != nil {
		t.Fatal(err)
	}
	l := layout{s.ShardBytes() / core.BlockBytes}
	workers := partitionWorkers(cfg, s, l)
	if len(workers) != cfg.Workers {
		t.Fatalf("%d workers, want %d", len(workers), cfg.Workers)
	}
	// owner[blk] is 1 + the index of the worker owning blk, or -1 if hot.
	owner := make([]int, ecfg.DataBlocks())
	hotShards := make(map[int]bool)
	hot := l.hot(cfg.Shards)
	for _, blk := range hot {
		owner[blk] = -1
		hotShards[s.ShardOf(blk*core.BlockBytes)] = true
	}
	if len(hot) != cfg.Shards*hotBlocks || hot[0]%ctr.GroupBlocks != 0 || len(hotShards) != cfg.Shards {
		t.Fatalf("hot set of %d blocks over %d shards, want two whole groups in each of %d", len(hot), len(hotShards), cfg.Shards)
	}
	straddlers := 0
	for i, w := range workers {
		if w.lo%ctr.GroupBlocks != 0 {
			t.Errorf("worker %d range not group-aligned", i)
		}
		if i > 0 && w.lo != workers[i-1].hi {
			t.Errorf("worker %d range not contiguous with predecessor", i)
		}
		for v := w.lo; v < w.hi; v++ {
			blk := l.block(v)
			if owner[blk] != 0 {
				t.Fatalf("block %d owned by worker %d, already %d", blk, i, owner[blk])
			}
			owner[blk] = i + 1
		}
		loShard := s.ShardOf(w.span[0] * core.BlockBytes)
		hiShard := s.ShardOf((w.span[1] - 1) * core.BlockBytes)
		if loShard != hiShard {
			straddlers++
		}
	}
	for blk, o := range owner {
		if o == 0 {
			t.Fatalf("block %d neither hot nor owned", blk)
		}
	}
	for i, w := range workers {
		for blk := w.span[0]; blk < w.span[1]; blk++ {
			if owner[blk] != i+1 {
				t.Fatalf("worker %d stripe block %d belongs to %d", i, blk, owner[blk])
			}
		}
	}
	if straddlers == 0 {
		t.Fatal("no worker span stripe straddles a shard boundary")
	}
}

// TestConcurrentValidate rejects malformed concurrent configs, among them a
// worker count one past what the groups outside the hot set can hold.
func TestConcurrentValidate(t *testing.T) {
	good := DefaultConcurrent(core.Default(ctr.Delta, core.MACInECC), 600, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	full := good
	full.Workers = regionBytes/core.BlockBytes/ctr.GroupBlocks - hotGroups*good.Shards
	if err := full.Validate(); err != nil {
		t.Fatalf("%d workers, one per free group: %v", full.Workers, err)
	}
	bad := []func(*ConcurrentConfig){
		func(c *ConcurrentConfig) { c.Workers = 0 },
		func(c *ConcurrentConfig) { c.Workers = full.Workers + 1 },
		func(c *ConcurrentConfig) { c.OpsPerWorker = 0 },
		func(c *ConcurrentConfig) { c.FaultRate = 2 },
		func(c *ConcurrentConfig) { c.BurstMax = 0 },
		func(c *ConcurrentConfig) { c.Shards = 3 },
		func(c *ConcurrentConfig) { c.Shards = 512 }, // two groups a shard
		func(c *ConcurrentConfig) { c.Engine.CorrectBits = 9 },
	}
	for i, mut := range bad {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestStrikeNoSilentEscapes is the lock-free read path's headline claim,
// on a second seed: while the readers are served warm plaintext with zero
// lock acquisitions, the striker's faults on the very lines being read are
// detected, corrected or repaired — never masked by a stale-but-trusted
// cache line — and the hot set reads back unsilenced on the live engine.
// Run under -race in CI.
func TestStrikeNoSilentEscapes(t *testing.T) {
	for _, scheme := range []ctr.Kind{ctr.Monolithic, ctr.Delta} {
		for _, placement := range []core.MACPlacement{core.MACInline, core.MACInECC} {
			t.Run(scheme.String()+"/"+placement.String(), func(t *testing.T) {
				t.Parallel()
				rep := runConcurrent(t, scheme, placement, 2000, 13)
				if !rep.Passed() {
					t.Fatalf("%d silent escapes, live sweep %s, %d lock-free hits:\n%+v",
						rep.SilentEscapes, rep.LiveSweep, rep.LockFreeHits, rep)
				}
				cfg := DefaultConcurrent(core.Default(scheme, placement), 2000, 13)
				if want := uint64(max(1, cfg.Workers*cfg.OpsPerWorker/20)); rep.Strikes != want {
					t.Fatalf("%d strikes, want one per 20 worker ops: %d", rep.Strikes, want)
				}
				if least := uint64(cfg.Workers * cfg.OpsPerWorker); rep.HotReads < least {
					t.Fatalf("%d hot-set reads, want at least %d from %d readers", rep.HotReads, least, cfg.Workers)
				}
				if rep.Outcomes[Halted.String()]+rep.Outcomes[Corrected.String()]+rep.MetadataRepairs == 0 {
					t.Fatal("no loud outcome observed by any reader and no repair ran; strikes never landed under traffic")
				}
				if rep.SlowPathReads == 0 {
					t.Fatal("no read ever took the locked slow path; faults cannot have evicted warm lines")
				}
			})
		}
	}
}

// TestStrikeValidate pins the checks the hot set and the striker need: a
// reader, a flip per strike, and room in every shard for the hot set beside
// the boundary stripes — 256 shards of 4 groups fit, 512 of 2 do not.
func TestStrikeValidate(t *testing.T) {
	good := DefaultConcurrent(core.Default(ctr.Delta, core.MACInECC), 100, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	tight := good
	tight.Shards = regionBytes / core.BlockBytes / ctr.GroupBlocks / (hotGroups + 2)
	if err := tight.Validate(); err != nil {
		t.Fatalf("%d shards of %d groups: %v", tight.Shards, hotGroups+2, err)
	}
	bad := []func(*ConcurrentConfig){
		func(c *ConcurrentConfig) { c.Workers = 0 },
		func(c *ConcurrentConfig) { c.OpsPerWorker = 0 },
		func(c *ConcurrentConfig) { c.BurstMax = 0 },
		func(c *ConcurrentConfig) { c.Shards = 3 },
		func(c *ConcurrentConfig) { c.Shards = tight.Shards * 2 },
	}
	for i, mut := range bad {
		cfg := good
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

package core

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"

	"authmem/internal/ctr"
)

// hammer drives enough hot writes through e to force at least one group
// re-encryption sweep.
func hammer(t *testing.T, e *Engine, addr uint64, writes int) {
	t.Helper()
	d := block(900)
	for i := 0; i < writes; i++ {
		if err := e.Write(addr, d); err != nil {
			t.Fatal(err)
		}
	}
	if e.SchemeStats().Reencryptions == 0 {
		t.Fatal("hot writes forced no re-encryption")
	}
}

// TestParallelReencryptMatchesSerial drives identical traffic — neighbor
// writes, then a hot block forcing overflow sweeps — through a serial and a
// parallel engine at every grouped design point. The sweeps must leave
// bit-identical persisted state.
func TestParallelReencryptMatchesSerial(t *testing.T) {
	for _, scheme := range []ctr.Kind{ctr.Split, ctr.Delta, ctr.DualLength} {
		for _, placement := range []MACPlacement{MACInline, MACInECC} {
			cfg := smallCfg(scheme, placement)
			serial := newEngine(t, cfg)
			serial.reencWorkers = 0 // the serial sweep is the reference
			par := newEngine(t, cfg)
			for _, e := range []*Engine{serial, par} {
				for i := uint64(1); i < 40; i++ {
					if err := e.Write(i*BlockBytes, block(int64(i))); err != nil {
						t.Fatal(err)
					}
				}
				hammer(t, e, 0, 1500)
			}
			if par.Stats().ParallelReencryptWorkers == 0 {
				t.Fatalf("%s/%s: parallel sweep never dispatched", scheme, placement)
			}
			if serial.Stats().ParallelReencryptWorkers != 0 {
				t.Fatal("serial engine reported parallel workers")
			}
			var a, b bytes.Buffer
			ra, err := serial.Persist(&a)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := par.Persist(&b)
			if err != nil {
				t.Fatal(err)
			}
			if ra != rb || !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("%s/%s: parallel sweep state diverges from serial", scheme, placement)
			}
		}
	}
}

// TestParallelReencryptQuarantines plants an unverifiable block in the
// group, then forces a sweep: the parallel path must refuse to re-seal it
// (no laundering) and quarantine it, exactly like the serial sweep.
func TestParallelReencryptQuarantines(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInline)
	e := newEngine(t, cfg)
	victim := uint64(20) * BlockBytes
	if err := e.Write(victim, block(7)); err != nil {
		t.Fatal(err)
	}
	// A burst beyond any correction budget — clustered in one SECDED word
	// so per-word correction cannot absorb it: the block can never verify.
	for _, bit := range []int{3, 5, 9, 12, 17} {
		if err := e.TamperCiphertext(victim, bit); err != nil {
			t.Fatal(err)
		}
	}
	hammer(t, e, 0, 1500)
	if e.Stats().ParallelReencryptWorkers == 0 {
		t.Fatal("parallel sweep never dispatched")
	}
	if !e.Quarantined(victim) {
		t.Fatal("unverifiable block survived the sweep unquarantined")
	}
	dst := make([]byte, BlockBytes)
	_, err := e.Read(victim, dst)
	var qe *QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("read of quarantined block returned %v, want QuarantineError", err)
	}
	// Software rewrites the block; the quarantine releases.
	if err := e.Write(victim, block(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Read(victim, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, block(8)) {
		t.Fatal("rewritten block corrupted")
	}
}

// TestParallelReencryptMidSpanWrite covers the in-flight-write interaction:
// a WriteBlocks span whose counter touches overflow mid-chunk must leave the
// pending blocks to the incoming data, not the sweep.
func TestParallelReencryptMidSpanWrite(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	e := newEngine(t, cfg)
	// Drive the group's counters near overflow with single writes, then
	// land a span over the whole group so the overflow fires mid-span.
	for i := 0; i < 1500; i++ {
		if err := e.Write(0, block(1)); err != nil {
			t.Fatal(err)
		}
	}
	span := make([]byte, ctr.GroupBlocks*BlockBytes)
	for i := range span {
		span[i] = byte(i * 31)
	}
	if err := e.WriteBlocks(0, span); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(span))
	if err := e.ReadBlocks(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, span) {
		t.Fatal("span data corrupted across a mid-span sweep")
	}
}

// TestReencryptPoolSizing pins the one sizing rule: clamp(GOMAXPROCS, 2, 4)
// workers, each with a private crypto context, and no pool at all under the
// classic data tree (its per-block seal updates shared tree nodes).
func TestReencryptPoolSizing(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	e := newEngine(t, cfg)
	want := min(max(runtime.GOMAXPROCS(0), 2), 4)
	if e.reencWorkers != want || len(e.reencCtx) != want || len(e.reencStats) != want {
		t.Fatalf("pool = %d workers / %d contexts / %d stat banks, want %d",
			e.reencWorkers, len(e.reencCtx), len(e.reencStats), want)
	}
	cfg.DataTree = true
	if dt := newEngine(t, cfg); dt.reencWorkers != 0 || dt.reencCtx != nil {
		t.Fatal("classic data tree must keep the serial sweep")
	}
}

// TestConcurrentShardedReencrypt hammers every shard from its own goroutine
// so overflow sweeps (parallel by default in the sharded engine) run under
// the race detector against concurrent traffic in other shards.
func TestConcurrentShardedReencrypt(t *testing.T) {
	cfg := smallCfg(ctr.Split, MACInECC) // split overflows fastest
	s, err := NewShardedEngine(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	shardBytes := s.ShardBytes()
	var wg sync.WaitGroup
	errs := make([]error, s.Shards())
	for i := 0; i < s.Shards(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			base := uint64(i) * shardBytes
			d := block(int64(i))
			for j := uint64(1); j < 30; j++ {
				if err := s.Write(base+j*BlockBytes, block(int64(i)*100+int64(j))); err != nil {
					errs[i] = err
					return
				}
			}
			for k := 0; k < 400; k++ {
				if err := s.Write(base, d); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d worker: %v", i, err)
		}
	}
	if s.SchemeStats().Reencryptions == 0 {
		t.Fatal("no sweeps under concurrent traffic")
	}
	if s.Stats().ParallelReencryptWorkers == 0 {
		t.Fatal("sharded sweeps should use the parallel pool by default")
	}
	dst := make([]byte, BlockBytes)
	for i := 0; i < s.Shards(); i++ {
		base := uint64(i) * shardBytes
		for j := uint64(1); j < 30; j++ {
			if _, err := s.Read(base+j*BlockBytes, dst); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst, block(int64(i)*100+int64(j))) {
				t.Fatalf("shard %d block %d corrupted by concurrent sweeps", i, j)
			}
		}
	}
}

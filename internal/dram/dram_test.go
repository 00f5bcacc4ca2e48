package dram

import (
	"testing"
)

func mem(t testing.TB) *Memory {
	t.Helper()
	m, err := New(DDR3_1600(4))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	good := DDR3_1600(4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.Banks = -1 },
		func(c *Config) { c.RowBytes = 100 },
		func(c *Config) { c.RowBytes = 32 },
		func(c *Config) { c.CL = 0 },
		func(c *Config) { c.CWL = 0 },
		func(c *Config) { c.TRCD = 0 },
		func(c *Config) { c.TRP = 0 },
		func(c *Config) { c.TRC = 0 },
		func(c *Config) { c.Burst = 0 },
		func(c *Config) { c.CPUCyclesPerDRAMCycle = 0 },
	}
	for i, mut := range mutations {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate config", i)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with zero config should fail")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic")
		}
	}()
	MustNew(Config{})
}

func TestColdReadLatency(t *testing.T) {
	m := mem(t)
	done := m.Access(0, 0, false)
	// Row empty: tRCD + CL + burst, times the clock ratio.
	want := uint64(11+11+4) * 4
	if done != want {
		t.Fatalf("cold read completes at %d, want %d", done, want)
	}
	if m.Stats().RowEmpty != 1 || m.Stats().Reads != 1 {
		t.Fatalf("stats %+v", m.Stats())
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	m := mem(t)
	m.Access(0, 0, false) // opens a row on channel 0

	// Same block again, much later: row hit, only CL + burst.
	t0 := uint64(10000)
	hitDone := m.Access(t0, 0, false)
	hitLat := hitDone - t0

	// Same bank, different row: precharge + activate + CL.
	rowBytes := uint64(m.Config().RowBytes)
	banks := uint64(m.Config().Banks)
	channels := uint64(m.Config().Channels)
	conflictAddr := rowBytes * banks * channels // same channel 0, bank 0, row 1
	if ch, bk, row := m.mapAddr(conflictAddr); ch != 0 || bk != 0 || row != 1 {
		t.Fatalf("address mapping: ch=%d bk=%d row=%d", ch, bk, row)
	}
	t1 := uint64(20000)
	missDone := m.Access(t1, conflictAddr, false)
	missLat := missDone - t1

	if hitLat >= missLat {
		t.Fatalf("row hit (%d) not faster than conflict (%d)", hitLat, missLat)
	}
	wantHit := uint64(11+4) * 4
	if hitLat != wantHit {
		t.Fatalf("row hit latency %d, want %d", hitLat, wantHit)
	}
	if m.Stats().RowHits != 1 || m.Stats().RowMisses != 1 {
		t.Fatalf("stats %+v", m.Stats())
	}
}

func TestChannelInterleaving(t *testing.T) {
	m := mem(t)
	seen := map[int]bool{}
	for blk := uint64(0); blk < 8; blk++ {
		ch, _, _ := m.mapAddr(blk * 64)
		seen[ch] = true
	}
	if len(seen) != 4 {
		t.Fatalf("8 consecutive blocks hit %d channels, want 4", len(seen))
	}
}

func TestParallelChannelsOverlap(t *testing.T) {
	// Two simultaneous requests on different channels should both finish
	// at cold latency; on the same channel+bank they serialize.
	m := mem(t)
	d0 := m.Access(0, 0, false)  // channel 0
	d1 := m.Access(0, 64, false) // channel 1
	if d0 != d1 {
		t.Fatalf("independent channels interfered: %d vs %d", d0, d1)
	}

	m2 := mem(t)
	e0 := m2.Access(0, 0, false)
	e1 := m2.Access(0, 4*64, false) // same channel 0, same row
	if e1 <= e0 {
		t.Fatalf("same-bank back-to-back reads did not serialize: %d then %d", e0, e1)
	}
}

func TestBankConflictRespectsTRC(t *testing.T) {
	m := mem(t)
	cfg := m.Config()
	// Two row conflicts in a row on one bank: the second activate must
	// wait out tRC from the first.
	rowStride := uint64(cfg.RowBytes * cfg.Banks * cfg.Channels)
	m.Access(0, 0, false)
	d1 := m.Access(0, rowStride, false)
	d2 := m.Access(0, 2*rowStride, false)
	if d2-d1 < uint64(cfg.TRC)*uint64(cfg.CPUCyclesPerDRAMCycle)/2 {
		t.Fatalf("activates %d apart look too close for tRC", d2-d1)
	}
	if m.Stats().RowMisses != 2 {
		t.Fatalf("stats %+v", m.Stats())
	}
}

func TestWriteUsesCWL(t *testing.T) {
	m := mem(t)
	done := m.Access(0, 0, true)
	want := uint64(11+8+4) * 4 // tRCD + CWL + burst
	if done != want {
		t.Fatalf("cold write completes at %d, want %d", done, want)
	}
	if m.Stats().Writes != 1 || m.Stats().Reads != 0 {
		t.Fatalf("stats %+v", m.Stats())
	}
}

func TestBusSerializesBursts(t *testing.T) {
	// Many same-cycle row hits on one channel, different banks: each
	// burst occupies the shared data bus, so completions spread out by at
	// least Burst cycles.
	m := mem(t)
	cfg := m.Config()
	// Warm up one row in every bank of channel 0.
	for b := 0; b < cfg.Banks; b++ {
		addr := uint64(b) * uint64(cfg.RowBytes) * uint64(cfg.Channels)
		m.Access(0, addr, false)
	}
	var last uint64
	t0 := uint64(100000)
	for b := 0; b < cfg.Banks; b++ {
		addr := uint64(b) * uint64(cfg.RowBytes) * uint64(cfg.Channels)
		done := m.Access(t0, addr, false)
		if b > 0 && done < last+uint64(cfg.Burst)*uint64(cfg.CPUCyclesPerDRAMCycle) {
			t.Fatalf("bank %d burst overlaps previous: %d after %d", b, done, last)
		}
		last = done
	}
}

func TestStatsAverages(t *testing.T) {
	var s Stats
	if s.AvgReadLatency() != 0 {
		t.Fatal("idle stats should be zero")
	}
	s = Stats{Reads: 2, TotalReadLatency: 200}
	if s.AvgReadLatency() != 100 {
		t.Fatalf("avg latency %v", s.AvgReadLatency())
	}
}

func TestMonotonicCompletionUnderLoad(t *testing.T) {
	// A saturating random stream must never complete before it was issued.
	m := mem(t)
	var now uint64
	for i := 0; i < 20000; i++ {
		addr := uint64(i*97%4096) * 64
		done := m.Access(now, addr, i%4 == 0)
		if done < now {
			t.Fatalf("request issued at %d completed at %d", now, done)
		}
		now += 2
	}
}

func TestEnergyAccounting(t *testing.T) {
	m := mem(t)
	cfg := m.Config()
	// Cold read: one activate + one read burst.
	m.Access(0, 0, false)
	want := cfg.EnergyActivatePJ + cfg.EnergyReadBurstPJ
	if got := m.Stats().EnergyPJ; got != want {
		t.Fatalf("cold read energy %d, want %d", got, want)
	}
	// Row-hit read: just a burst.
	m.Access(1000, 0, false)
	want += cfg.EnergyReadBurstPJ
	if got := m.Stats().EnergyPJ; got != want {
		t.Fatalf("hit read energy %d, want %d", got, want)
	}
	// Row-hit write: a write burst.
	m.Access(2000, 0, true)
	want += cfg.EnergyWriteBurstPJ
	if got := m.Stats().EnergyPJ; got != want {
		t.Fatalf("write energy %d, want %d", got, want)
	}
	// A refresh adds its charge.
	m.Access(uint64(cfg.TREFI)*uint64(cfg.CPUCyclesPerDRAMCycle)+100000, 0, false)
	st := m.Stats()
	if st.Refreshes == 0 {
		t.Fatal("expected a refresh")
	}
	want += st.Refreshes*cfg.EnergyRefreshPJ + cfg.EnergyActivatePJ + cfg.EnergyReadBurstPJ
	if st.EnergyPJ != want {
		t.Fatalf("post-refresh energy %d, want %d", st.EnergyPJ, want)
	}
	if st.EnergyMJ() != float64(want)/1e9 {
		t.Fatal("EnergyMJ conversion wrong")
	}
}

func TestEnergyDisabled(t *testing.T) {
	cfg := DDR3_1600(1)
	cfg.EnergyActivatePJ, cfg.EnergyReadBurstPJ = 0, 0
	cfg.EnergyWriteBurstPJ, cfg.EnergyRefreshPJ = 0, 0
	m := MustNew(cfg)
	m.Access(0, 0, false)
	m.Access(0, 64, true)
	if m.Stats().EnergyPJ != 0 {
		t.Fatal("zeroed constants should disable energy tracking")
	}
}

func TestWriteBufferPostsImmediately(t *testing.T) {
	cfg := DDR3_1600(1)
	cfg.WriteBufferDepth = 8
	m := MustNew(cfg)
	if done := m.Access(1000, 0, true); done != 1000 {
		t.Fatalf("posted write acked at %d, want 1000", done)
	}
	if st := m.Stats(); st.Writes != 1 || st.WriteDrains != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestWriteBufferDrainsBeforeLaterRead(t *testing.T) {
	cfg := DDR3_1600(1)
	cfg.WriteBufferDepth = 8
	m := MustNew(cfg)
	m.Access(0, 0, true) // posted
	// A read far in the future: the write has long drained; the read
	// sees a row hit from the drained write's activate.
	m.Access(20000, 0, false)
	st := m.Stats()
	if st.WriteDrains != 1 {
		t.Fatalf("write not drained: %+v", st)
	}
	if st.RowHits != 1 {
		t.Fatalf("drained write should have opened the row: %+v", st)
	}
}

func TestWriteBufferFullForcesDrain(t *testing.T) {
	cfg := DDR3_1600(1)
	cfg.WriteBufferDepth = 2
	m := MustNew(cfg)
	// Three back-to-back writes at the same cycle: the third must force
	// a drain of the first.
	m.Access(0, 0, true)
	m.Access(0, 64, true)
	m.Access(0, 128, true)
	st := m.Stats()
	if st.WriteDrainsForced != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Writes != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestWriteBufferImprovesReadLatencyUnderWrites(t *testing.T) {
	// Interleaved write bursts + reads: with a write buffer, reads should
	// see lower average latency than with write-through.
	run := func(depth int) float64 {
		cfg := DDR3_1600(1)
		cfg.WriteBufferDepth = depth
		m := MustNew(cfg)
		var now uint64
		for i := 0; i < 3000; i++ {
			// A write burst, then a demand read right behind it.
			for w := 0; w < 4; w++ {
				m.Access(now, uint64(1000+i*4+w)*64, true)
			}
			done := m.Access(now, uint64(i%64)*64, false)
			now = done + 50
		}
		return m.Stats().AvgReadLatency()
	}
	through, buffered := run(0), run(32)
	if buffered >= through {
		t.Fatalf("write buffer did not help reads: buffered %.1f vs through %.1f",
			buffered, through)
	}
}

func TestRefreshValidation(t *testing.T) {
	cfg := DDR3_1600(1)
	cfg.TRFC = cfg.TREFI
	if err := cfg.Validate(); err == nil {
		t.Fatal("tRFC >= tREFI should fail")
	}
	cfg = DDR3_1600(1)
	cfg.TREFI = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative tREFI should fail")
	}
}

func TestRefreshStallsRequests(t *testing.T) {
	m := mem(t)
	cfg := m.Config()
	ratio := uint64(cfg.CPUCyclesPerDRAMCycle)
	// A request landing exactly at the first refresh boundary waits out
	// tRFC before its activate.
	at := uint64(cfg.TREFI) * ratio
	done := m.Access(at, 0, false)
	wantMin := at + uint64(cfg.TRFC)*ratio
	if done < wantMin {
		t.Fatalf("request during refresh completed at %d, want >= %d", done, wantMin)
	}
	st := m.Stats()
	if st.Refreshes != 1 || st.RefreshStallCycles == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestRefreshClosesRows(t *testing.T) {
	m := mem(t)
	cfg := m.Config()
	ratio := uint64(cfg.CPUCyclesPerDRAMCycle)
	m.Access(0, 0, false) // opens a row
	// Well past a refresh: the re-access must be a row-empty activate,
	// not a row hit.
	m.Access(2*uint64(cfg.TREFI)*ratio, 0, false)
	if st := m.Stats(); st.RowHits != 0 || st.RowEmpty != 2 {
		t.Fatalf("refresh did not close rows: %+v", st)
	}
}

func TestRefreshCatchUpIsO1(t *testing.T) {
	// A request after a huge idle gap must account all missed refreshes
	// in one step (and not hang).
	m := mem(t)
	cfg := m.Config()
	gap := uint64(cfg.TREFI) * 1_000_000 * uint64(cfg.CPUCyclesPerDRAMCycle)
	m.Access(gap, 0, false)
	if st := m.Stats(); st.Refreshes != 1_000_000 {
		t.Fatalf("refreshes %d, want 1000000", st.Refreshes)
	}
}

func TestRefreshDisabled(t *testing.T) {
	cfg := DDR3_1600(1)
	cfg.TREFI, cfg.TRFC = 0, 0
	m := MustNew(cfg)
	m.Access(1<<40, 0, false)
	if m.Stats().Refreshes != 0 {
		t.Fatal("disabled refresh still fired")
	}
}

func BenchmarkAccessStream(b *testing.B) {
	m := MustNew(DDR3_1600(4))
	var now uint64
	for i := 0; i < b.N; i++ {
		now = m.Access(now, uint64(i)*64, false)
	}
}

func BenchmarkAccessRandom(b *testing.B) {
	m := MustNew(DDR3_1600(4))
	var now uint64
	for i := 0; i < b.N; i++ {
		addr := uint64((i*2654435761)%(1<<20)) * 64
		now = m.Access(now, addr, false)
	}
}

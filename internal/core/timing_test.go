package core_test

// These tests price core.Config design points through the controller's
// timing model, which lives in internal/sim. They are an external test
// package beside the engine so that the claims a design point makes about
// cost (tree depth, transactions per miss, re-encryption traffic) sit next
// to the engine tests of the same design point, and so that the engine and
// the model can be driven side by side.

import (
	"math/rand"
	"testing"

	"authmem/internal/core"
	"authmem/internal/ctr"
	"authmem/internal/dram"
	"authmem/internal/sim"
)

func newTM(t testing.TB, cfg core.Config) *sim.TimingModel {
	t.Helper()
	tm, err := sim.NewTimingModel(sim.Table1(cfg), dram.MustNew(dram.DDR3_1600(4)))
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func paperCfg(scheme ctr.Kind, placement core.MACPlacement) core.Config {
	return core.Default(scheme, placement) // full 512MB region
}

func TestNewTimingModelValidation(t *testing.T) {
	if _, err := sim.NewTimingModel(sim.Table1(core.Config{}), dram.MustNew(dram.DDR3_1600(1))); err == nil {
		t.Fatal("invalid config should fail")
	}
	if _, err := sim.NewTimingModel(sim.Table1(paperCfg(ctr.Delta, core.MACInECC)), nil); err == nil {
		t.Fatal("nil DRAM should fail")
	}
	for _, bad := range []func(*sim.TimingConfig){
		func(c *sim.TimingConfig) { c.MetadataCacheBytes = 0 },
		func(c *sim.TimingConfig) { c.MetadataCacheWays = 0 },
	} {
		cfg := sim.Table1(paperCfg(ctr.Delta, core.MACInECC))
		bad(&cfg)
		if _, err := sim.NewTimingModel(cfg, dram.MustNew(dram.DDR3_1600(1))); err == nil {
			t.Fatalf("metadata cache %d bytes / %d ways should fail", cfg.MetadataCacheBytes, cfg.MetadataCacheWays)
		}
	}
}

// TestTreeDepthMatchesPaper reproduces §5.2: 5 off-chip levels (counting the
// counter block) for the monolithic baseline, 4 for delta encoding, over a
// 512MB region with a 3KB on-chip root.
func TestTreeDepthMatchesPaper(t *testing.T) {
	mono := newTM(t, paperCfg(ctr.Monolithic, core.MACInline))
	if got := mono.OffChipTreeLevels() + 1; got != 5 {
		t.Errorf("monolithic depth = %d, want 5", got)
	}
	delta := newTM(t, paperCfg(ctr.Delta, core.MACInECC))
	if got := delta.OffChipTreeLevels() + 1; got != 4 {
		t.Errorf("delta depth = %d, want 4", got)
	}
	split := newTM(t, paperCfg(ctr.Split, core.MACInline))
	if got := split.OffChipTreeLevels() + 1; got != 4 {
		t.Errorf("split depth = %d, want 4", got)
	}
}

// TestDisabledEncryptionIsRawDRAM: Figure 8's no-encryption point is bare
// DRAM, priced exactly as the device alone prices an access.
func TestDisabledEncryptionIsRawDRAM(t *testing.T) {
	base := sim.StandardDesignPoints()[0]
	be, err := base.Backend(dram.MustNew(dram.DDR3_1600(4)))
	if err != nil {
		t.Fatal(err)
	}
	mem := dram.MustNew(dram.DDR3_1600(4))
	if got, want := be.ReadMiss(0, 0x1000), mem.Access(0, 0x1000, false); got != want {
		t.Fatalf("baseline read = %d, raw DRAM = %d", got, want)
	}
	if got, want := be.WriteBack(500, 0x2000), mem.Access(500, 0x2000, true); got != want {
		t.Fatalf("baseline writeback = %d, raw DRAM = %d", got, want)
	}
	if _, ok := be.(*sim.TimingModel); ok {
		t.Fatal("the no-encryption point built a controller model")
	}
}

func TestColdReadMissCosts(t *testing.T) {
	// A cold read under the baseline pays: data read + counter read +
	// full tree walk + MAC read. Under MAC-in-ECC with the same state it
	// skips the MAC transaction.
	base := newTM(t, paperCfg(ctr.Monolithic, core.MACInline))
	base.ReadMiss(0, 0x10000)
	bs := base.Stats()
	if bs.DataReads != 1 || bs.CounterReads != 1 || bs.MACReads != 1 {
		t.Fatalf("baseline stats %+v", bs)
	}
	if bs.TreeReads != uint64(base.OffChipTreeLevels()) {
		t.Fatalf("cold walk read %d tree nodes, want %d", bs.TreeReads, base.OffChipTreeLevels())
	}

	ecc := newTM(t, paperCfg(ctr.Monolithic, core.MACInECC))
	ecc.ReadMiss(0, 0x10000)
	es := ecc.Stats()
	if es.MACReads != 0 {
		t.Fatalf("MAC-in-ECC issued %d MAC reads", es.MACReads)
	}
	if es.Transactions() >= bs.Transactions() {
		t.Fatalf("MAC-in-ECC (%d txns) not cheaper than baseline (%d)",
			es.Transactions(), bs.Transactions())
	}
}

func TestWarmReadHitsMetadataCache(t *testing.T) {
	tm := newTM(t, paperCfg(ctr.Delta, core.MACInECC))
	tm.ReadMiss(0, 0x2000)
	before := tm.Stats().Transactions()
	// Same block again: counter + tree path now cached; only data read.
	tm.ReadMiss(100000, 0x2000)
	after := tm.Stats()
	if after.Transactions() != before+1 {
		t.Fatalf("warm read issued %d extra transactions, want 1",
			after.Transactions()-before)
	}
	if after.DataReads != 2 {
		t.Fatalf("stats %+v", after)
	}
}

func TestWarmReadLatencyLowerThanCold(t *testing.T) {
	tm := newTM(t, paperCfg(ctr.Delta, core.MACInline))
	coldDone := tm.ReadMiss(0, 0x3000)
	// Re-access within the first refresh interval (tREFI = 6240 memory
	// cycles = ~25k CPU cycles), so the row buffer is still warm.
	start := uint64(10000)
	warmDone := tm.ReadMiss(start, 0x3000)
	if warmDone-start >= coldDone {
		t.Fatalf("warm latency %d not below cold %d", warmDone-start, coldDone)
	}
}

func TestDeltaPacksMoreCountersPerCacheLine(t *testing.T) {
	// 64 consecutive block-groups' counters fit 8x fewer metadata lines
	// under delta encoding, so a scan's counter-read traffic drops.
	runScan := func(kind ctr.Kind) uint64 {
		tm := newTM(t, paperCfg(kind, core.MACInECC))
		for i := uint64(0); i < 4096; i++ {
			tm.ReadMiss(i*1000, i*core.BlockBytes)
		}
		return tm.Stats().CounterReads
	}
	mono := runScan(ctr.Monolithic)
	delta := runScan(ctr.Delta)
	if delta*7 > mono {
		t.Fatalf("delta counter reads %d vs monolithic %d: want ~8x fewer", delta, mono)
	}
}

func TestWriteBackTouchesCounter(t *testing.T) {
	tm := newTM(t, paperCfg(ctr.Delta, core.MACInECC))
	tm.WriteBack(0, 0x4000)
	if tm.Scheme().Stats().Writes != 1 {
		t.Fatal("writeback did not touch the counter")
	}
	st := tm.Stats()
	if st.DataWrites != 1 || st.CounterReads != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestWriteBackInlineMACTraffic(t *testing.T) {
	inline := newTM(t, paperCfg(ctr.Delta, core.MACInline))
	inline.WriteBack(0, 0x5000)
	if inline.Stats().MACReads != 1 {
		t.Fatalf("inline writeback stats %+v", inline.Stats())
	}
	ecc := newTM(t, paperCfg(ctr.Delta, core.MACInECC))
	ecc.WriteBack(0, 0x5000)
	if ecc.Stats().MACReads != 0 {
		t.Fatalf("mac-in-ecc writeback stats %+v", ecc.Stats())
	}
}

func TestReencryptionChargesTraffic(t *testing.T) {
	cfg := paperCfg(ctr.Split, core.MACInECC)
	tm := newTM(t, cfg)
	// 128 writebacks to one block overflow the 7-bit minor counter.
	var now uint64
	for i := 0; i < 128; i++ {
		now = tm.WriteBack(now, 0x8000)
	}
	st := tm.Stats()
	if st.ReencryptOps != 1 {
		t.Fatalf("re-encryptions = %d, want 1", st.ReencryptOps)
	}
	if st.ReencryptRead != ctr.GroupBlocks || st.ReencryptWrit != ctr.GroupBlocks {
		t.Fatalf("re-encrypt traffic %+v", st)
	}
}

func TestReencryptTrafficCanBeDisabled(t *testing.T) {
	tm := newTM(t, paperCfg(ctr.Split, core.MACInECC))
	tm.ChargeReencryptTraffic = false
	var now uint64
	for i := 0; i < 128; i++ {
		now = tm.WriteBack(now, 0x8000)
	}
	st := tm.Stats()
	if st.ReencryptOps != 1 || st.ReencryptRead != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestOverflowBufferBackpressure(t *testing.T) {
	// A tiny overflow buffer plus a storm of overflows in quick
	// succession must stall writes; an unbounded buffer must not.
	storm := func(depth int) sim.TimingStats {
		tm := newTM(t, paperCfg(ctr.Split, core.MACInECC))
		tm.OverflowBufferGroups = depth
		var now uint64
		// Alternate hot blocks across many groups so overflows land
		// back to back at nearly the same cycle.
		for round := 0; round < 130; round++ {
			for g := uint64(0); g < 8; g++ {
				tm.WriteBack(now, g*ctr.GroupBlocks*core.BlockBytes)
				now += 2
			}
		}
		return tm.Stats()
	}
	bounded := storm(1)
	unbounded := storm(0)
	if bounded.ReencryptOps == 0 {
		t.Fatal("storm produced no re-encryptions; test is vacuous")
	}
	if bounded.ReencStallCycles == 0 {
		t.Fatal("depth-1 overflow buffer never stalled a write")
	}
	if unbounded.ReencStallCycles != 0 {
		t.Fatal("unbounded buffer should never stall")
	}
	if unbounded.MaxReencBacklog <= 1 {
		t.Fatalf("unbounded backlog %d should exceed 1", unbounded.MaxReencBacklog)
	}
}

func TestOverflowBufferDefaultDepth(t *testing.T) {
	tm := newTM(t, paperCfg(ctr.Split, core.MACInECC))
	if tm.OverflowBufferGroups != 4 {
		t.Fatalf("default overflow buffer depth %d, want 4", tm.OverflowBufferGroups)
	}
}

func TestDecodeCyclesDefaults(t *testing.T) {
	if tm := newTM(t, paperCfg(ctr.Delta, core.MACInECC)); tm.DecodeCycles != ctr.DecodeCycles {
		t.Fatalf("delta decode cycles = %d", tm.DecodeCycles)
	}
	if tm := newTM(t, paperCfg(ctr.DualLength, core.MACInECC)); tm.DecodeCycles != ctr.DecodeCycles {
		t.Fatalf("dual decode cycles = %d", tm.DecodeCycles)
	}
	if tm := newTM(t, paperCfg(ctr.Monolithic, core.MACInline)); tm.DecodeCycles != 0 {
		t.Fatalf("monolithic decode cycles = %d", tm.DecodeCycles)
	}
}

func TestMetadataCachePressureInlineVsECC(t *testing.T) {
	// The paper: storing MACs as ECC bits frees metadata-cache space.
	// Under a working set that thrashes the 32KB cache, the MAC-in-ECC
	// model must see a better counter hit rate.
	run := func(p core.MACPlacement) float64 {
		tm := newTM(t, paperCfg(ctr.Monolithic, p))
		var now uint64
		for rep := 0; rep < 4; rep++ {
			for i := uint64(0); i < 6000; i++ {
				now = tm.ReadMiss(now, i*core.BlockBytes*8) // spread over counter blocks
			}
		}
		return tm.MetadataCacheStats().HitRate()
	}
	inline, ecc := run(core.MACInline), run(core.MACInECC)
	if ecc <= inline {
		t.Fatalf("metadata hit rate: inline %.3f, mac-in-ecc %.3f — expected improvement", inline, ecc)
	}
}

func TestOverheadFigure1(t *testing.T) {
	// Baseline: 56-bit counters (in 64-bit slots) + inline MACs + tree.
	base, err := core.ComputeOverhead(paperCfg(ctr.Monolithic, core.MACInline))
	if err != nil {
		t.Fatal(err)
	}
	pct := base.EncryptionOverheadPct()
	if pct < 21 || pct > 26 {
		t.Fatalf("baseline overhead %.1f%%, want ~22-24%%", pct)
	}
	// Counters alone ~10.9% (56-bit per block); MACs the same.
	if got := 100 * float64(base.CounterBytes) / float64(base.RegionBytes); got < 10.5 || got > 11.5 {
		t.Fatalf("counter overhead %.1f%%", got)
	}
	if base.MACBytes != base.CounterBytes {
		t.Fatalf("baseline MAC bytes %d != counter bytes %d", base.MACBytes, base.CounterBytes)
	}

	// Proposed: delta counters + MAC-in-ECC.
	prop, err := core.ComputeOverhead(paperCfg(ctr.Delta, core.MACInECC))
	if err != nil {
		t.Fatal(err)
	}
	if prop.MACBytes != 0 {
		t.Fatal("MAC-in-ECC should have no dedicated MAC storage")
	}
	if got := prop.EncryptionOverheadPct(); got > 3 {
		t.Fatalf("proposed overhead %.2f%%, want ~2%%", got)
	}
	// The paper's ~10x reduction.
	if ratio := base.EncryptionOverheadPct() / prop.EncryptionOverheadPct(); ratio < 8 {
		t.Fatalf("overhead reduction %.1fx, want ~10x", ratio)
	}
	if prop.TreeLevels != 4 || base.TreeLevels != 5 {
		t.Fatalf("tree levels: base %d (want 5), prop %d (want 4)", base.TreeLevels, prop.TreeLevels)
	}
	// The storage accounting and the timing model read one tree shape.
	for _, o := range []struct {
		ov  core.Overhead
		cfg core.Config
	}{{base, paperCfg(ctr.Monolithic, core.MACInline)}, {prop, paperCfg(ctr.Delta, core.MACInECC)}} {
		if got := newTM(t, o.cfg).OffChipTreeLevels() + 1; got != o.ov.TreeLevels {
			t.Fatalf("%s: model depth %d, overhead depth %d", o.cfg.Scheme, got, o.ov.TreeLevels)
		}
	}
}

func TestTimingDeterminism(t *testing.T) {
	run := func() (uint64, sim.TimingStats) {
		tm := newTM(t, paperCfg(ctr.Delta, core.MACInECC))
		var now uint64
		for i := 0; i < 5000; i++ {
			a := uint64(i) * 2654435761 % 100000 * core.BlockBytes
			if i%3 == 0 {
				now = tm.WriteBack(now, a)
			} else {
				now = tm.ReadMiss(now, a)
			}
		}
		return now, tm.Stats()
	}
	n1, s1 := run()
	n2, s2 := run()
	if n1 != n2 || s1 != s2 {
		t.Fatal("timing model is not deterministic")
	}
}

func TestTimingModelAccessors(t *testing.T) {
	mem := dram.MustNew(dram.DDR3_1600(2))
	tm, err := sim.NewTimingModel(sim.Table1(core.Default(ctr.Delta, core.MACInECC)), mem)
	if err != nil {
		t.Fatal(err)
	}
	if tm.DRAM() != mem {
		t.Fatal("DRAM accessor wrong")
	}
	if tm.Scheme() == nil || tm.Scheme().Name() != "delta-7" {
		t.Fatal("Scheme accessor wrong")
	}
	if tm.MetadataCacheStats().Hits+tm.MetadataCacheStats().Misses != 0 {
		t.Fatal("a fresh model has metadata cache traffic")
	}
}

func TestMetaAccessDirtyEvictionWritesBack(t *testing.T) {
	// Thrash the metadata cache with dirty counter blocks (writebacks to
	// many distinct groups) and confirm metadata writebacks reach DRAM.
	tm := newTM(t, core.Default(ctr.Delta, core.MACInECC))
	var now uint64
	for i := uint64(0); i < 3000; i++ {
		// One group per iteration: each dirties a distinct counter line.
		now = tm.WriteBack(now, i*uint64(ctr.GroupBlocks)*core.BlockBytes)
	}
	if tm.Stats().MetaWrites == 0 {
		t.Fatal("no metadata writebacks despite cache thrash")
	}
}

// TestDataTreeGeometryAndOverhead reproduces §2.2's motivation for Bonsai
// trees: at 512MB the model's classic data tree is ~60x larger and deeper
// than the engine's BMT over delta-encoded counters. Without the design
// point, the model's breakdown is the engine's.
func TestDataTreeGeometryAndOverhead(t *testing.T) {
	classic := sim.Table1(core.Default(ctr.Monolithic, core.MACInline))
	classic.DataTree = true
	co, err := classic.Overhead()
	if err != nil {
		t.Fatal(err)
	}
	bmt, err := core.ComputeOverhead(core.Default(ctr.Delta, core.MACInECC))
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(co.TreeBytes) / float64(bmt.TreeBytes); ratio < 40 {
		t.Fatalf("data tree only %.1fx larger than bonsai tree", ratio)
	}
	// ~14% tree overhead for the classic design (1/7th of the region).
	pct := 100 * float64(co.TreeBytes) / float64(co.RegionBytes)
	if pct < 12 || pct > 17 {
		t.Fatalf("data tree overhead %.1f%%", pct)
	}
	if co.TreeLevels <= bmt.TreeLevels {
		t.Fatalf("data tree depth %d not above bonsai %d", co.TreeLevels, bmt.TreeLevels)
	}
	classic.DataTree = false
	po, err := classic.Overhead()
	if err != nil {
		t.Fatal(err)
	}
	if eo, err := core.ComputeOverhead(classic.Config); err != nil || po != eo {
		t.Fatalf("model breakdown %+v, engine %+v (%v)", po, eo, err)
	}
}

// TestDataTreeTimingCost shows the per-access tree-walk penalty BMTs remove:
// the classic design issues strictly more DRAM transactions for the same
// miss stream.
func TestDataTreeTimingCost(t *testing.T) {
	run := func(dataTree bool) uint64 {
		cfg := sim.Table1(core.Default(ctr.Monolithic, core.MACInline))
		cfg.DataTree = dataTree
		tm, err := sim.NewTimingModel(cfg, dram.MustNew(dram.DDR3_1600(4)))
		if err != nil {
			t.Fatal(err)
		}
		var now uint64
		for i := uint64(0); i < 3000; i++ {
			addr := (i * 2654435761 % (1 << 22)) * core.BlockBytes % cfg.RegionBytes
			now = tm.ReadMiss(now, addr)
		}
		return tm.Stats().Transactions()
	}
	classic, bmt := run(true), run(false)
	if classic <= bmt+bmt/4 {
		t.Fatalf("classic tree (%d txns) should cost well above BMT (%d)", classic, bmt)
	}
}

// TestIntegrationEngineAndTimingModelAgree drives the identical write-back
// sequence through the functional engine and the timing model at every design
// point: 4 schemes × 2 placements. Because they
// share the counter-scheme implementation, their scheme-event statistics must
// match exactly, and so must the group re-encryptions each side performed
// (the engine's GroupReencrypts, the model's charged ReencryptOps). Counter
// fetches are not compared: the engine's verified-counter cache and the
// model's Table 1 metadata cache hold different things at different sizes
// (EXPERIMENTS "Known deviations").
func TestIntegrationEngineAndTimingModelAgree(t *testing.T) {
	var points []core.Config
	for _, kind := range []ctr.Kind{ctr.Monolithic, ctr.Split, ctr.Delta, ctr.DualLength} {
		for _, p := range []core.MACPlacement{core.MACInline, core.MACInECC} {
			points = append(points, core.Default(kind, p))
		}
	}

	for _, cfg := range points {
		cfg.RegionBytes = 1 << 20
		name := cfg.Scheme.String() + "/" + cfg.Placement.String()
		eng, err := core.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tm := newTM(t, cfg)
		rng := rand.New(rand.NewSource(7))
		data := make([]byte, core.BlockBytes)
		var now uint64
		for i := 0; i < 30000; i++ {
			blk := uint64(rng.Intn(256))
			if rng.Intn(3) == 0 {
				blk = uint64(rng.Intn(8)) // hot blocks force overflows
			}
			if err := eng.Write(blk*core.BlockBytes, data); err != nil {
				t.Fatal(err)
			}
			now = tm.WriteBack(now, blk*core.BlockBytes)
		}
		es, ts := eng.SchemeStats(), tm.Scheme().Stats()
		if es != ts {
			t.Fatalf("%s: engine %+v, timing %+v", name, es, ts)
		}
		if got, want := eng.Stats().GroupReencrypts, tm.Stats().ReencryptOps; got != want {
			t.Fatalf("%s: engine swept %d groups, model charged %d", name, got, want)
		}
		if cfg.Scheme != ctr.Monolithic && es.Reencryptions == 0 {
			t.Fatalf("%s: campaign produced no re-encryptions; test is vacuous", name)
		}
	}
}

func BenchmarkReadMissCold(b *testing.B) {
	tm := newTM(b, paperCfg(ctr.Delta, core.MACInECC))
	var now uint64
	for i := 0; i < b.N; i++ {
		now = tm.ReadMiss(now, uint64(i)%(512<<20)/64*64)
	}
}

func BenchmarkWriteBack(b *testing.B) {
	tm := newTM(b, paperCfg(ctr.Delta, core.MACInECC))
	var now uint64
	for i := 0; i < b.N; i++ {
		now = tm.WriteBack(now, uint64(i%100000)*core.BlockBytes)
	}
}

package authmem

// This file is the benchmark harness for the paper's evaluation section:
// one benchmark per figure/table, plus ablations over the design choices
// DESIGN.md calls out. Paper-facing metrics are emitted via ReportMetric,
// so `go test -bench=.` regenerates the numbers cmd/paperbench prints.
//
// Scale note: benchmark iterations run reduced experiment sizes so the
// suite completes in minutes; cmd/paperbench runs the full-size versions.

import (
	"testing"

	"authmem/internal/core"
	"authmem/internal/cpu"
	"authmem/internal/ctr"
	"authmem/internal/dram"
	"authmem/internal/fault"
	"authmem/internal/sim"
	"authmem/internal/workload"
)

// BenchmarkFig1StorageOverhead computes the Figure 1 storage breakdown and
// reports baseline and proposed overhead percentages.
func BenchmarkFig1StorageOverhead(b *testing.B) {
	var basePct, propPct float64
	for i := 0; i < b.N; i++ {
		base, err := core.ComputeOverhead(core.Default(ctr.Monolithic, core.MACInline))
		if err != nil {
			b.Fatal(err)
		}
		prop, err := core.ComputeOverhead(core.Default(ctr.Delta, core.MACInECC))
		if err != nil {
			b.Fatal(err)
		}
		basePct, propPct = base.EncryptionOverheadPct(), prop.EncryptionOverheadPct()
	}
	b.ReportMetric(basePct, "baseline-%")
	b.ReportMetric(propPct, "proposed-%")
	b.ReportMetric(basePct/propPct, "reduction-x")
}

// BenchmarkFig3FaultInjection runs the Figure 3 fault matrix; sub-benchmarks
// cover each fault class and report the corrected fraction per scheme.
func BenchmarkFig3FaultInjection(b *testing.B) {
	for _, class := range fault.Classes() {
		b.Run(class.String(), func(b *testing.B) {
			const trials = 200
			var sec, mec fault.Result
			for i := 0; i < b.N; i++ {
				sec = fault.InjectSECDED(class, trials, int64(i))
				var err error
				mec, err = fault.InjectMACECC(class, trials, int64(i), 2)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sec.CorrectedPct(), "secded-corrected-%")
			b.ReportMetric(mec.CorrectedPct(), "macecc-corrected-%")
			b.ReportMetric(sec.MiscorrectedPct(), "secded-silent-%")
		})
	}
}

// BenchmarkTable2Reencryptions drives each application's writeback stream
// through each counter scheme and reports re-encryptions per 10^9 cycles.
func BenchmarkTable2Reencryptions(b *testing.B) {
	for _, app := range workload.Apps() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			var rates [3]float64
			kinds := []ctr.Kind{ctr.Split, ctr.Delta, ctr.DualLength}
			for i := 0; i < b.N; i++ {
				for j, k := range kinds {
					r, err := sim.MeasureReencryption(app, k, 2_000_000, int64(i))
					if err != nil {
						b.Fatal(err)
					}
					rates[j] = r.PerBillionCycles
				}
			}
			b.ReportMetric(rates[0], "split/1e9cyc")
			b.ReportMetric(rates[1], "delta/1e9cyc")
			b.ReportMetric(rates[2], "dual/1e9cyc")
		})
	}
}

// BenchmarkFig8IPC runs the Figure 8 design-point sweep per memory-sensitive
// application and reports normalized IPC.
func BenchmarkFig8IPC(b *testing.B) {
	points := sim.StandardDesignPoints()
	for _, app := range workload.Apps() {
		if !app.MemorySensitive {
			continue
		}
		app := app
		b.Run(app.Name, func(b *testing.B) {
			var norm map[string]float64
			for i := 0; i < b.N; i++ {
				var err error
				norm, _, err = sim.NormalizedIPC(app, points, 60_000, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(norm["bmt"], "bmt-ipc")
			b.ReportMetric(norm["mac-ecc"], "macecc-ipc")
			b.ReportMetric(norm["proposed"], "proposed-ipc")
		})
	}
}

// BenchmarkAblationDecodeLatency sweeps the delta-decode latency (§5.3
// synthesized it at 2 cycles) to show IPC is insensitive to it — the reason
// the paper's 2-cycle decoder is "free".
func BenchmarkAblationDecodeLatency(b *testing.B) {
	app, _ := workload.ByName("canneal")
	for _, cycles := range []int{0, 2, 8, 32} {
		cycles := cycles
		name := map[int]string{0: "0cyc", 2: "2cyc-paper", 8: "8cyc", 32: "32cyc"}[cycles]
		b.Run(name, func(b *testing.B) {
			var r sim.IPCResult
			for i := 0; i < b.N; i++ {
				tm := ablationModel(b, sim.Table1(core.Default(ctr.Delta, core.MACInECC)), dram.DDR3_1600(4))
				tm.DecodeCycles = cycles
				r = runAblation(b, cpu.Table1(), app, tm, int64(i+1))
			}
			b.ReportMetric(r.IPC, "ipc")
		})
	}
}

// BenchmarkAblationMetadataCacheSize sweeps the counter/MAC cache (Table 1
// uses 32KB 8-way) under the BMT baseline, which caches MACs too.
func BenchmarkAblationMetadataCacheSize(b *testing.B) {
	app, _ := workload.ByName("canneal")
	for _, kb := range []int{8, 32, 128} {
		kb := kb
		b.Run(map[int]string{8: "8KB", 32: "32KB-paper", 128: "128KB"}[kb], func(b *testing.B) {
			var r sim.IPCResult
			for i := 0; i < b.N; i++ {
				cfg := sim.Table1(core.Default(ctr.Monolithic, core.MACInline))
				cfg.MetadataCacheBytes = kb << 10
				r = runAblation(b, cpu.Table1(), app, ablationModel(b, cfg, dram.DDR3_1600(4)), int64(i+1))
			}
			b.ReportMetric(r.IPC, "ipc")
		})
	}
}

// BenchmarkAblationFlipAndCheckCost measures the worst-case hardware cost
// model of §3.4: flip-and-check evaluations for single and double faults.
func BenchmarkAblationFlipAndCheckCost(b *testing.B) {
	cfg := DefaultConfig(1 << 20)
	cfg.Key = benchKey()
	for _, faults := range []int{1, 2} {
		faults := faults
		b.Run(map[int]string{1: "single-bit", 2: "double-bit"}[faults], func(b *testing.B) {
			m, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			data := make([]byte, BlockSize)
			if err := m.Write(0, data); err != nil {
				b.Fatal(err)
			}
			dst := make([]byte, BlockSize)
			var checks int
			for i := 0; i < b.N; i++ {
				if err := flipAt(m, planeData, 0, (i*37)%512); err != nil {
					b.Fatal(err)
				}
				if faults == 2 {
					if err := flipAt(m, planeData, 0, (i*151+7)%512); err != nil {
						b.Fatal(err)
					}
				}
				info, err := m.Read(0, dst)
				if err != nil {
					b.Fatal(err)
				}
				checks = info.HardwareChecks
			}
			b.ReportMetric(float64(checks), "flip-checks")
		})
	}
}

// BenchmarkAblationReencryptTraffic compares the canneal IPC with and
// without charging background re-encryption traffic, validating the paper's
// claim (§5.2) that re-encryption's performance impact is minimal.
func BenchmarkAblationReencryptTraffic(b *testing.B) {
	app, _ := workload.ByName("canneal")
	for _, charge := range []bool{true, false} {
		charge := charge
		b.Run(map[bool]string{true: "charged", false: "free"}[charge], func(b *testing.B) {
			var r sim.IPCResult
			for i := 0; i < b.N; i++ {
				tm := ablationModel(b, sim.Table1(core.Default(ctr.Split, core.MACInECC)), dram.DDR3_1600(4))
				tm.ChargeReencryptTraffic = charge
				r = runAblation(b, cpu.Table1(), app, tm, int64(i+1))
			}
			b.ReportMetric(r.IPC, "ipc")
		})
	}
}

// BenchmarkAblationPrefetch checks whether a next-line prefetcher (absent
// from the paper's Table 1) changes the story: speculative lines need
// verification too, so prefetching amplifies metadata traffic — but it
// amplifies it for baseline and proposed alike.
func BenchmarkAblationPrefetch(b *testing.B) {
	app, _ := workload.ByName("facesim")
	for _, pf := range []bool{false, true} {
		pf := pf
		b.Run(map[bool]string{false: "off-paper", true: "next-line"}[pf], func(b *testing.B) {
			var bmtIPC, propIPC float64
			cpuCfg := cpu.Table1()
			cpuCfg.NextLinePrefetch = pf
			for i := 0; i < b.N; i++ {
				for _, kind := range []struct {
					cfg core.Config
					dst *float64
				}{
					{core.Default(ctr.Monolithic, core.MACInline), &bmtIPC},
					{core.Default(ctr.Delta, core.MACInECC), &propIPC},
				} {
					tm := ablationModel(b, sim.Table1(kind.cfg), dram.DDR3_1600(4))
					*kind.dst = runAblation(b, cpuCfg, app, tm, int64(i+1)).IPC
				}
			}
			b.ReportMetric(bmtIPC, "bmt-ipc")
			b.ReportMetric(propIPC, "proposed-ipc")
			b.ReportMetric(propIPC/bmtIPC, "gain-x")
		})
	}
}

// BenchmarkAblationEnergy quantifies §4.1's energy-efficiency claim: fewer
// metadata transactions mean less DRAM dynamic energy for the same work.
func BenchmarkAblationEnergy(b *testing.B) {
	app, _ := workload.ByName("canneal")
	points := sim.StandardDesignPoints()
	for _, dp := range points[1:] { // skip no-encryption
		dp := dp
		b.Run(dp.Name, func(b *testing.B) {
			var r sim.IPCResult
			for i := 0; i < b.N; i++ {
				var err error
				if r, err = sim.MeasureIPC(app, dp, 60_000, int64(i+1)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.DRAM.EnergyMJ(), "dram-mJ")
		})
	}
}

// BenchmarkAblationDataTree reproduces §2.2's motivation for Bonsai Merkle
// trees: the classic Merkle-tree-over-data design pays a full tree walk per
// data access. Reported IPC and transaction counts show what BMT buys
// before either of the paper's optimizations is applied.
func BenchmarkAblationDataTree(b *testing.B) {
	app, _ := workload.ByName("canneal")
	for _, dataTree := range []bool{true, false} {
		dataTree := dataTree
		b.Run(map[bool]string{true: "classic-merkle", false: "bonsai"}[dataTree], func(b *testing.B) {
			var r sim.IPCResult
			for i := 0; i < b.N; i++ {
				cfg := sim.Table1(core.Default(ctr.Monolithic, core.MACInline))
				cfg.DataTree = dataTree
				r = runAblation(b, cpu.Table1(), app, ablationModel(b, cfg, dram.DDR3_1600(4)), int64(i+1))
			}
			b.ReportMetric(r.IPC, "ipc")
			b.ReportMetric(float64(r.Timing.Transactions()), "dram-txns")
		})
	}
}

// BenchmarkAblationWriteBuffer compares the write-through DRAM model with a
// read-priority write buffer on the write-heavy facesim workload under the
// proposed design: buffered writes keep metadata writebacks and
// re-encryption streams off the read critical path.
func BenchmarkAblationWriteBuffer(b *testing.B) {
	app, _ := workload.ByName("canneal")
	for _, depth := range []int{0, 32} {
		depth := depth
		b.Run(map[int]string{0: "write-through", 32: "buffered-32"}[depth], func(b *testing.B) {
			var r sim.IPCResult
			for i := 0; i < b.N; i++ {
				dcfg := dram.DDR3_1600(4)
				dcfg.WriteBufferDepth = depth
				tm := ablationModel(b, sim.Table1(core.Default(ctr.Delta, core.MACInECC)), dcfg)
				r = runAblation(b, cpu.Table1(), app, tm, int64(i+1))
			}
			b.ReportMetric(r.IPC, "ipc")
		})
	}
}

// ablationModel builds the timing model an ablation then tweaks.
func ablationModel(b *testing.B, cfg sim.TimingConfig, dcfg dram.Config) *sim.TimingModel {
	b.Helper()
	tm, err := sim.NewTimingModel(cfg, dram.MustNew(dcfg))
	if err != nil {
		b.Fatal(err)
	}
	return tm
}

// runAblation runs 60k memory ops per core of app on cpuCfg over tm,
// through the same sim.Run that MeasureIPC uses.
func runAblation(b *testing.B, cpuCfg cpu.Config, app workload.App, tm *sim.TimingModel, seed int64) sim.IPCResult {
	b.Helper()
	r, err := sim.Run(cpuCfg, sim.Traces(app, 60_000, seed), tm)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func benchKey() []byte {
	k := make([]byte, KeySize)
	for i := range k {
		k[i] = byte(i + 1)
	}
	return k
}

// Package sim is the full-system simulator: the secure memory controller's
// cycle-level TimingModel (timing.go), and the wiring of workloads, the CPU
// model and that controller into the paper's two headline experiments:
//
//   - MeasureReencryption drives an application's post-LLC writeback
//     stream through a counter scheme and reports re-encryptions per 10^9
//     cycles (Table 2).
//   - MeasureIPC runs an application's instruction traces on the 4-core
//     system over a full memory-encryption design point and reports IPC
//     (Figure 8).
//
// A design point is the functional engine's core.Config; the model reads
// that config, the engine's counter schemes and the engine's tree shape, so
// what it prices is the engine that serves. Nothing on the serving path
// imports this package.
package sim

import (
	"fmt"

	"authmem/internal/core"
	"authmem/internal/cpu"
	"authmem/internal/ctr"
	"authmem/internal/dram"
	"authmem/internal/trace"
	"authmem/internal/workload"
)

// ReencryptionResult is one Table 2 cell with its supporting events.
type ReencryptionResult struct {
	App        string
	Scheme     string
	Writebacks uint64
	Cycles     float64
	// PerBillionCycles is the Table 2 metric.
	PerBillionCycles float64
	Stats            ctr.Stats
}

// MeasureReencryption streams `writebacks` post-LLC writes of the given
// application through a counter scheme. The application's writeback rate
// converts the event count to the paper's per-10^9-cycles normalization.
func MeasureReencryption(app workload.App, kind ctr.Kind, writebacks uint64, seed int64) (ReencryptionResult, error) {
	if writebacks == 0 {
		return ReencryptionResult{}, fmt.Errorf("sim: need a positive writeback count")
	}
	if app.WB.PerKiloCycle <= 0 {
		return ReencryptionResult{}, fmt.Errorf("sim: app %q has no writeback rate", app.Name)
	}
	scheme, err := ctr.NewScheme(kind)
	if err != nil {
		return ReencryptionResult{}, err
	}
	gen := app.WritebackGen(seed)
	for i := uint64(0); i < writebacks; i++ {
		scheme.Touch(gen.Next())
	}
	cycles := float64(writebacks) * 1000 / app.WB.PerKiloCycle
	st := scheme.Stats()
	return ReencryptionResult{
		App:              app.Name,
		Scheme:           scheme.Name(),
		Writebacks:       writebacks,
		Cycles:           cycles,
		PerBillionCycles: float64(st.Reencryptions) * 1e9 / cycles,
		Stats:            st,
	}, nil
}

// DesignPoint names a memory-encryption configuration for Figure 8.
type DesignPoint struct {
	// Name labels the series in reports.
	Name string
	// Config is the controller design, priced by a TimingModel on the
	// Table 1 metadata cache. Nil is unprotected memory: the bare DRAM
	// Figure 8 normalizes against.
	Config *core.Config
}

// StandardDesignPoints returns the Figure 8 series:
// the unprotected baseline IPC is normalized against, "bmt" is the
// Bonsai-Merkle-tree baseline (monolithic counters, inline MACs),
// "mac-ecc" adds only the §3 optimization, and "proposed" combines
// MAC-in-ECC with delta-encoded counters.
func StandardDesignPoints() []DesignPoint {
	bmt := core.Default(ctr.Monolithic, core.MACInline)
	macECC := core.Default(ctr.Monolithic, core.MACInECC)
	proposed := core.Default(ctr.Delta, core.MACInECC)
	return []DesignPoint{
		{Name: "no-encryption"},
		{Name: "bmt", Config: &bmt},
		{Name: "mac-ecc", Config: &macECC},
		{Name: "proposed", Config: &proposed},
	}
}

// Backend is a memory system Run puts under the CPU: a controller's
// TimingModel, or bare DRAM.
type Backend interface {
	cpu.MemoryBackend
	// DRAM is the device every transaction lands on.
	DRAM() *dram.Memory
}

// bareDRAM is unprotected memory: every miss and writeback is one DRAM
// access and nothing else.
type bareDRAM struct{ mem *dram.Memory }

func (b bareDRAM) ReadMiss(now, addr uint64) uint64  { return b.mem.Access(now, addr, false) }
func (b bareDRAM) WriteBack(now, addr uint64) uint64 { return b.mem.Access(now, addr, true) }
func (b bareDRAM) DRAM() *dram.Memory                { return b.mem }

// Backend builds the point's memory system on mem: its controller's timing
// model, or mem itself for the unprotected baseline.
func (dp DesignPoint) Backend(mem *dram.Memory) (Backend, error) {
	if dp.Config == nil {
		return bareDRAM{mem}, nil
	}
	tm, err := NewTimingModel(Table1(*dp.Config), mem)
	if err != nil {
		return nil, err
	}
	return tm, nil
}

// IPCResult is one Figure 8 measurement.
type IPCResult struct {
	App    string
	Design string
	// IPC is per-core IPC.
	IPC float64
	// CPU carries instruction/cycle/stall detail.
	CPU cpu.Result
	// Timing classifies the controller's DRAM transactions.
	Timing TimingStats
	// MetaHitRate is the counter/MAC cache hit rate.
	MetaHitRate float64
	// TreeLevels is the off-chip read depth (+1 for the counter block);
	// 0 on bare DRAM.
	TreeLevels int
	// DRAM carries device-level statistics (row-buffer behaviour,
	// refresh, average latency).
	DRAM dram.Stats
	// ReadLatencyP50/P95/P99 are DRAM read-latency percentile upper
	// bounds in CPU cycles.
	ReadLatencyP50 uint64
	ReadLatencyP95 uint64
	ReadLatencyP99 uint64
}

// Traces returns app's instruction streams, one per Table 1 core.
func Traces(app workload.App, opsPerCore uint64, seed int64) []trace.Generator {
	gens := make([]trace.Generator, cpu.Table1().Cores)
	for i := range gens {
		gens[i] = app.TraceGen(i, opsPerCore, seed)
	}
	return gens
}

// Run runs one instruction stream per core (cpuCfg.Cores is set to
// len(gens)) on the CPU cpuCfg describes, over the memory system be, and
// collects what the run measured. It is the one assembly of CPU, controller
// and DRAM: MeasureIPC, memsim's trace replay and the ablation benchmarks
// all run through it. The caller labels App and Design.
func Run(cpuCfg cpu.Config, gens []trace.Generator, be Backend) (IPCResult, error) {
	cpuCfg.Cores = len(gens)
	sys, err := cpu.New(cpuCfg, gens, be)
	if err != nil {
		return IPCResult{}, err
	}
	res := sys.Run()
	mem := be.DRAM()
	lat := mem.ReadLatencyHistogram()
	out := IPCResult{
		IPC:            res.IPC,
		CPU:            res,
		DRAM:           mem.Stats(),
		ReadLatencyP50: lat.Percentile(0.50),
		ReadLatencyP95: lat.Percentile(0.95),
		ReadLatencyP99: lat.Percentile(0.99),
	}
	if tm, ok := be.(*TimingModel); ok {
		out.Timing = tm.Stats()
		out.MetaHitRate = tm.MetadataCacheStats().HitRate()
		out.TreeLevels = tm.OffChipTreeLevels() + 1
	}
	return out, nil
}

// MeasureIPC runs one application on the Table 1 system under the given
// design point. opsPerCore scales simulation length (memory operations per
// core); results are stable above ~10^5 for the bundled workloads.
func MeasureIPC(app workload.App, dp DesignPoint, opsPerCore uint64, seed int64) (IPCResult, error) {
	if dp.Config != nil && dp.Config.RegionBytes < app.FootprintBytes {
		// The protected region must cover the workload footprint.
		cfg := *dp.Config
		cfg.RegionBytes = app.FootprintBytes
		dp.Config = &cfg
	}
	be, err := dp.Backend(dram.MustNew(dram.DDR3_1600(4)))
	if err != nil {
		return IPCResult{}, err
	}
	out, err := Run(cpu.Table1(), Traces(app, opsPerCore, seed), be)
	if err != nil {
		return IPCResult{}, err
	}
	out.App, out.Design = app.Name, dp.Name
	return out, nil
}

// NormalizedIPC runs all design points for one application and returns
// IPCs normalized to the no-encryption baseline — the exact quantity
// Figure 8 plots.
func NormalizedIPC(app workload.App, points []DesignPoint, opsPerCore uint64, seed int64) (map[string]float64, []IPCResult, error) {
	var results []IPCResult
	var baseline float64
	for _, dp := range points {
		r, err := MeasureIPC(app, dp, opsPerCore, seed)
		if err != nil {
			return nil, nil, err
		}
		results = append(results, r)
		if dp.Config == nil {
			baseline = r.IPC
		}
	}
	if baseline == 0 {
		return nil, nil, fmt.Errorf("sim: design points must include a no-encryption baseline")
	}
	norm := make(map[string]float64, len(results))
	for _, r := range results {
		norm[r.Design] = r.IPC / baseline
	}
	return norm, results, nil
}

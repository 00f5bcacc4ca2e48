// Command memsim runs one PARSEC-like workload on the Table 1 system under
// a chosen memory-encryption design point and reports IPC and traffic
// detail — the single-experiment form of cmd/paperbench's Figure 8 sweep.
//
// Usage:
//
//	memsim -app canneal -design proposed [-ops 1000000] [-seed 1]
//	memsim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"authmem/internal/cpu"
	"authmem/internal/dram"
	"authmem/internal/sim"
	"authmem/internal/stats"
	"authmem/internal/trace"
	"authmem/internal/workload"
)

func main() {
	appName := flag.String("app", "canneal", "workload (one of the 11 PARSEC-like apps)")
	design := flag.String("design", "proposed", "design point: no-encryption, bmt, mac-ecc, proposed")
	ops := flag.Uint64("ops", 1_000_000, "memory operations per core")
	seed := flag.Int64("seed", 1, "trace seed")
	traceFiles := flag.String("trace", "", "comma-separated per-core trace files (overrides -app/-ops)")
	list := flag.Bool("list", false, "list workloads and design points")
	flag.Parse()

	points := sim.StandardDesignPoints()
	if *list {
		var names []string
		for _, a := range workload.Apps() {
			names = append(names, a.Name)
		}
		fmt.Println("workloads:    ", strings.Join(names, " "))
		names = names[:0]
		for _, p := range points {
			names = append(names, p.Name)
		}
		fmt.Println("design points:", strings.Join(names, " "))
		return
	}

	var point *sim.DesignPoint
	for i := range points {
		if points[i].Name == *design {
			point = &points[i]
		}
	}
	if point == nil {
		fmt.Fprintf(os.Stderr, "memsim: unknown design %q (try -list)\n", *design)
		os.Exit(1)
	}

	var r sim.IPCResult
	if *traceFiles != "" {
		var err error
		r, err = runTraceFiles(strings.Split(*traceFiles, ","), *point)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memsim:", err)
			os.Exit(1)
		}
		fmt.Printf("trace replay on %s (%d cores)\n\n", r.Design, len(strings.Split(*traceFiles, ",")))
	} else {
		app, ok := workload.ByName(*appName)
		if !ok {
			fmt.Fprintf(os.Stderr, "memsim: unknown app %q (try -list)\n", *appName)
			os.Exit(1)
		}
		var err error
		r, err = sim.MeasureIPC(app, *point, *ops, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memsim:", err)
			os.Exit(1)
		}
		fmt.Printf("%s on %s (%d mem ops/core, 4 cores)\n\n", r.App, r.Design, *ops)
	}
	tb := stats.NewTable("metric", "value")
	tb.AddRow("IPC (per core)", fmt.Sprintf("%.4f", r.IPC))
	tb.AddRow("instructions", r.CPU.Instructions)
	tb.AddRow("cycles", r.CPU.Cycles)
	tb.AddRow("load stall cycles", r.CPU.LoadStallCycles)
	tb.AddRow("L3 misses", r.CPU.L3Misses)
	tb.AddRow("L3 writebacks", r.CPU.Writebacks)
	if r.TreeLevels > 0 {
		tb.AddRow("tree read depth", r.TreeLevels)
		tb.AddRow("metadata cache hit rate", fmt.Sprintf("%.3f", r.MetaHitRate))
		tb.AddRow("DRAM data reads", r.Timing.DataReads)
		tb.AddRow("DRAM data writes", r.Timing.DataWrites)
		tb.AddRow("DRAM counter reads", r.Timing.CounterReads)
		tb.AddRow("DRAM tree reads", r.Timing.TreeReads)
		tb.AddRow("DRAM MAC reads", r.Timing.MACReads)
		tb.AddRow("metadata writebacks", r.Timing.MetaWrites)
		tb.AddRow("group re-encryptions", r.Timing.ReencryptOps)
		tb.AddRow("total DRAM transactions", r.Timing.Transactions())
	}
	tb.AddRow("DRAM row-hit rate", fmt.Sprintf("%.3f", r.DRAM.RowHitRate()))
	tb.AddRow("DRAM avg read latency", fmt.Sprintf("%.1f cycles", r.DRAM.AvgReadLatency()))
	tb.AddRow("DRAM read latency p50/p95/p99",
		fmt.Sprintf("<=%d / <=%d / <=%d", r.ReadLatencyP50, r.ReadLatencyP95, r.ReadLatencyP99))
	tb.AddRow("DRAM refreshes", r.DRAM.Refreshes)
	tb.AddRow("DRAM dynamic energy", fmt.Sprintf("%.3f mJ", r.DRAM.EnergyMJ()))
	fmt.Print(tb)
}

// runTraceFiles replays one trace file per core on the Table 1 system
// under the given design point.
func runTraceFiles(paths []string, point sim.DesignPoint) (sim.IPCResult, error) {
	gens := make([]trace.Generator, len(paths))
	readers := make([]*trace.Reader, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return sim.IPCResult{}, err
		}
		defer f.Close()
		r, err := trace.NewReader(f)
		if err != nil {
			return sim.IPCResult{}, fmt.Errorf("%s: %w", p, err)
		}
		gens[i], readers[i] = r, r
	}
	be, err := point.Backend(dram.MustNew(dram.DDR3_1600(4)))
	if err != nil {
		return sim.IPCResult{}, err
	}
	out, err := sim.Run(cpu.Table1(), gens, be)
	if err != nil {
		return sim.IPCResult{}, err
	}
	for i, r := range readers {
		if err := r.Err(); err != nil {
			return sim.IPCResult{}, fmt.Errorf("%s: %w", paths[i], err)
		}
	}
	out.App, out.Design = "trace-replay", point.Name
	return out, nil
}

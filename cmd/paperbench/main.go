// Command paperbench regenerates every table and figure in the paper's
// evaluation section:
//
//	-fig1    storage overhead breakdown (Figure 1)
//	-fig3    fault-pattern error-handling matrix (Figure 3)
//	-fig8    normalized IPC across design points (Figure 8)
//	-table2  re-encryptions per 10^9 cycles per counter scheme (Table 2)
//	-all     everything above
//
// Scale knobs: -ops (Figure 8 memory ops per core), -writebacks (Table 2
// stream length), -trials (Figure 3 injections), -runs (Table 2 averaging
// runs, as the paper averages three executions).
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"authmem/internal/core"
	"authmem/internal/ctr"
	"authmem/internal/fault"
	"authmem/internal/sim"
	"authmem/internal/stats"
	"authmem/internal/workload"
)

func main() {
	fig1 := flag.Bool("fig1", false, "reproduce Figure 1 (storage overhead)")
	fig3 := flag.Bool("fig3", false, "reproduce Figure 3 (fault handling)")
	fig8 := flag.Bool("fig8", false, "reproduce Figure 8 (IPC impact)")
	table2 := flag.Bool("table2", false, "reproduce Table 2 (re-encryption rate)")
	srvBench := flag.Bool("server", false, "run the serving-layer benchmarks (loopback and TCP through the client/server stack) and write the tracked JSON baseline")
	srvBenchOut := flag.String("server-out", "BENCH_server.json", "output path for -server")
	eccBench := flag.Bool("ecc", false, "run the ECC-codec comparison (secded vs residue vs macsecded check-bit kernels and engine seal/read) and write the tracked JSON baseline")
	eccBenchOut := flag.String("ecc-out", "BENCH_ecc.json", "output path for -ecc")
	persist := flag.Bool("persist", false, "run the incremental-persistence benchmark (AppendDelta vs full Persist across dirty fractions, plus WAL replay) and write the tracked JSON baseline")
	persistOut := flag.String("persist-out", "BENCH_persist.json", "output path for -persist")
	clusterBench := flag.Bool("cluster", false, "run the distributed cluster benchmark (1/2/4-node quorum throughput vs a direct single node) and write the tracked JSON baseline")
	clusterBenchOut := flag.String("cluster-out", "BENCH_cluster.json", "output path for -cluster")
	quick := flag.Bool("quick", false, "shrink the benchmark workloads for a fast smoke run")
	all := flag.Bool("all", false, "reproduce everything")
	ops := flag.Uint64("ops", 1_000_000, "Figure 8: memory ops per core")
	writebacks := flag.Uint64("writebacks", 16_000_000, "Table 2: writeback stream length")
	trials := flag.Int("trials", 2000, "Figure 3: injections per cell")
	runs := flag.Int("runs", 3, "Table 2: runs to average (paper averages 3)")
	seed := flag.Int64("seed", 1, "base PRNG seed")
	csvDir := flag.String("csv", "", "also write each result as CSV into this directory")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected benchmarks to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the selected benchmarks to this file")
	flag.Parse()
	outDir = *csvDir

	any := *fig1 || *fig3 || *fig8 || *table2 || *srvBench || *eccBench || *persist || *clusterBench || *all
	if !any {
		flag.Usage()
		os.Exit(2)
	}
	if *all {
		*fig1, *fig3, *fig8, *table2, *srvBench, *eccBench, *persist, *clusterBench = true, true, true, true, true, true, true, true
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settled live-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}
	if *srvBench {
		runServer(*srvBenchOut, *quick)
	}
	if *eccBench {
		runECCBench(*eccBenchOut, *quick)
	}
	if *persist {
		runPersistBench(*persistOut, *quick)
	}
	if *clusterBench {
		runClusterBench(*clusterBenchOut, *quick)
	}
	if *fig1 {
		runFig1()
	}
	if *fig3 {
		runFig3(*trials, *seed)
	}
	if *table2 {
		runTable2(*writebacks, *runs, *seed)
	}
	if *fig8 {
		runFig8(*ops, *seed)
	}
}

func runFig1() {
	fmt.Println("=== Figure 1: storage overhead (512MB protected region) ===")
	tb := stats.NewTable("design point", "counters%", "tree%", "MACs%", "total%", "tree levels")
	points := []struct {
		name      string
		scheme    ctr.Kind
		placement core.MACPlacement
	}{
		{"baseline (mono + inline MAC)", ctr.Monolithic, core.MACInline},
		{"split + inline MAC", ctr.Split, core.MACInline},
		{"proposed (delta + MAC-in-ECC)", ctr.Delta, core.MACInECC},
		{"dual-length + MAC-in-ECC", ctr.DualLength, core.MACInECC},
	}
	pct := func(n uint64, o core.Overhead) string {
		return stats.Pct(100 * float64(n) / float64(o.RegionBytes))
	}
	rows := [][]string{{"design", "counters_pct", "tree_pct", "macs_pct", "total_pct", "tree_levels"}}
	for _, p := range points {
		o, err := core.ComputeOverhead(core.Default(p.scheme, p.placement))
		if err != nil {
			fatal(err)
		}
		tb.AddRow(p.name, pct(o.CounterBytes, o), pct(o.TreeBytes, o), pct(o.MACBytes, o),
			stats.Pct(o.EncryptionOverheadPct()), o.TreeLevels)
		rows = append(rows, []string{p.name,
			fmt.Sprintf("%.4f", 100*float64(o.CounterBytes)/float64(o.RegionBytes)),
			fmt.Sprintf("%.4f", 100*float64(o.TreeBytes)/float64(o.RegionBytes)),
			fmt.Sprintf("%.4f", 100*float64(o.MACBytes)/float64(o.RegionBytes)),
			fmt.Sprintf("%.4f", o.EncryptionOverheadPct()),
			fmt.Sprintf("%d", o.TreeLevels)})
	}
	fmt.Print(tb)
	writeCSV("fig1", rows)
	fmt.Println("paper: baseline ~22% -> proposed ~2% (~10x); tree 5 -> 4 levels")
	fmt.Println()
}

func runFig3(trials int, seed int64) {
	fmt.Printf("=== Figure 3: fault handling (%d trials/cell; corrected/detected/miscorrected %%) ===\n", trials)
	tb := stats.NewTable("fault pattern", "SEC-DED(72,64)", "MAC-in-ECC")
	rows := [][]string{{"pattern", "secded_corrected", "secded_detected", "secded_miscorrected",
		"macecc_corrected", "macecc_detected", "macecc_miscorrected"}}
	for _, class := range fault.Classes() {
		sec := fault.InjectSECDED(class, trials, seed)
		mec, err := fault.InjectMACECC(class, trials, seed, 2)
		if err != nil {
			fatal(err)
		}
		row := func(r fault.Result) string {
			return fmt.Sprintf("%5.1f /%5.1f /%5.1f",
				r.CorrectedPct(), r.DetectedPct(), r.MiscorrectedPct())
		}
		tb.AddRow(class.String(), row(sec), row(mec))
		rows = append(rows, []string{class.String(),
			fmt.Sprintf("%.2f", sec.CorrectedPct()), fmt.Sprintf("%.2f", sec.DetectedPct()),
			fmt.Sprintf("%.2f", sec.MiscorrectedPct()),
			fmt.Sprintf("%.2f", mec.CorrectedPct()), fmt.Sprintf("%.2f", mec.DetectedPct()),
			fmt.Sprintf("%.2f", mec.MiscorrectedPct())})
	}
	fmt.Print(tb)
	writeCSV("fig3", rows)
	fmt.Println()
}

func runTable2(writebacks uint64, runs int, seed int64) {
	fmt.Printf("=== Table 2: re-encryptions per 10^9 cycles (avg of %d runs, %dM writebacks each) ===\n",
		runs, writebacks/1_000_000)
	paper := map[string][3]int{
		"facesim": {880, 113, 176}, "dedup": {725, 51, 14}, "canneal": {167, 167, 128},
		"vips": {77, 77, 24}, "ferret": {33, 23, 5}, "fluidanimate": {4, 4, 0},
		"freqmine": {3, 0, 0}, "raytrace": {2, 2, 0}, "swaptions": {0, 0, 0},
		"blackscholes": {0, 0, 0}, "bodytrack": {0, 0, 0},
	}
	tb := stats.NewTable("program", "split-7", "7-bit delta", "dual-length", "paper (s/d/dl)")
	rows := [][]string{{"program", "split", "delta", "dual",
		"paper_split", "paper_delta", "paper_dual"}}
	for _, app := range workload.Apps() {
		var vals [3]float64
		for i, k := range []ctr.Kind{ctr.Split, ctr.Delta, ctr.DualLength} {
			var sum float64
			for r := 0; r < runs; r++ {
				res, err := sim.MeasureReencryption(app, k, writebacks, seed+int64(r))
				if err != nil {
					fatal(err)
				}
				sum += res.PerBillionCycles
			}
			vals[i] = sum / float64(runs)
		}
		p := paper[app.Name]
		tb.AddRow(app.Name, vals[0], vals[1], vals[2],
			fmt.Sprintf("%d / %d / %d", p[0], p[1], p[2]))
		rows = append(rows, []string{app.Name,
			fmt.Sprintf("%.2f", vals[0]), fmt.Sprintf("%.2f", vals[1]),
			fmt.Sprintf("%.2f", vals[2]),
			fmt.Sprintf("%d", p[0]), fmt.Sprintf("%d", p[1]), fmt.Sprintf("%d", p[2])})
	}
	fmt.Print(tb)
	writeCSV("table2", rows)
	fmt.Println()
}

func runFig8(ops uint64, seed int64) {
	fmt.Printf("=== Figure 8: normalized IPC (vs no encryption; %d mem ops/core) ===\n", ops)
	points := sim.StandardDesignPoints()
	tb := stats.NewTable("program", "bmt", "mac-ecc", "proposed", "gain over bmt")
	rows := [][]string{{"program", "bmt", "mac_ecc", "proposed", "gain_pct"}}
	var sumGain float64
	var n int
	type mech struct {
		hit        float64
		txns       float64
		treeLevels int
		count      int
	}
	mechs := map[string]*mech{}
	for _, app := range workload.Apps() {
		if !app.MemorySensitive {
			continue
		}
		norm, results, err := sim.NormalizedIPC(app, points, ops, seed)
		if err != nil {
			fatal(err)
		}
		for _, r := range results {
			if r.Design == "no-encryption" {
				continue
			}
			m := mechs[r.Design]
			if m == nil {
				m = &mech{}
				mechs[r.Design] = m
			}
			m.hit += r.MetaHitRate
			if r.CPU.L3Misses > 0 {
				m.txns += float64(r.Timing.Transactions()) / float64(r.CPU.L3Misses)
			}
			m.treeLevels = r.TreeLevels
			m.count++
		}
		gain := 100 * (norm["proposed"]/norm["bmt"] - 1)
		sumGain += gain
		n++
		tb.AddRow(app.Name,
			fmt.Sprintf("%.3f", norm["bmt"]),
			fmt.Sprintf("%.3f", norm["mac-ecc"]),
			fmt.Sprintf("%.3f", norm["proposed"]),
			fmt.Sprintf("+%.1f%%", gain))
		rows = append(rows, []string{app.Name,
			fmt.Sprintf("%.4f", norm["bmt"]), fmt.Sprintf("%.4f", norm["mac-ecc"]),
			fmt.Sprintf("%.4f", norm["proposed"]), fmt.Sprintf("%.2f", gain)})
	}
	fmt.Print(tb)
	writeCSV("fig8", rows)
	fmt.Printf("mean IPC gain over BMT across memory-sensitive apps: +%.1f%%\n\n", sumGain/float64(n))

	// Mechanism summary: where the gains come from (§5.2's discussion).
	mtb := stats.NewTable("design", "tree read depth", "metadata cache hit rate", "DRAM txns per L3 miss")
	for _, name := range []string{"bmt", "mac-ecc", "proposed"} {
		m := mechs[name]
		if m == nil || m.count == 0 {
			continue
		}
		mtb.AddRow(name, m.treeLevels,
			fmt.Sprintf("%.3f", m.hit/float64(m.count)),
			fmt.Sprintf("%.2f", m.txns/float64(m.count)))
	}
	fmt.Print(mtb)
	fmt.Println("paper: proposed improves IPC by 1%-28% over BMT (average ~5% across the suite;")
	fmt.Println("the four compute-bound apps are unaffected and omitted, as in the paper).")
}

// outDir, when non-empty, receives one CSV per experiment.
var outDir string

// writeCSV emits rows (header first) to <outDir>/<name>.csv when -csv is set.
func writeCSV(name string, rows [][]string) {
	if outDir == "" {
		return
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(outDir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		fatal(err)
	}
	w.Flush()
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperbench:", err)
	os.Exit(1)
}

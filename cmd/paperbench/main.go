// Command paperbench regenerates every table and figure in the paper's
// evaluation section, and nothing else (performance of the stack itself is
// bench/'s job):
//
//	-fig1    storage overhead breakdown (Figure 1)
//	-fig3    fault-pattern error-handling matrix (Figure 3)
//	-fig8    normalized IPC across design points (Figure 8)
//	-table2  re-encryptions per 10^9 cycles per counter scheme (Table 2)
//	-all     everything above
//
// Scale knobs: -ops (Figure 8 memory ops per core), -writebacks (Table 2
// stream length), -trials (Figure 3 injections), -runs (Table 2 averaging
// runs, as the paper averages three executions). Results go to stdout;
// -csv is the only thing that writes a file.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"authmem/internal/core"
	"authmem/internal/ctr"
	"authmem/internal/fault"
	"authmem/internal/sim"
	"authmem/internal/stats"
	"authmem/internal/workload"
)

// options is the whole command line.
type options struct {
	fig1, fig3, fig8, table2, all bool

	ops, writebacks uint64
	trials, runs    int
	seed            int64
	csvDir          string
}

func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("paperbench", flag.ExitOnError)
	fs.BoolVar(&o.fig1, "fig1", false, "reproduce Figure 1 (storage overhead)")
	fs.BoolVar(&o.fig3, "fig3", false, "reproduce Figure 3 (fault handling)")
	fs.BoolVar(&o.fig8, "fig8", false, "reproduce Figure 8 (IPC impact)")
	fs.BoolVar(&o.table2, "table2", false, "reproduce Table 2 (re-encryption rate)")
	fs.BoolVar(&o.all, "all", false, "reproduce everything")
	fs.Uint64Var(&o.ops, "ops", 1_000_000, "Figure 8: memory ops per core")
	fs.Uint64Var(&o.writebacks, "writebacks", 16_000_000, "Table 2: writeback stream length")
	fs.IntVar(&o.trials, "trials", 2000, "Figure 3: injections per cell")
	fs.IntVar(&o.runs, "runs", 3, "Table 2: runs to average (paper averages 3)")
	fs.Int64Var(&o.seed, "seed", 1, "base PRNG seed")
	fs.StringVar(&o.csvDir, "csv", "", "also write each result as CSV into this directory")
	return fs
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}

// run prints the figures args select to w.
func run(args []string, w io.Writer) error {
	var o options
	fs := newFlagSet(&o)
	fs.Parse(args) // ExitOnError
	if o.all {
		o.fig1, o.fig3, o.fig8, o.table2 = true, true, true, true
	}
	if !(o.fig1 || o.fig3 || o.fig8 || o.table2) {
		fs.Usage()
		os.Exit(2)
	}
	for _, fig := range []struct {
		on  bool
		run func(io.Writer, options) error
	}{{o.fig1, runFig1}, {o.fig3, runFig3}, {o.table2, runTable2}, {o.fig8, runFig8}} {
		if fig.on {
			if err := fig.run(w, o); err != nil {
				return err
			}
		}
	}
	return nil
}

func runFig1(w io.Writer, opt options) error {
	fmt.Fprintln(w, "=== Figure 1: storage overhead (512MB protected region) ===")
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
			return err
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
	fmt.Fprint(w, tb)
	if err := writeCSV(w, opt.csvDir, "fig1", rows); err != nil {
		return err
	}
	fmt.Fprintln(w, "paper: baseline ~22% -> proposed ~2% (~10x); tree 5 -> 4 levels")
	fmt.Fprintln(w)
	return nil
}

func runFig3(w io.Writer, opt options) error {
	fmt.Fprintf(w, "=== Figure 3: fault handling (%d trials/cell; corrected/detected/miscorrected %%) ===\n", opt.trials)
	tb := stats.NewTable("fault pattern", "SEC-DED(72,64)", "MAC-in-ECC")
	rows := [][]string{{"pattern", "secded_corrected", "secded_detected", "secded_miscorrected",
		"macecc_corrected", "macecc_detected", "macecc_miscorrected"}}
	for _, class := range fault.Classes() {
		sec := fault.InjectSECDED(class, opt.trials, opt.seed)
		mec, err := fault.InjectMACECC(class, opt.trials, opt.seed, 2)
		if err != nil {
			return err
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
	fmt.Fprint(w, tb)
	if err := writeCSV(w, opt.csvDir, "fig3", rows); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func runTable2(w io.Writer, opt options) error {
	fmt.Fprintf(w, "=== Table 2: re-encryptions per 10^9 cycles (avg of %d runs, %dM writebacks each) ===\n",
		opt.runs, opt.writebacks/1_000_000)
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
			for r := 0; r < opt.runs; r++ {
				res, err := sim.MeasureReencryption(app, k, opt.writebacks, opt.seed+int64(r))
				if err != nil {
					return err
				}
				sum += res.PerBillionCycles
			}
			vals[i] = sum / float64(opt.runs)
		}
		p := paper[app.Name]
		tb.AddRow(app.Name, vals[0], vals[1], vals[2],
			fmt.Sprintf("%d / %d / %d", p[0], p[1], p[2]))
		rows = append(rows, []string{app.Name,
			fmt.Sprintf("%.2f", vals[0]), fmt.Sprintf("%.2f", vals[1]),
			fmt.Sprintf("%.2f", vals[2]),
			fmt.Sprintf("%d", p[0]), fmt.Sprintf("%d", p[1]), fmt.Sprintf("%d", p[2])})
	}
	fmt.Fprint(w, tb)
	if err := writeCSV(w, opt.csvDir, "table2", rows); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func runFig8(w io.Writer, opt options) error {
	fmt.Fprintf(w, "=== Figure 8: normalized IPC (vs no encryption; %d mem ops/core) ===\n", opt.ops)
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
		norm, results, err := sim.NormalizedIPC(app, points, opt.ops, opt.seed)
		if err != nil {
			return err
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
	fmt.Fprint(w, tb)
	if err := writeCSV(w, opt.csvDir, "fig8", rows); err != nil {
		return err
	}
	fmt.Fprintf(w, "mean IPC gain over BMT across memory-sensitive apps: +%.1f%%\n\n", sumGain/float64(n))

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
	fmt.Fprint(w, mtb)
	fmt.Fprintln(w, "paper: proposed improves IPC by 1%-28% over BMT (average ~5% across the suite;")
	fmt.Fprintln(w, "the four compute-bound apps are unaffected and omitted, as in the paper).")
	return nil
}

// writeCSV emits rows (header first) to <dir>/<name>.csv when -csv is set.
func writeCSV(w io.Writer, dir, name string, rows [][]string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := csv.NewWriter(f).WriteAll(rows); err != nil { // WriteAll flushes
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}

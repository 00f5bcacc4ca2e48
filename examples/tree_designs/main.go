// Tree designs: a guided tour of the three integrity-tree generations the
// paper's §2.2 walks through — the classic Merkle tree over data, the
// Bonsai Merkle tree over counters, and the paper's delta-compacted BMT —
// measuring what each costs in storage and in DRAM traffic on an identical
// access stream.
//
// Run with:
//
//	go run ./examples/tree_designs
package main

import (
	"fmt"
	"log"

	"authmem/internal/core"
	"authmem/internal/cpu"
	"authmem/internal/ctr"
	"authmem/internal/dram"
	"authmem/internal/sim"
	"authmem/internal/stats"
	"authmem/internal/workload"
)

func main() {
	type design struct {
		name string
		cfg  sim.TimingConfig
	}
	// The classic tree is a design point of the timing model only: the
	// functional engine builds the Bonsai Merkle tree.
	classic := sim.Table1(core.Default(ctr.Monolithic, core.MACInline))
	classic.DataTree = true
	designs := []design{
		{"classic Merkle (over data)", classic},
		{"Bonsai Merkle (over counters)", sim.Table1(core.Default(ctr.Monolithic, core.MACInline))},
		{"proposed (delta + MAC-in-ECC)", sim.Table1(core.Default(ctr.Delta, core.MACInECC))},
	}

	app, _ := workload.ByName("canneal")
	const ops = 200_000

	fmt.Println("Three generations of memory integrity trees on a canneal-like stream")
	fmt.Println("(512MB protected region, Table 1 platform):")
	fmt.Println()
	tb := stats.NewTable("design", "storage overhead", "tree levels",
		"DRAM txns", "metadata hit rate", "IPC")
	for _, d := range designs {
		o, err := d.cfg.Overhead()
		if err != nil {
			log.Fatal(err)
		}
		tm, err := sim.NewTimingModel(d.cfg, dram.MustNew(dram.DDR3_1600(4)))
		if err != nil {
			log.Fatal(err)
		}
		r, err := sim.Run(cpu.Table1(), sim.Traces(app, ops, 1), tm)
		if err != nil {
			log.Fatal(err)
		}
		tb.AddRow(d.name,
			stats.Pct(o.EncryptionOverheadPct()),
			o.TreeLevels,
			r.Timing.Transactions(),
			fmt.Sprintf("%.3f", r.MetaHitRate),
			fmt.Sprintf("%.4f", r.IPC))
	}
	fmt.Print(tb)
	fmt.Println()
	fmt.Println("Each generation removes work: Bonsai trees shrink the tree ~9x by")
	fmt.Println("covering counters instead of data (Rogers et al.); delta encoding")
	fmt.Println("shrinks it ~8x again and drops a level; MAC-in-ECC removes the MAC")
	fmt.Println("fetch entirely. The rightmost columns show the traffic and IPC that")
	fmt.Println("storage translates into.")
}

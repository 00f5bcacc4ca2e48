// Command overhead reproduces Figure 1: the storage overhead of
// authenticated memory encryption under the baseline and the proposed
// design points, plus the integrity-tree geometry (§5.2's 5-level vs
// 4-level trees).
//
// Usage:
//
//	overhead [-region bytes] [-onchip bytes]
package main

import (
	"flag"
	"fmt"
	"os"

	"authmem/internal/core"
	"authmem/internal/ctr"
	"authmem/internal/stats"
)

func main() {
	region := flag.Uint64("region", 512<<20, "protected region size in bytes")
	onchip := flag.Int("onchip", 3<<10, "on-chip tree root SRAM budget in bytes")
	flag.Parse()

	type point struct {
		name      string
		scheme    ctr.Kind
		placement core.MACPlacement
		dataTree  bool
		residue   bool // check bits recomputed for the residue(32) code
	}
	points := []point{
		{"classic Merkle tree over data", ctr.Monolithic, core.MACInline, true, false},
		{"baseline (56b ctr + inline MAC)", ctr.Monolithic, core.MACInline, false, false},
		{"split counters + inline MAC", ctr.Split, core.MACInline, false, false},
		{"delta + inline MAC", ctr.Delta, core.MACInline, false, false},
		{"delta + inline MAC + residue", ctr.Delta, core.MACInline, false, true},
		{"monolithic + MAC-in-ECC", ctr.Monolithic, core.MACInECC, false, false},
		{"proposed (delta + MAC-in-ECC)", ctr.Delta, core.MACInECC, false, false},
		{"dual-length + MAC-in-ECC", ctr.DualLength, core.MACInECC, false, false},
	}

	fmt.Printf("Figure 1: encryption metadata storage overhead, %s protected region\n\n",
		stats.FormatBytes(*region))
	tb := stats.NewTable("design point", "codec", "counters", "tree", "MACs", "total", "overhead", "check bits", "tree levels")
	for _, p := range points {
		cfg := core.Default(p.scheme, p.placement)
		cfg.RegionBytes = *region
		cfg.OnChipTreeBytes = *onchip
		cfg.DataTree = p.dataTree
		o, err := core.ComputeOverhead(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "overhead:", err)
			os.Exit(1)
		}
		if p.residue {
			// The residue(32) check code (PAPERS.md) is not an engine codec;
			// only its storage is kept: 4 check bytes per block.
			o.Codec = "residue"
			o.ECCBytes = cfg.DataBlocks() * residueCheckBytes
		}
		// Check-bit storage is what the codec stores per block: 12.5% for
		// the 8-byte codes, 6.25% for the 4-byte residue code.
		checkPct := 100 * float64(o.ECCBytes) / float64(o.RegionBytes)
		tb.AddRow(p.name,
			o.Codec,
			stats.FormatBytes(o.CounterBytes),
			stats.FormatBytes(o.TreeBytes),
			stats.FormatBytes(o.MACBytes),
			stats.FormatBytes(o.EncryptionOverheadBytes()),
			stats.Pct(o.EncryptionOverheadPct()),
			fmt.Sprintf("%s (%s)", stats.FormatBytes(o.ECCBytes), stats.Pct(checkPct)),
			o.TreeLevels)
	}
	fmt.Print(tb)
	fmt.Println("\nThe check-bit column is what the codec stores per block: the standard")
	fmt.Println("ECC DIMM provisions 12.5% either way, which the 8-byte codecs (secded,")
	fmt.Println("macsecded) fill exactly; the 4-byte residue code needs only half of it.")
	fmt.Println("\nPaper: baseline ~22% total; proposed ~2% (a ~10x reduction), and the")
	fmt.Println("off-chip tree shrinks from 5 to 4 levels at 512MB with a 3KB root (§5.2).")

	durabilityPlane()
}

// residueCheckBytes is the residue(32) code's check footprint per block:
// one 32-bit residue modulo 2^32-1.
const residueCheckBytes = 4

// durabilityPlane measures what the persistence layer stores on top of the
// in-DRAM accounting above: the full base snapshot and the sealed delta-log
// records, per design point. A small fully-populated region is built live —
// the image and record sizes are per-block/per-group geometry, so the
// measured figures scale linearly to any region size.
func durabilityPlane() {
	const region = 4 << 20
	const groupBytes = 64 * core.BlockBytes

	type point struct {
		name      string
		scheme    ctr.Kind
		placement core.MACPlacement
	}
	points := []point{
		{"baseline (mono + inline MAC)", ctr.Monolithic, core.MACInline},
		{"delta + inline MAC", ctr.Delta, core.MACInline},
		{"proposed (delta + MAC-in-ECC)", ctr.Delta, core.MACInECC},
	}

	fmt.Println("\nDurability plane: base snapshot and sealed WAL record storage")
	fmt.Println()
	tb := stats.NewTable("design point", "snapshot", "snap/region", "group span", "record header", "per block", "1 block written", "whole group", "group/span", "epoch heartbeat")
	for _, p := range points {
		cfg := core.Default(p.scheme, p.placement)
		cfg.RegionBytes = region
		eng, err := core.NewEngine(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "overhead:", err)
			os.Exit(1)
		}
		blk := make([]byte, core.BlockBytes)
		for i := range blk {
			blk[i] = byte(i * 13)
		}
		for addr := uint64(0); addr < region; addr += core.BlockBytes {
			if err := eng.Write(addr, blk); err != nil {
				fmt.Fprintln(os.Stderr, "overhead:", err)
				os.Exit(1)
			}
		}
		eng.EnableDeltaTracking()

		var snap countWriter
		if _, err := eng.Persist(&snap); err != nil {
			fmt.Fprintln(os.Stderr, "overhead:", err)
			os.Exit(1)
		}
		var log countWriter
		w, err := eng.NewDeltaWriter(&log)
		if err != nil {
			fmt.Fprintln(os.Stderr, "overhead:", err)
			os.Exit(1)
		}
		// A dirty-set "group" is one counter-metadata block's span: 4KB
		// for the grouped schemes, 8 blocks (512B) for monolithic, whose
		// counters pack 8 to a metadata block.
		span := uint64(groupBytes)
		if p.scheme == ctr.Monolithic {
			span = 8 * core.BlockBytes
		}
		// Three epochs over one fully-populated group: one block written
		// (the common record), every block written (what a group
		// re-encryption logs: all 64 resealed), nothing written (the sealed
		// commit heartbeat). The differences isolate the record, and the two
		// records give its fixed header and its per-block cost.
		epoch := func(write []byte) int64 {
			var st core.DeltaStats
			var err error
			if write != nil {
				err = eng.WriteBlocks(0, write)
			}
			if err == nil {
				st, err = eng.AppendDelta(w)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "overhead:", err)
				os.Exit(1)
			}
			return st.Bytes
		}
		oneEpoch := epoch(blk)
		groupEpoch := epoch(make([]byte, span))
		hb := epoch(nil)
		oneRec, groupRec := oneEpoch-hb, groupEpoch-hb
		perBlock := (groupRec - oneRec) / int64(span/core.BlockBytes-1)
		tb.AddRow(p.name,
			stats.FormatBytes(uint64(snap.n)),
			stats.Pct(100*float64(snap.n)/float64(region)),
			stats.FormatBytes(span),
			fmt.Sprintf("%d B", oneRec-perBlock),
			fmt.Sprintf("%d B", perBlock),
			fmt.Sprintf("%d B", oneRec),
			stats.FormatBytes(uint64(groupRec)),
			stats.Pct(100*float64(groupRec)/float64(span)),
			fmt.Sprintf("%d B", hb))
	}
	fmt.Print(tb)
	fmt.Println("\nA delta-log record carries its group's counter image and only the")
	fmt.Println("blocks written since the group's last record. The record header is 48B")
	fmt.Println("of framing and seal, the record type, group index and block bitmap,")
	fmt.Println("and the 64B counter image; each carried block adds its ciphertext,")
	fmt.Println("its 8B metadata lane and, under the inline placements, its check bytes.")
	fmt.Println("\"whole group\" is the record after a group re-encryption, which reseals")
	fmt.Println("every block; group/span is its size relative to the span it covers. The")
	fmt.Println("heartbeat is what an idle checkpoint epoch appends: one sealed commit")
	fmt.Println("record pinning the root digest.")
}

// countWriter measures what a persist path writes without buffering it.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

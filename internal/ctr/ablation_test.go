package ctr_test

import (
	"testing"

	"authmem/internal/ctr"
	"authmem/internal/workload"
)

// BenchmarkAblationDeltaWidth sweeps the delta width / group size design
// space §4.2 leaves open (all fitting one 64-byte metadata block) and
// reports the re-encryption rate of each point under a hot-block stream —
// the storage-vs-overflow trade-off behind the paper's choice of 7 bits.
// The points run on the reference delta rule, which takes any geometry.
func BenchmarkAblationDeltaWidth(b *testing.B) {
	app := ablationHotApp()
	points := []struct {
		name  string
		width uint
		group int
	}{
		{"w5-g64", 5, 64},
		{"w6-g64", 6, 64},
		{"w7-g64-paper", 7, 64},
		{"w8-g56", 8, 56},
		{"w12-g38", 12, 38},
	}
	for _, p := range points {
		b.Run(p.name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				s := ctr.NewRefDelta(false, p.width, p.group)
				gen := app.WritebackGen(int64(i + 1))
				const n = 1_000_000
				for j := 0; j < n; j++ {
					s.Touch(gen.Next())
				}
				cycles := float64(n) * 1000 / app.WB.PerKiloCycle
				rate = float64(s.Stats().Reencryptions) * 1e9 / cycles
			}
			b.ReportMetric(rate, "reenc/1e9cyc")
			b.ReportMetric(float64(ctr.RefBits+p.group*int(p.width))/float64(p.group), "bits/block")
		})
	}
}

// BenchmarkAblationSplitMinorWidth sweeps split-counter minor widths for
// the same trade-off on the baseline scheme.
func BenchmarkAblationSplitMinorWidth(b *testing.B) {
	app := ablationHotApp()
	for _, w := range []uint{5, 6, 7} {
		b.Run(map[uint]string{5: "w5", 6: "w6", 7: "w7-paper"}[w], func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				s := ctr.NewRefSplit(w, 64)
				gen := app.WritebackGen(int64(i + 1))
				const n = 1_000_000
				for j := 0; j < n; j++ {
					s.Touch(gen.Next())
				}
				cycles := float64(n) * 1000 / app.WB.PerKiloCycle
				rate = float64(s.Stats().Reencryptions) * 1e9 / cycles
			}
			b.ReportMetric(rate, "reenc/1e9cyc")
		})
	}
}

// ablationHotApp is a canneal-style stream hot enough that every swept
// delta width (up to 12 bits) overflows within 1M writebacks: 8 isolated
// hot blocks receiving ~6k writes each.
func ablationHotApp() workload.App {
	return workload.App{
		Name: "ablation-hot",
		WB: workload.WritebackShape{
			PerKiloCycle: 4.0,
			Classes: []workload.GroupClass{
				{Frac: 0.05, Groups: 8, Dist: workload.FewHot, HotBlocks: 1, Subgroups: 1},
			},
			BackgroundGroups: 16384,
		},
	}
}

package main

import (
	"hash/fnv"
	"os"
	"regexp"
	"testing"
	"time"
)

// The benchmark runs from the repository root (BENCHMARK.json, bench/out,
// .bench_build are all relative to it); so do its tests.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// quickConfig is a smoke-size run: a fixed handful of slice pairs, so the
// amount of work does not depend on how slow the test binary is (-race).
func quickConfig(t *testing.T, workload string) runConfig {
	return runConfig{
		workload: workload, seed: 7, pairs: 6, quick: true, refLoads: -1,
		scratch: t.TempDir(), outDir: t.TempDir(),
	}
}

// A slowdown that hits work and reference alike must cancel; one that hits
// only the work must show in full.
func TestEstimatorCancelsCommonSlowdown(t *testing.T) {
	work := []float64{10, 11, 9, 10.5, 10, 30, 10.2, 9.8, 10.1, 10}
	ref := []float64{2, 2.1, 1.9, 2, 2.05, 2, 2, 1.95, 2, 2.1, 2}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	base := median(ratios(work, ref))
	if both := median(ratios(scale(work, 1.5), scale(ref, 1.5))); both/base < 1-1e-12 || both/base > 1+1e-12 {
		t.Errorf("common 1.5x slowdown moved the estimate: %v -> %v", base, both)
	}
	if only := median(ratios(scale(work, 1.5), ref)); only/base < 1.4999 || only/base > 1.5001 {
		t.Errorf("1.5x work-only slowdown reads %vx", only/base)
	}
	// Drift within the window: the second half of the host is 1.3x slower.
	w2, r2 := append([]float64(nil), work...), append([]float64(nil), ref...)
	for i := 5; i < len(w2); i++ {
		w2[i] *= 1.3
	}
	for i := 6; i < len(r2); i++ {
		r2[i] *= 1.3
	}
	if drift := median(ratios(w2, r2)); drift/base < 0.97 || drift/base > 1.03 {
		t.Errorf("mid-window drift moved the estimate by %vx", drift/base)
	}
}

func streamHash(w *workload, seed int64) uint64 {
	h := fnv.New64a()
	for c := 0; c < w.callers; c++ {
		s := newStream(w, seed, c)
		for i := 0; i < 20000; i++ {
			addr, blocks, write := s.next()
			var rec [10]byte
			for b := 0; b < 8; b++ {
				rec[b] = byte(addr >> (8 * b))
			}
			rec[8] = byte(blocks)
			if write {
				rec[9] = 1
			}
			h.Write(rec[:])
		}
	}
	return h.Sum64()
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads(true) {
		a, b, c := streamHash(w, 1), streamHash(w, 1), streamHash(w, 2)
		if a != b {
			t.Errorf("%s: seed 1 gave two different op streams", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same op stream", w.name)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestSpecMatchesCode(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	for _, ms := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, m := range ms {
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("metric name %q is malformed or repeated", m.Name)
			}
			seen[m.Name] = true
		}
	}
	code := workloads(false)
	if len(code) != len(spec.Workloads) {
		t.Fatalf("code has %d workloads, %s has %d", len(code), specFile, len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != code[i].name || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d is %q in %s and %q in code", i, w.Name, specFile, code[i].name)
		}
	}

	// report is what holds the printed metrics to the declared ones.
	decl := []metricSpec{{Name: "a", Unit: "s"}, {Name: "b", Unit: "s"}}
	if _, err := (outcome{metrics: map[string]float64{"a": 1}}).report(decl); err == nil {
		t.Error("report accepted a run that did not measure a declared metric")
	}
	if _, err := (outcome{metrics: map[string]float64{"a": 1, "b": 2, "c": 3}}).report(decl); err == nil {
		t.Error("report accepted a metric that is not declared")
	}
}

// An uncorrectable fault must be counted as a failed op; a correctable one
// must not.
func TestOracleCountsUncorrectableFlips(t *testing.T) {
	w := workloadByName("embed-hot", true)
	for _, tc := range []struct {
		flips  int
		failed int
	}{{flips: 1, failed: 0}, {flips: 2, failed: 0}, {flips: 3, failed: 1}} {
		or := newOracle(3, w.region)
		markPopulated(w, or)
		st, err := buildStack(stackEngine, w, or, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		const addr = 2 * spanBytes
		for bit := 0; bit < tc.flips; bit++ {
			if err := st.mems[0].FlipDataBit(addr+blockBytes, 17+40*bit); err != nil {
				t.Fatal(err)
			}
		}
		c := &caller{
			ops:     []op{{addr: addr, blocks: spanBytes / blockBytes, verify: true}},
			readbuf: make([]byte, spanBytes),
			expect:  or.versions(nil, addr, spanBytes/blockBytes),
		}
		c.run(layerCalls[st.kind], st.targets[0], false, nil, time.Now(), nil)
		if got := c.failed + c.verify(or); got != tc.failed {
			t.Errorf("%d flipped bits (CorrectBits=%d): %d failed ops, want %d", tc.flips, benchConfig(w.region).CorrectBits, got, tc.failed)
		}
		// And the oracle itself rejects data the engine would have let by.
		c.readbuf[5] ^= 1
		c.failed, c.ops[0].failed = 0, false
		if tc.failed == 0 && c.verify(or) != 1 {
			t.Error("oracle accepted a read with a wrong byte")
		}
		st.close()
	}
}

func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads(true) {
		// The durable workload's restart from its files is part of
		// runEndToEnd: a refused resume is an error, a lost write a
		// failed op.
		out, err := runEndToEnd(quickConfig(t, w.name), w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if out.failed != 0 || out.attempted == 0 {
			t.Errorf("%s: %d of %d ops failed", w.name, out.failed, out.attempted)
		}
		for name, v := range out.metrics {
			if !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, v)
			}
		}
	}
}

// With one caller and a fixed pair count, every count is a function of the
// seed: two runs must agree to the last bit.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs traced workloads twice")
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	counts := []string{
		"persist.write_amp", "persist.bytes_per_epoch", "persist.dirty_groups_per_epoch",
		"ctr.group_reencrypts_per_kwrite", "ctr.reencrypted_blocks_per_kwrite",
		"ctr.resets_per_kwrite", "ctr.reencodes_per_kwrite",
		"tree.deferred_leaf_flushes_per_kwrite", "tree.write_combines_per_kwrite",
	}
	for _, w := range workloads(true) {
		if w.callers != 1 {
			continue
		}
		cfg := quickConfig(t, w.name)
		var runs [2]outcome
		for i := range runs {
			if runs[i], err = runTraced(cfg, w, spec.PerLayer); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if runs[i].failed != 0 {
				t.Errorf("%s: %d failed ops", w.name, runs[i].failed)
			}
		}
		for _, name := range counts {
			if a, b := runs[0].metrics[name], runs[1].metrics[name]; a != b {
				t.Errorf("%s: %s = %v then %v", w.name, name, a, b)
			}
		}
		if sum, total := runs[0].metrics["host.waterfall_sum_ref"], runs[0].metrics["host.cost_per_op_ref"]; sum < 0.95*total || sum > 1.05*total {
			t.Errorf("%s: waterfall sums to %v, full stack costs %v", w.name, sum, total)
		}
	}
}

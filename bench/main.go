// Command stackbench is the repository's gated benchmark: five closed-loop
// workloads over the authenticated-memory stack, every timing reported in
// units of a frozen reference kernel run beside it so that the numbers
// survive a noisy two-core host. See README.md in this directory.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload embed-hot --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// benchmarkSpec is BENCHMARK.json: the one place metric names, units and
// regression bounds are declared. The benchmark reads it at run time and
// prints exactly the metrics it lists.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const specFile = "BENCHMARK.json"

func loadSpec() (*benchmarkSpec, error) {
	data, err := os.ReadFile(specFile)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	return &s, nil
}

// report is the one JSON object a run prints as its last line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a run measured, before it is cut down to the metrics
// BENCHMARK.json declares for its mode.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

// report keeps the run's mode honest both ways: every declared metric was
// measured, and nothing was measured that is not declared.
func (o outcome) report(declared []metricSpec) (report, error) {
	r := report{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range declared {
		v, ok := o.metrics[d.Name]
		if !ok {
			return r, fmt.Errorf("metric %s is declared in %s but was not measured", d.Name, specFile)
		}
		r.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	for name := range o.metrics {
		if _, ok := r.Metrics[name]; !ok {
			return r, fmt.Errorf("metric %s was measured but is not declared in %s", name, specFile)
		}
	}
	return r, nil
}

// runConfig is one run's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	pairs    int // > 0: fixed slice-pair count instead of a time box
	trace    bool
	quick    bool
	refLoads int    // >= 0 overrides the workload's reference mix (-calibrate)
	scratch  string // durable files go under here
	outDir   string // trace dumps go here
}

func main() {
	var cfg runConfig
	var trace string
	var selfcheck, calibrate bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same op streams")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "how long the measured window runs")
	flag.StringVar(&trace, "trace", "0", "1: traced run, prints the per-layer metrics; 0: end-to-end metrics")
	flag.IntVar(&cfg.pairs, "pairs", 0, "run exactly this many slice pairs instead of -seconds (counts then depend on the seed alone)")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke-test sizes: small cold region, one set-up")
	flag.IntVar(&cfg.refLoads, "refloads", -1, "override the reference kernel's loads per iteration (used by -calibrate)")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload in repeated sets and write bench/SELFCHECK.json")
	flag.BoolVar(&calibrate, "calibrate", false, "with -workload: report run-to-run spread for each reference mix")
	flag.Parse()
	on, err := strconv.ParseBool(trace)
	if err != nil || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "stackbench: -trace takes 0 or 1; no positional arguments")
		os.Exit(2)
	}
	cfg.trace = on
	cfg.scratch = filepath.Join(".bench_build", "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	cfg.outDir = filepath.Join("bench", "out")

	switch {
	case selfcheck:
		err = runSelfcheck(cfg)
	case calibrate:
		err = runCalibrate(cfg)
	default:
		err = runOnce(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		os.Exit(1)
	}
}

// runOnce runs one workload once and prints its report.
func runOnce(cfg runConfig) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	w := workloadByName(cfg.workload, cfg.quick)
	if w == nil {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.refLoads >= 0 {
		w.refLoads = cfg.refLoads
	}
	// The host has two cores; the stack is sized for them (<= 2 callers,
	// <= 2 connections per node).
	runtime.GOMAXPROCS(2)
	defer os.RemoveAll(cfg.scratch)

	var out outcome
	declared := spec.EndToEnd
	if cfg.trace {
		declared = spec.PerLayer
		out, err = runTraced(cfg, w, declared)
	} else {
		out, err = runEndToEnd(cfg, w)
	}
	if err != nil {
		return err
	}
	rep, err := out.report(declared)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// nominalRefIterSeconds turns set-up time from reference iterations back into
// seconds: setup_s reads in seconds of a host that runs one reference
// iteration per microsecond (the sizing host runs one in 0.8-1.4).
const nominalRefIterSeconds = 1e-6

// setUp builds the workload's own stack several times — engines, populate,
// servers, dial — and returns the last one with the median build time. Each
// build sits between two reference slices and is normalised like a work
// slice, because raw set-up seconds drift with the host by 20 % between sets
// of runs. Fast set-ups are repeated more often so their median is as steady
// as a slow one's.
func setUp(cfg runConfig, w *workload, or *oracle, ref *refKernel) (*stack, float64, error) {
	kind := w.stacks[len(w.stacks)-1]
	iters := refItersPerSlice(ref.loads)
	refSlice := func() float64 {
		t0 := time.Now()
		ref.run(iters)
		return time.Since(t0).Seconds() / float64(iters)
	}
	var st *stack
	var secs []float64
	refs := []float64{refSlice()}
	total := 0.0
	for len(secs) < 3 || len(secs) < 9 && total < 1.5 {
		if st != nil {
			st.close()
			st = nil
			debug.FreeOSMemory() // the last set-up's region must not count against this one's peak
		}
		t0 := time.Now()
		var err error
		st, err = buildStack(kind, w, or, cfg.scratch, nil)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		refs = append(refs, refSlice())
		total += secs[len(secs)-1]
		if cfg.quick {
			break
		}
	}
	return st, median(ratios(secs, refs)) * nominalRefIterSeconds, nil
}

// runEndToEnd measures the workload on its own stack, untraced, and checks
// every result: verified reads during the window, then a sweep of the whole
// working set, and for the durable stack a restart from the files alone.
func runEndToEnd(cfg runConfig, w *workload) (outcome, error) {
	table := newRefTable()
	or := newOracle(uint64(cfg.seed), w.region)
	markPopulated(w, or)
	r := newRunner(w, or, cfg.seed, table)
	st, setupS, err := setUp(cfg, w, or, r.callers[0].ref)
	if err != nil {
		return outcome{}, err
	}
	defer st.close()

	res := r.window(st, windowOpts{seconds: cfg.seconds, pairs: cfg.pairs})

	checked := st.targets[0]
	if st.dur != nil {
		// Drop the engine; only the files survive.
		root := st.mems[0].RootDigest()
		st.mems, st.targets = nil, nil
		mem, err := st.dur.reopen(w.region, root)
		if err != nil {
			return outcome{}, fmt.Errorf("restart from files: %w", err)
		}
		checked = engineTarget{mem}
	}
	blocks, bad := sweep(w, or, checked)

	rss, err := peakRSSMB()
	if err != nil {
		return outcome{}, err
	}
	// Ungated host figures, for a human and for -selfcheck, which reports
	// raw throughput beside the gated figures to show what normalising buys.
	fmt.Fprintf(os.Stderr, "stackbench: %s pairs=%d host.raw_ops_per_s=%.1f host.ref_iter_us=%.4f\n",
		w.name, res.pairs, res.rawOpsPerS, res.refIterUs)
	return outcome{
		attempted: res.attempted + blocks,
		failed:    res.failed + bad,
		metrics: map[string]float64{
			"setup_s":         setupS,
			"cost_per_op_ref": res.costRef,
			"cpu_per_op_ref":  res.cpuRef,
			"read_p50_ref":    res.readP50,
			"write_p50_ref":   res.writeP50,
			"read_p95_ref":    res.readP95,
			"write_p95_ref":   res.writeP95,
			"peak_rss_mb":     rss,
		},
	}, nil
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

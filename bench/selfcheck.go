package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"

	"authmem/internal/stats"
)

// Selfcheck answers the question the gate asks before the gate does: do two
// independent sets of runs of the same code agree within the declared
// bounds? It runs every workload in full-size child processes (a fresh
// process per run, as the driver does, so peak RSS and heap state are per
// run), ten seeds to a set, in sets whose workload order alternates, and
// applies the driver's rule: within a set the interquartile range may not
// exceed the bound (set-up time excepted), and the second set's median may
// not be worse than the first's by more than the bound. It also says whether
// the medians agree within half the bound, the margin one would like.

const (
	selfcheckSets = 2
	selfcheckRuns = 10
	rawMetric     = "host.raw_ops_per_s"
)

var rawLine = regexp.MustCompile(rawMetric + `=([0-9.eE+-]+)`)

// childRun runs one end-to-end run in a child process and returns its
// metrics, plus the raw throughput it prints on standard error.
func childRun(workload string, seed int, seconds float64, extra ...string) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0"}, extra...)
	cmd := exec.Command(exe, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w: %s", workload, seed, err, stderr.String())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	if !rep.Correct {
		return nil, fmt.Errorf("%s seed %d: %d of %d ops failed", workload, seed, rep.Failed, rep.Attempted)
	}
	m := map[string]float64{}
	for name, v := range rep.Metrics {
		m[name] = v.Value
	}
	if sub := rawLine.FindSubmatch(stderr.Bytes()); sub != nil {
		m[rawMetric], _ = strconv.ParseFloat(string(sub[1]), 64)
	}
	return m, nil
}

// quartiles are Q1, median and Q3 as Python's statistics.quantiles(n=4)
// gives them (the driver's rule): position k(n+1)/4 among the sorted values,
// interpolated, clamped to the ends.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k*(len(s)+1)) / 4
		lo := int(pos)
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}

type setStats struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

type metricCheck struct {
	Bound float64 `json:"bound,omitempty"`
	// Worse is how much higher the last set's median is than the first's,
	// as a share of the first (every gated metric is lower-is-better);
	// Spread the largest interquartile range of a set, as a share of its
	// median.
	Worse           float64    `json:"worse"`
	Spread          float64    `json:"spread"`
	Pass            bool       `json:"pass"`
	WithinHalfBound bool       `json:"within_half_bound"`
	Sets            []setStats `json:"sets"`
}

type selfcheckReport struct {
	Note       string                            `json:"note"`
	Sets       int                               `json:"sets"`
	RunsPerSet int                               `json:"runs_per_set"`
	RunSeconds int                               `json:"run_seconds"`
	Pass       bool                              `json:"pass"`
	Workloads  map[string]map[string]metricCheck `json:"workloads"`
}

func check(name string, sets [][]float64, bound float64) metricCheck {
	c := metricCheck{Bound: bound}
	for _, runs := range sets {
		q1, q2, q3 := quartiles(runs)
		c.Sets = append(c.Sets, setStats{q1, q2, q3})
		c.Spread = max(c.Spread, (q3-q1)/q2)
	}
	first, last := c.Sets[0].Median, c.Sets[len(c.Sets)-1].Median
	c.Worse = (last - first) / first
	spreadOK := c.Spread <= bound || name == "setup_s"
	c.Pass = bound == 0 || spreadOK && c.Worse <= bound
	c.WithinHalfBound = bound == 0 || math.Abs(c.Worse) <= bound/2
	return c
}

func runSelfcheck(cfg runConfig) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	// values[workload][metric][set] = that set's runs.
	values := map[string]map[string][][]float64{}
	for set := 0; set < selfcheckSets; set++ {
		order := append([]workloadSpec(nil), spec.Workloads...)
		if set%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			if values[w.Name] == nil {
				values[w.Name] = map[string][][]float64{}
			}
			for run := 0; run < selfcheckRuns; run++ {
				m, err := childRun(w.Name, set*selfcheckRuns+run+1, float64(spec.RunSeconds))
				if err != nil {
					return err
				}
				for name, v := range m {
					if values[w.Name][name] == nil {
						values[w.Name][name] = make([][]float64, selfcheckSets)
					}
					values[w.Name][name][set] = append(values[w.Name][name][set], v)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: set %d %s run %d done\n", set+1, w.Name, run+1)
			}
		}
	}

	rep := selfcheckReport{
		Note: "Sets of full-size runs of one commit, ten seeds each; workload order alternates between sets. " +
			"A metric passes when each set's interquartile range is within its bound (setup_s excepted) and the last " +
			"set's median is not worse than the first's by more than the bound; within_half_bound is the wished-for margin. " +
			rawMetric + " is ungated and shown to compare raw with reference-normalised agreement.",
		Sets: selfcheckSets, RunsPerSet: selfcheckRuns, RunSeconds: spec.RunSeconds,
		Pass: true, Workloads: map[string]map[string]metricCheck{},
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	for w, metrics := range values {
		rep.Workloads[w] = map[string]metricCheck{}
		for name, sets := range metrics {
			c := check(name, sets, bounds[name])
			rep.Workloads[w][name] = c
			if !c.Pass {
				rep.Pass = false
				fmt.Fprintf(os.Stderr, "selfcheck: FAIL %s %s: spread %.1f%%, last median %+.1f%% against the first, bound %.0f%%\n", w, name, 100*c.Spread, 100*c.Worse, 100*c.Bound)
			}
		}
	}
	if err := stats.WriteJSON(filepath.Join("bench", "SELFCHECK.json"), rep); err != nil {
		return err
	}
	if !rep.Pass {
		return fmt.Errorf("selfcheck failed; see bench/SELFCHECK.json")
	}
	return nil
}

// runCalibrate reports, for each candidate reference mix, how far repeated
// runs of cfg.workload spread. The mixes take turns run by run so that a
// slow period of the host hits them alike. The steadiest mix is then frozen
// in workloads.go.
func runCalibrate(cfg runConfig) error {
	mixes := []int{0, 2, 8}
	const rounds = 8
	runs := map[int]map[string][]float64{}
	for round := 0; round < rounds; round++ {
		for _, loads := range mixes {
			m, err := childRun(cfg.workload, round+1, cfg.seconds, "-refloads", strconv.Itoa(loads))
			if err != nil {
				return err
			}
			if runs[loads] == nil {
				runs[loads] = map[string][]float64{}
			}
			for name, v := range m {
				runs[loads][name] = append(runs[loads][name], v)
			}
		}
	}
	for _, loads := range mixes {
		fmt.Printf("refloads=%d\n", loads)
		for _, name := range []string{"cost_per_op_ref", "cpu_per_op_ref", "read_p50_ref", "write_p50_ref", "read_p99_ref", "write_p99_ref"} {
			q1, q2, q3 := quartiles(runs[loads][name])
			fmt.Printf("  %-16s median %10.4g  spread %5.1f%%\n", name, q2, 100*(q3-q1)/q2)
		}
	}
	return nil
}

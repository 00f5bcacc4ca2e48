package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"authmem/internal/fault"
	"authmem/internal/workload"
)

// TestFlagSet pins the command line: the four figure selectors, -all, five
// scale/seed knobs and -csv. A twelfth flag is a new mode; performance modes
// belong in bench/.
func TestFlagSet(t *testing.T) {
	var got []string
	newFlagSet(new(options)).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"all", "csv", "fig1", "fig3", "fig8", "ops", "runs", "seed", "table2", "trials", "writebacks"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flags = %v, want %v", got, want)
	}
}

// TestAllIsThePaperFigures runs -all at toy scale in an empty directory:
// exactly Figures 1, 3, 8 and Table 2 print, and nothing is written without
// -csv (the deleted benchmark modes overwrote committed baselines in the
// working directory).
func TestAllIsThePaperFigures(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var out bytes.Buffer
	if err := run([]string{"-all", "-ops", "2000", "-writebacks", "20000", "-trials", "20", "-runs", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	var sections []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "=== ") {
			sections = append(sections, line[4:strings.Index(line, ":")])
		}
	}
	if want := []string{"Figure 1", "Figure 3", "Table 2", "Figure 8"}; !reflect.DeepEqual(sections, want) {
		t.Fatalf("-all printed sections %v, want %v", sections, want)
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("-all without -csv left %v in the working directory (err %v)", left, err)
	}

	if err := run([]string{"-fig1", "-csv", "out"}, &out); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat("out/fig1.csv"); err != nil {
		t.Fatalf("-csv did not write fig1.csv: %v", err)
	}
}

// TestRejectsNonPositiveScale: a zero or negative -trials, -runs, -ops or
// -writebacks is an error, not a table of NaN.
func TestRejectsNonPositiveScale(t *testing.T) {
	for _, args := range [][]string{
		{"-fig3", "-trials", "0"},
		{"-fig3", "-trials", "-5"},
		{"-table2", "-runs", "0"},
		{"-table2", "-runs", "-1"},
		{"-fig8", "-ops", "0"},
		{"-table2", "-writebacks", "0"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%v: no error; printed\n%s", args, out.String())
		}
	}
}

// TestTable2HeaderScale: the Table 2 header states the stream length in
// millions only when it is a whole number of millions ("16M" at full scale)
// and exactly otherwise, never a truncated "0M".
func TestTable2HeaderScale(t *testing.T) {
	for n, want := range map[uint64]string{
		16_000_000: "16M", 1_000_000: "1M", 1_500_000: "1500000", 500_000: "500000",
	} {
		if got := millions(n); got != want {
			t.Errorf("millions(%d) = %q, want %q", n, got, want)
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-table2", "-writebacks", "1500", "-runs", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if header, _, _ := strings.Cut(out.String(), "\n"); !strings.Contains(header, " 1500 writebacks each") {
		t.Errorf("-table2 -writebacks 1500 header: %q", header)
	}
}

// TestPaperGoldens holds paperbench's output at -seed 7 to
// testdata/<name>.golden, byte for byte — -fig1 and -fig3 at full scale,
// Table 2 at 1M writebacks and one run, Figure 8 at 20k ops per core — and
// checks that the goldens still state the paper's qualitative claims, so a
// regenerated golden cannot quietly lose the result. Regenerate one with
// `go run ./cmd/paperbench <args> > cmd/paperbench/testdata/<name>.golden`
// (the args are in the table below) and say in the change why it moved.
func TestPaperGoldens(t *testing.T) {
	goldens := []struct {
		name string
		args []string
	}{
		{"fig1", []string{"-fig1", "-seed", "7"}},
		{"fig3", []string{"-fig3", "-seed", "7"}},
		{"table2_1M", []string{"-table2", "-writebacks", "1000000", "-runs", "1", "-seed", "7"}},
		{"fig8_20k", []string{"-fig8", "-ops", "20000", "-seed", "7"}},
	}
	golden := map[string]string{}
	for _, g := range goldens {
		want, err := os.ReadFile(filepath.Join("testdata", g.name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		golden[g.name] = string(want)
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			if err := run(g.args, &out); err != nil {
				t.Fatal(err)
			}
			if out.String() != string(want) {
				t.Errorf("paperbench %s differs from testdata/%s.golden:\n%s",
					strings.Join(g.args, " "), g.name, out.String())
			}
		})
	}
	cells := regexp.MustCompile(`\s{2,}`)

	// Figure 1: design point -> [counters%, tree%, MACs%, total%, levels].
	fig1 := map[string][]string{}
	for _, line := range strings.Split(golden["fig1"], "\n") {
		if f := cells.Split(strings.TrimSpace(line), -1); len(f) == 6 {
			fig1[f[0]] = f[1:]
		}
	}
	base, prop := fig1["baseline (mono + inline MAC)"], fig1["proposed (delta + MAC-in-ECC)"]
	if base == nil || prop == nil {
		t.Fatalf("fig1 golden lacks the baseline or proposed row:\n%s", golden["fig1"])
	}
	if base[4] != "5" || prop[4] != "4" {
		t.Errorf("tree levels: baseline %s, proposed %s; the paper has 5 -> 4", base[4], prop[4])
	}
	if b, p := pct(t, base[3]), pct(t, prop[3]); b <= 20 || p >= 2 {
		t.Errorf("total overhead: baseline %.2f%% (want > 20%%), proposed %.2f%% (want < 2%%)", b, p)
	}

	// Figure 3: fault class -> SEC-DED then MAC-in-ECC corrected/detected/
	// miscorrected percentages.
	fig3 := map[string][]float64{}
	num := regexp.MustCompile(`\d+\.\d`)
	for _, line := range strings.Split(golden["fig3"], "\n") {
		for _, class := range fault.Classes() {
			rest, ok := strings.CutPrefix(line, class.String()+"  ")
			if !ok {
				continue
			}
			for _, n := range num.FindAllString(rest, -1) {
				fig3[class.String()] = append(fig3[class.String()], pct(t, n))
			}
		}
	}
	for _, class := range fault.Classes() {
		c := fig3[class.String()]
		if len(c) != 6 {
			t.Fatalf("fig3 golden row %q: %v, want 6 cells", class, c)
		}
		if c[5] != 0 {
			t.Errorf("%s: MAC-in-ECC miscorrects %.1f%%, want 0", class, c[5])
		}
	}
	if c := fig3["2 bits, same word"]; c[0] != 0 || c[3] == 0 {
		t.Errorf("2 bits, same word: SEC-DED corrects %.1f%%, MAC-in-ECC %.1f%%; only MAC-in-ECC should", c[0], c[3])
	}
	if c := fig3["3 bits, same word"]; c[2] == 0 {
		t.Error("3 bits, same word: SEC-DED never miscorrects")
	}

	// Table 2: program -> [split-7, 7-bit delta, dual-length].
	table2 := map[string][]float64{}
	for _, line := range strings.Split(golden["table2_1M"], "\n") {
		if f := cells.Split(strings.TrimSpace(line), -1); len(f) == 5 && f[0] != "program" && !strings.HasPrefix(f[0], "---") {
			for _, c := range f[1:4] {
				table2[f[0]] = append(table2[f[0]], pct(t, c))
			}
		}
	}
	for _, app := range workload.Apps() {
		r := table2[app.Name]
		if r == nil {
			t.Fatalf("table2 golden lacks %s:\n%s", app.Name, golden["table2_1M"])
		}
		if r[1] > r[0] {
			t.Errorf("table2 %s: 7-bit delta re-encrypts %v per 10^9 cycles, more than split-7's %v", app.Name, r[1], r[0])
		}
	}

	// Figure 8: program -> gain over bmt; design -> [tree read depth,
	// metadata cache hit rate, DRAM txns per L3 miss].
	gains := map[string]float64{}
	mech := map[string][]float64{}
	for _, line := range strings.Split(golden["fig8_20k"], "\n") {
		f := cells.Split(strings.TrimSpace(line), -1)
		switch {
		case len(f) == 5 && strings.HasSuffix(f[4], "%"):
			gains[f[0]] = pct(t, strings.TrimPrefix(f[4], "+"))
		case len(f) == 4 && f[0] != "design" && !strings.HasPrefix(f[0], "---"):
			for _, c := range f[1:] {
				mech[f[0]] = append(mech[f[0]], pct(t, c))
			}
		}
	}
	for _, app := range workload.Apps() {
		if !app.MemorySensitive {
			continue
		}
		if g, ok := gains[app.Name]; !ok || g <= 0 {
			t.Errorf("fig8 %s: gain over bmt %v (present %v), want positive", app.Name, g, ok)
		}
	}
	bmt, macECC, proposed := mech["bmt"], mech["mac-ecc"], mech["proposed"]
	if len(bmt) != 3 || len(macECC) != 3 || len(proposed) != 3 {
		t.Fatalf("fig8 golden lacks a design row (%v):\n%s", mech, golden["fig8_20k"])
	}
	if bmt[0] != 5 || proposed[0] != 4 {
		t.Errorf("fig8 tree read depth: bmt %v, proposed %v; the paper has 5 -> 4", bmt[0], proposed[0])
	}
	if proposed[1] <= bmt[1] || proposed[1] <= macECC[1] {
		t.Errorf("fig8 metadata cache hit rate: proposed %v is not above bmt %v and mac-ecc %v", proposed[1], bmt[1], macECC[1])
	}
	if proposed[2] >= bmt[2] || proposed[2] >= macECC[2] {
		t.Errorf("fig8 DRAM txns per L3 miss: proposed %v is not below bmt %v and mac-ecc %v", proposed[2], bmt[2], macECC[2])
	}
}

// pct parses a table cell such as "23.66%" or "76.7".
func pct(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

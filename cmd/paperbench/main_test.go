package main

import (
	"bytes"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"
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

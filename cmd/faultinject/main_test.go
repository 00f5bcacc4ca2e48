package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"authmem/internal/campaign"
)

// TestNoModePrintsUsage builds faultinject and runs it without a mode flag:
// there is no default mode, so it must print its usage to stderr, write
// nothing to stdout and exit 2. The usage lists the three modes and not the
// deleted -strike. Skipped under -short (it pays a build).
func TestNoModePrintsUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("binary exec test")
	}
	bin := filepath.Join(t.TempDir(), "faultinject")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-seed", "3")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("faultinject -seed 3: err = %v, want exit status 2", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing", stdout.String())
	}
	for _, want := range []string{"Usage of", "-campaign", "-concurrent", "-cluster"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}
	if strings.Contains(stderr.String(), "-strike") {
		t.Errorf("stderr lists the deleted -strike mode:\n%s", stderr.String())
	}
}

// TestCampaignMatchesCommittedReport reruns `faultinject -campaign` at its
// defaults (-trials 2000 -seed 1) and holds every key of the result except
// the timing-dependent "cluster" phase to the committed CAMPAIGN_report.json.
// A change that moves a count must regenerate the report and say why.
func TestCampaignMatchesCommittedReport(t *testing.T) {
	const ops, seed = 2000, 1
	// The live planes and the durability plane, as mainCampaign runs them.
	cfg := campaign.Default(engineConfig("delta", "macecc", 2), ops, seed)
	rep, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := campaign.DefaultPersistCrash(cfg.Engine, ops/50+campaignMinStrikes, seed)
	pcfg.BurstMax = cfg.BurstMax
	if rep.PersistCrash, err = campaign.RunPersistCrash(pcfg); err != nil {
		t.Fatal(err)
	}
	got := reportKeys(t, rep)
	raw, err := os.ReadFile("../../CAMPAIGN_report.json")
	if err != nil {
		t.Fatal(err)
	}
	want := reportKeys(t, json.RawMessage(raw))
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("key %q: in the committed report, not in the run", k)
		}
	}
	for k, g := range got {
		w, ok := want[k]
		if !ok {
			t.Errorf("key %q: in the run, not in the committed report", k)
			continue
		}
		if !bytes.Equal(g, w) {
			t.Errorf("key %q:\n run:       %s\n committed: %s", k, g, w)
		}
	}
}

// reportKeys returns v's top-level JSON keys, "cluster" dropped, each with
// its value in compact form.
func reportKeys(t *testing.T, v any) map[string][]byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "cluster")
	out := make(map[string][]byte, len(m))
	for k, r := range m {
		var buf bytes.Buffer
		if err := json.Compact(&buf, r); err != nil {
			t.Fatal(err)
		}
		out[k] = buf.Bytes()
	}
	return out
}

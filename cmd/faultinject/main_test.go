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

// TestConcurrentTrialsSplitOverWorkers: -trials is the workers' total
// whatever -workers is, so a run with other than the default 3 workers
// does as many operations as it announces.
func TestConcurrentTrialsSplitOverWorkers(t *testing.T) {
	ecfg := engineConfig("delta", "macecc", 2)
	for _, c := range []struct{ ops, workers, per int }{
		{3000, 1, 3000}, {3000, 3, 1000}, {3000, 5, 600}, {3000, 1025, 2}, {4, 5, 1},
	} {
		if cfg := concurrentConfig(ecfg, c.ops, 1, 0.15, 4, 4, c.workers); cfg.Workers != c.workers || cfg.OpsPerWorker != c.per {
			t.Errorf("-trials %d -workers %d: %d workers x %d ops, want %d x %d",
				c.ops, c.workers, cfg.Workers, cfg.OpsPerWorker, c.workers, c.per)
		}
	}
	rep, err := campaign.RunConcurrent(concurrentConfig(ecfg, 300, 1, 0.15, 4, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	// The workers' traffic loops run the 300 operations, and the striker
	// lands one fault per 20 of them; warm-up writes and drain reads are
	// not operations.
	if rep.Workers != 5 || rep.Ops != 300 || rep.Strikes != 15 {
		t.Fatalf("-trials 300 -workers 5: %d workers, %d ops, %d strikes, want 5, 300 and 15", rep.Workers, rep.Ops, rep.Strikes)
	}
}

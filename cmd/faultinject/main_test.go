package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"authmem/internal/campaign"
)

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

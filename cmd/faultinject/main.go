// Command faultinject runs the end-to-end fault-injection campaigns. It has
// no default mode: run without a mode flag, it prints its usage and exits 2.
// Figure 3's single-block fault matrix is `paperbench -fig3`.
//
// The -campaign mode runs the end-to-end fault-injection campaign engine
// (internal/campaign): a randomized workload drives a full engine, a
// one-shard region, while faults land in every attacker-reachable storage
// plane — ciphertext, the ECC/MAC lane and check bytes, counter blocks, tree
// nodes, and persisted images reloaded mid-run — and every read is checked
// against a differential shadow oracle. The structured JSON report is written to -out; the process exits
// nonzero if any read silently returned wrong data.
//
// The -concurrent mode runs the campaign's multi-shard phase. Several
// worker goroutines, each owning a disjoint slice of the block space that
// straddles shard boundaries, drive parallel faulted traffic against a
// ShardedEngine. Beside them, as many readers hammer a fixed warm hot set
// through the lock-free seqlock probe while a striker lands faults on those
// same lines and recovers the victims. The run ends with a sweep of the hot
// set on the live engine and a sharded persist/resume sweep of every oracle
// block. The safety bar is the same: zero silent escapes, so a fault masked
// by a stale-but-trusted cache line fails the run.
//
// Usage:
//
//	faultinject -campaign [-trials n] [-seed s] [-budget 0|1|2]
//	           [-scheme delta] [-placement macecc] [-app facesim]
//	           [-rate 0.15] [-burst 4] [-out CAMPAIGN_report.json]
//	faultinject -concurrent [-trials n] [-seed s] [-shards 4] [-workers 3]
//	           [-scheme delta] [-placement macecc]
//	           [-rate 0.15] [-burst 4] [-out CONCURRENT_report.json]
//	faultinject -cluster [-trials n] [-seed s] [-nodes 3] [-repl 2]
//	           [-rate 0.15] [-burst 4] [-out CLUSTER_report.json]
//
// -placement alone picks the design point's ECC codec: SEC-DED check bytes
// beside an inline MAC, or the MAC-carrying lane under macecc.
package main

import (
	"flag"
	"fmt"
	"os"

	"authmem/internal/campaign"
	"authmem/internal/core"
	"authmem/internal/ctr"
	"authmem/internal/stats"
)

func main() {
	runCampaign := flag.Bool("campaign", false, "run the end-to-end fault-injection campaign")
	runConcurrent := flag.Bool("concurrent", false, "run the concurrent sharded-engine campaign phase")
	runCluster := flag.Bool("cluster", false, "run the distributed cluster campaign phase")
	nodes := flag.Int("nodes", 3, "memserved node count for -cluster (>= 3)")
	repl := flag.Int("repl", 2, "replicas per stripe for -cluster")
	shards := flag.Int("shards", 4, "shard count for -concurrent (power of two)")
	workers := flag.Int("workers", 3, "worker goroutines, and as many lock-free hot-set readers, for -concurrent")
	trials := flag.Int("trials", 2000, "memory operations in the run (every mode)")
	seed := flag.Int64("seed", 1, "PRNG seed (campaigns replay exactly under the same seed and flags)")
	budget := flag.Int("budget", 2, "MAC-in-ECC flip-and-check budget (bits)")
	scheme := flag.String("scheme", "delta", "campaign counter scheme: monolithic|split|delta|dual")
	placement := flag.String("placement", "macecc", "campaign MAC placement: inline|macecc")
	app := flag.String("app", "facesim", "campaign workload application (see internal/workload)")
	rate := flag.Float64("rate", 0.15, "campaign per-operation fault probability")
	burst := flag.Int("burst", 4, "campaign max bit flips per fault event")
	out := flag.String("out", "CAMPAIGN_report.json", "campaign JSON report path")
	flag.Parse()

	if *runCluster {
		mainCluster(*trials, *seed, *nodes, *repl, *rate, *burst, *out)
		return
	}
	if *runConcurrent {
		ecfg := engineConfig(*scheme, *placement, *budget)
		mainConcurrent(ecfg, *trials, *seed, *rate, *burst, *shards, *workers, *out)
		return
	}
	if *runCampaign {
		ecfg := engineConfig(*scheme, *placement, *budget)
		mainCampaign(ecfg, *trials, *seed, *app, *rate, *burst, *out)
		return
	}

	flag.Usage()
	os.Exit(2)
}

// engineConfig resolves the campaign design point from the command line;
// the placement fixes the ECC codec.
func engineConfig(scheme, placement string, budget int) core.Config {
	kind, ok := schemes[scheme]
	if !ok {
		fatalf("unknown scheme %q (monolithic|split|delta|dual)", scheme)
	}
	var place core.MACPlacement
	switch placement {
	case "inline":
		place = core.MACInline
	case "macecc":
		place = core.MACInECC
	default:
		fatalf("unknown placement %q (inline|macecc)", placement)
	}
	ecfg := core.Default(kind, place)
	ecfg.CorrectBits = budget
	return ecfg
}

var schemes = map[string]ctr.Kind{
	"monolithic": ctr.Monolithic,
	"split":      ctr.Split,
	"delta":      ctr.Delta,
	"dual":       ctr.DualLength,
}

func mainCampaign(ecfg core.Config, ops int, seed int64, app string, rate float64, burst int, out string) {
	cfg := campaign.Default(ecfg, ops, seed)
	cfg.App = app
	cfg.FaultRate = rate
	cfg.BurstMax = burst

	fmt.Printf("Campaign: %s / %s / %s, budget %d, ~%d ops across %d planes, seed %d\n",
		ecfg.Scheme, ecfg.Placement, ecfg.CodecName(), ecfg.CorrectBits, ops, len(campaign.Planes()), seed)
	rep, err := campaign.Run(cfg)
	if err != nil {
		fatalf("%v", err)
	}

	tb := stats.NewTable("plane", "ops", "faults", "flips", "clean", "corrected", "recovered", "halted", "SILENT")
	for _, pr := range rep.Planes {
		tb.AddRow(pr.Plane, pr.Ops, pr.FaultEvents, pr.BitsFlipped,
			pr.Outcomes["clean"], pr.Outcomes["corrected"], pr.Outcomes["recovered"],
			pr.Outcomes["halted"], pr.Outcomes["silent"])
	}
	fmt.Print(tb)
	fmt.Printf("\nrecovery: %d metadata repairs, %d/%d retry recoveries, %d quarantines, %d scrub passes\n",
		rep.MetadataRepairs, rep.RetryRecoveries, rep.RetriedReads, rep.Quarantined, rep.ScrubPasses)

	// Durability plane: persist-crash + WAL-corruption strikes against the
	// incremental-persistence artifacts, flat and sharded.
	pcfg := campaign.DefaultPersistCrash(ecfg, ops/50+campaignMinStrikes, seed)
	pcfg.BurstMax = burst
	fmt.Printf("\nPersist-crash phase: %d epochs, %d strikes per arrangement (flat + sharded)\n",
		pcfg.Epochs, pcfg.Trials)
	pc, err := campaign.RunPersistCrash(pcfg)
	if err != nil {
		fatalf("%v", err)
	}
	rep.PersistCrash = pc
	pt := stats.NewTable("strike", "trials")
	for kind, n := range pc.Strikes {
		pt.AddRow(kind, n)
	}
	for _, o := range campaign.Outcomes() {
		pt.AddRow("outcome:"+o.String(), pc.Outcomes[o.String()])
	}
	fmt.Print(pt)

	// Distributed plane: node-level faults against the quorum cluster.
	ccfg := campaign.DefaultCluster(ops/10, seed)
	fmt.Printf("\nCluster phase: %d nodes, R=%d, ~%d quorum ops across %d scenarios\n",
		ccfg.Nodes, ccfg.Replication, ccfg.Ops, len(campaign.ClusterScenarios()))
	cc, err := campaign.RunCluster(ccfg)
	if err != nil {
		fatalf("%v", err)
	}
	rep.Cluster = cc
	printClusterReport(cc)

	if err := stats.WriteJSON(out, rep); err != nil {
		fatalf("writing report: %v", err)
	}
	fmt.Printf("wrote %s\n", out)

	if !rep.Passed() {
		fmt.Fprintf(os.Stderr, "faultinject: FAIL: %d live + %d durability + %d cluster silent escape(s) — replay with -seed %d\n",
			rep.SilentEscapes, pc.SilentEscapes, cc.SilentEscapes, seed)
		os.Exit(1)
	}
	fmt.Printf("PASS: %d operations, %d fault events, %d persist-crash strikes, %d cluster ops, 0 silent corruption escapes\n",
		rep.Ops, rep.FaultEvents, pc.FlatTrials+pc.ShardedTrials, cc.Ops)
}

func printClusterReport(cc *campaign.ClusterReport) {
	ct := stats.NewTable("scenario", "ops", "faults", "clean", "recovered", "halted", "SILENT", "converged")
	for _, s := range cc.Scenarios {
		ct.AddRow(s.Scenario, s.Ops, s.FaultEvents,
			s.Outcomes["clean"], s.Outcomes["recovered"], s.Outcomes["halted"], s.Outcomes["silent"], s.Converged)
	}
	fmt.Print(ct)
	fmt.Printf("\nquorum: %d outvoted (fault %d, unreachable %d, stale %d, epoch %d, root %d, majority %d), %d unresolved, %d repairs, %d stripes rebalanced\n",
		cc.Stats.OutvotedFault+cc.Stats.OutvotedUnreachable+cc.Stats.OutvotedStale+cc.Stats.OutvotedEpoch+cc.Stats.OutvotedRoot+cc.Stats.OutvotedMajority,
		cc.Stats.OutvotedFault, cc.Stats.OutvotedUnreachable, cc.Stats.OutvotedStale, cc.Stats.OutvotedEpoch,
		cc.Stats.OutvotedRoot, cc.Stats.OutvotedMajority, cc.Stats.Unresolved, cc.Stats.Repairs, cc.Stats.RebalancedStripes)
}

func mainCluster(ops int, seed int64, nodes, repl int, rate float64, burst int, out string) {
	cfg := campaign.DefaultCluster(ops, seed)
	cfg.Nodes = nodes
	cfg.Replication = repl
	cfg.FaultRate = rate
	cfg.BurstMax = burst

	fmt.Printf("Cluster campaign: %d nodes, R=%d, ~%d quorum ops, seed %d\n", nodes, repl, cfg.Ops, seed)
	rep, err := campaign.RunCluster(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	printClusterReport(rep)

	if err := stats.WriteJSON(out, rep); err != nil {
		fatalf("writing report: %v", err)
	}
	fmt.Printf("wrote %s\n", out)

	if !rep.Passed() {
		fmt.Fprintf(os.Stderr, "faultinject: FAIL: %d silent escape(s) across the cluster (converged=%v) — replay with -seed %d\n",
			rep.SilentEscapes, rep.SilentEscapes == 0, seed)
		os.Exit(1)
	}
	fmt.Printf("PASS: %d cluster ops, %d fault events, 0 silent corruption escapes, attested %s…\n",
		rep.Ops, rep.FaultEvents, rep.AttestedRoot[:12])
}

// campaignMinStrikes floors the persist-crash strike budget so even a
// -trials smoke run exercises every strike kind in both arrangements.
const campaignMinStrikes = 20

// concurrentConfig resolves the -concurrent phase from the command line:
// -trials is the workers' total, split over -workers of them.
func concurrentConfig(ecfg core.Config, ops int, seed int64, rate float64, burst, shards, workers int) campaign.ConcurrentConfig {
	cfg := campaign.DefaultConcurrent(ecfg, ops, seed)
	cfg.FaultRate = rate
	cfg.BurstMax = burst
	cfg.Shards = shards
	cfg.Workers = workers
	cfg.SplitOps(ops)
	return cfg
}

func mainConcurrent(ecfg core.Config, ops int, seed int64, rate float64, burst, shards, workers int, out string) {
	cfg := concurrentConfig(ecfg, ops, seed, rate, burst, shards, workers)

	fmt.Printf("Concurrent campaign: %s / %s / %s, budget %d, %d shards x %d workers + %d lock-free readers, ~%d ops, seed %d\n",
		ecfg.Scheme, ecfg.Placement, ecfg.CodecName(), ecfg.CorrectBits, shards, workers, workers, cfg.OpsPerWorker*workers, seed)
	rep, err := campaign.RunConcurrent(cfg)
	if err != nil {
		fatalf("%v", err)
	}

	tb := stats.NewTable("metric", "value")
	tb.AddRow("ops", rep.Ops)
	tb.AddRow("span reads", rep.SpanReads)
	tb.AddRow("hot-set reads", rep.HotReads)
	tb.AddRow("strikes", rep.Strikes)
	tb.AddRow("fault events", rep.FaultEvents)
	tb.AddRow("bits flipped", rep.BitsFlipped)
	for _, o := range campaign.Outcomes() {
		tb.AddRow(o.String(), rep.Outcomes[o.String()])
	}
	tb.AddRow("live sweep", rep.LiveSweep)
	tb.AddRow("resume sweep", rep.ResumeSweep)
	tb.AddRow("blocks read", rep.BlocksRead)
	tb.AddRow("lock-free hits", rep.LockFreeHits)
	tb.AddRow("seqlock retries", rep.SeqlockRetries)
	tb.AddRow("slow-path reads", rep.SlowPathReads)
	fmt.Print(tb)
	fmt.Printf("\nrecovery: %d metadata repairs, %d/%d retry recoveries, %d quarantines\n",
		rep.MetadataRepairs, rep.RetryRecoveries, rep.RetriedReads, rep.Quarantined)

	if err := stats.WriteJSON(out, rep); err != nil {
		fatalf("writing report: %v", err)
	}
	fmt.Printf("wrote %s\n", out)

	if !rep.Passed() {
		fmt.Fprintf(os.Stderr, "faultinject: FAIL: %d silent escape(s) under concurrent traffic (live sweep %s, resume sweep %s, %d lock-free hits) — replay with -seed %d\n",
			rep.SilentEscapes, rep.LiveSweep, rep.ResumeSweep, rep.LockFreeHits, seed)
		os.Exit(1)
	}
	fmt.Printf("PASS: %d concurrent operations, %d fault events (%d strikes), %d blocks read (%d lock-free hits), 0 silent corruption escapes\n",
		rep.Ops, rep.FaultEvents, rep.Strikes, rep.BlocksRead, rep.LockFreeHits)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "faultinject: "+format+"\n", args...)
	os.Exit(1)
}

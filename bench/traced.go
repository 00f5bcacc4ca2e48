package main

import (
	"fmt"
	"time"
)

// counters returns the stack's cumulative event counts under flat names, so
// that a window's share of them is a subtraction.
func (s *stack) counters() map[string]float64 {
	c := map[string]float64{}
	es, cs := s.engineStats()
	c["eng.reads"], c["eng.writes"] = float64(es.Reads), float64(es.Writes)
	c["eng.block_misses"] = float64(es.DataCacheMisses)
	c["eng.meta_misses"] = float64(es.MetaCacheMisses)
	c["eng.leaf_flushes"] = float64(es.DeferredLeafFlushes)
	c["eng.write_combines"] = float64(es.WriteCombines)
	c["eng.lockfree_hits"] = float64(es.LockFreeHits)
	c["eng.slow_reads"] = float64(es.SlowPathReads)
	c["eng.seqlock_retries"] = float64(es.SeqlockRetries)
	c["ctr.reencrypts"] = float64(cs.Reencryptions)
	c["ctr.reencrypted_blocks"] = float64(cs.ReencryptedBlocks)
	c["ctr.resets"], c["ctr.reencodes"] = float64(cs.Resets), float64(cs.Reencodes)
	for _, srv := range s.srvs {
		sc := srv.Snapshot().Server
		c["srv.coalesced"] += float64(sc.CoalescedRequests)
		c["srv.bypassed"] += float64(sc.AffinityBypassed)
		c["srv.busy"] += float64(sc.BusyRejected)
		c["srv.pinned"] += float64(sc.RootPinned)
	}
	if s.cli != nil {
		cl := s.cli.Stats()
		c["cli.attempts"], c["cli.retries"] = float64(cl.Attempts), float64(cl.Retries)
	}
	if s.clu != nil {
		q := s.clu.Stats()
		c["clu.reads"], c["clu.writes"] = float64(q.QuorumReads), float64(q.QuorumWrites)
		c["clu.degraded"] = float64(q.DegradedReads + q.DegradedWrites)
		c["clu.repairs"], c["clu.unresolved"] = float64(q.Repairs), float64(q.Unresolved)
	}
	c["io.writes"], c["io.reads"] = float64(s.io.writes.Load()), float64(s.io.reads.Load())
	c["io.bytes"] = float64(s.io.bytes.Load())
	if d := s.dur; d != nil {
		c["dur.epochs"], c["dur.groups"] = float64(d.epochsTotal), float64(d.groups)
		c["dur.epoch_bytes"], c["dur.bytes"] = float64(d.epochBytes), float64(d.bytes)
		c["dur.fsyncs"], c["dur.stall_ns"] = float64(d.fsyncs), float64(d.stallNs)
	}
	return c
}

func minus(after, before map[string]float64) map[string]float64 {
	d := map[string]float64{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// kernelSeconds is the part of a traced run's time budget the unit-cost
// kernels take.
const kernelSeconds = 1.5

// runTraced produces the per-layer metrics. It replays the workload's op
// stream (same seed, so the same ops) down each of the workload's stacks,
// shortest first, untraced: a layer's cost is the difference between two
// adjacent stacks, so the waterfall sums to the full stack's cost by
// construction. The workload's own stack is then run once more with a span
// around every call the benchmark makes, which gives the tracing overhead
// and the trace file. Last come the unit costs that split the engine's cost
// among crypto, ECC, counters and tree.
func runTraced(cfg runConfig, w *workload, declared []metricSpec) (outcome, error) {
	table := newRefTable()
	m := map[string]float64{}
	for _, d := range declared {
		m[d.Name] = 0 // a layer the workload does not reach reports zero
	}
	out := outcome{metrics: m}
	opts := windowOpts{pairs: cfg.pairs, seconds: (cfg.seconds - kernelSeconds) / float64(len(w.stacks)+1)}

	cost := map[stackKind]float64{}
	var engine, full windowResult
	var fullCounts map[string]float64
	var engineCounts map[string]float64
	for i, kind := range w.stacks {
		last := i == len(w.stacks)-1
		or := newOracle(uint64(cfg.seed), w.region)
		markPopulated(w, or)
		var rec *recorder
		if last {
			rec = newRecorder()
		}
		st, err := buildStack(kind, w, or, cfg.scratch, rec)
		if err != nil {
			return out, fmt.Errorf("%s stack: %w", stackNames[kind], err)
		}
		r := newRunner(w, or, cfg.seed, table)
		before := st.counters()
		res := r.window(st, opts)
		counts := minus(st.counters(), before)
		out.attempted += res.attempted
		out.failed += res.failed
		cost[kind] = res.costRef
		if kind == stackEngine {
			engine, engineCounts = res, counts
		}
		if last {
			full, fullCounts = res, counts
			rec.on.Store(true)
			traced := opts
			traced.rec = rec
			tres := r.window(st, traced)
			rec.on.Store(false)
			out.attempted += tres.attempted
			out.failed += tres.failed
			m["host.trace_overhead_x"] = tres.costRef / res.costRef
			if st.dur != nil {
				m["persist.append_epoch_ref"] = rec.cost(spanEpoch)
				if err := durableCosts(w, st, r.callers[0].ref, m); err != nil {
					st.close()
					return out, err
				}
			}
			if err := rec.writeFile(cfg.outDir, w.name); err != nil {
				st.close()
				return out, err
			}
		}
		if kind == stackEngine {
			// Last use of this engine: the kernels overwrite part of it.
			err = engineCosts(w, st.mems[0], r.callers[0].ref, m)
		}
		st.close()
		if err != nil {
			return out, err
		}
	}
	if err := kernelCosts(w, newRefKernel(table, w.refLoads, 0), m); err != nil {
		return out, err
	}

	// The engine's cost, split by what its own counters say ran. With two
	// callers the engine serves two ops at once, so a unit of engine work
	// costs half a unit of wall time per op.
	ops := float64(engine.attempted)
	par := float64(w.callers)
	miss, written := engineCounts["eng.block_misses"], engineCounts["eng.writes"]
	reenc := engineCounts["ctr.reencrypted_blocks"]
	crypto := (m["crypto.pad_block_ref"] + m["crypto.mac_block_ref"]) * (miss + written + 2*reenc) / ops / par
	eccCost := (m["ecc.verify_block_ref"]*(miss+reenc) + m["ecc.encode_block_ref"]*(written+reenc)) / ops / par
	ctrCost := m["ctr.touch_ref"] * written / ops / par
	treeCost := (m["tree.verify_leaf_ref"]*engineCounts["eng.meta_misses"] + m["tree.update_leaf_ref"]*engineCounts["eng.leaf_flushes"]) / ops / par
	e := cost[stackEngine]
	m["core.self_ref"] = e - crypto - eccCost - ctrCost - treeCost
	m["core.write_ref"] = engine.writeP50

	// The layers above the engine, each the difference of adjacent stacks.
	above := map[string]float64{}
	if c, ok := cost[stackDurable]; ok {
		above["persist"] = c - e
	}
	if c, ok := cost[stackCodec]; ok {
		above["wire"] = c - e
		above["server"] = cost[stackLoopback] - c
		above["client"] = cost[stackTCP] - cost[stackLoopback]
		m["server.loopback_op_ref"] = cost[stackLoopback]
	}
	if c, ok := cost[stackClusterR2]; ok {
		above["cluster"] = c - cost[stackTCP]
		m["cluster.r1_over_direct_x"] = cost[stackClusterR1] / cost[stackTCP]
		m["cluster.r2_over_direct_x"] = c / cost[stackTCP]
	}
	total := full.costRef
	sum := 0.0
	for layer, v := range map[string]float64{"core": m["core.self_ref"], "crypto": crypto, "ecc": eccCost, "ctr": ctrCost, "tree": treeCost} {
		sum += v
		m[layer+".share"] = v / total
	}
	for layer, v := range above {
		sum += v
		m[layer+".share"] = v / total
		m[layer+".self_ref"] = v
	}
	m["host.cost_per_op_ref"] = total
	m["host.waterfall_sum_ref"] = sum

	// Counts, from the workload's own stack.
	c := fullCounts
	fops := float64(full.attempted)
	kw := float64(full.writes) / 1000
	m["ctr.group_reencrypts_per_kwrite"] = c["ctr.reencrypts"] / kw
	m["ctr.reencrypted_blocks_per_kwrite"] = c["ctr.reencrypted_blocks"] / kw
	m["ctr.resets_per_kwrite"] = c["ctr.resets"] / kw
	m["ctr.reencodes_per_kwrite"] = c["ctr.reencodes"] / kw
	m["tree.deferred_leaf_flushes_per_kwrite"] = c["eng.leaf_flushes"] / kw
	m["tree.write_combines_per_kwrite"] = c["eng.write_combines"] / kw
	if hits := c["eng.lockfree_hits"] + c["eng.slow_reads"]; hits > 0 {
		m["core.lockfree_hit_ratio"] = c["eng.lockfree_hits"] / hits
	}
	m["core.slow_path_reads_per_kop"] = c["eng.slow_reads"] / fops * 1000
	m["core.seqlock_retries_per_kop"] = c["eng.seqlock_retries"] / fops * 1000
	m["wire.bytes_per_op"] = c["io.bytes"] / fops
	m["wire.conn_writes_per_op"] = c["io.writes"] / fops
	m["wire.conn_reads_per_op"] = c["io.reads"] / fops
	m["server.coalesced_requests_per_kop"] = c["srv.coalesced"] / fops * 1000
	m["server.affinity_bypassed_per_kop"] = c["srv.bypassed"] / fops * 1000
	m["server.busy_rejected"] = c["srv.busy"]
	m["server.root_pinned_per_kop"] = c["srv.pinned"] / fops * 1000
	m["client.attempts_per_op"] = c["cli.attempts"] / fops
	m["client.retries_per_kop"] = c["cli.retries"] / fops * 1000
	m["cluster.quorum_reads_per_op"] = c["clu.reads"] / fops
	m["cluster.quorum_writes_per_op"] = c["clu.writes"] / fops
	m["cluster.degraded_ops"] = c["clu.degraded"]
	m["cluster.repairs"] = c["clu.repairs"]
	m["cluster.unresolved"] = c["clu.unresolved"]
	if epochs := c["dur.epochs"]; epochs > 0 {
		m["persist.bytes_per_epoch"] = c["dur.epoch_bytes"] / epochs
		m["persist.dirty_groups_per_epoch"] = c["dur.groups"] / epochs
		m["persist.write_amp"] = c["dur.bytes"] / float64(full.writeBytes)
		m["persist.fg_stall_share"] = c["dur.stall_ns"] / full.workNs
		m["device.fsyncs"] = c["dur.fsyncs"]
		m["device.bytes_written"] = c["dur.bytes"]
	}

	m["host.ref_iter_us"] = full.refIterUs
	m["host.raw_ops_per_s"] = full.rawOpsPerS
	m["host.raw_read_p50_us"] = full.rawReadUs
	m["host.raw_write_p50_us"] = full.rawWriteUs
	m["host.read_p99_ref"] = full.readP99
	m["host.write_p99_ref"] = full.writeP99
	m["host.gc_cycles"] = float64(full.gcCycles)
	m["host.gc_pause_ms"] = full.gcPauseMs
	m["host.allocs_per_op"] = full.mallocsPerOp
	m["host.failed_ops_share"] = float64(out.failed) / float64(out.attempted)
	return out, nil
}

// durableCosts times one fold and one restart from the files, each against
// a reference slice run just before it, and reports the sync latency.
func durableCosts(w *workload, st *stack, ref *refKernel, m map[string]float64) error {
	iters := refItersPerSlice(ref.loads)
	refNs := func() float64 {
		t0 := time.Now()
		ref.run(iters)
		return float64(time.Since(t0)) / float64(iters)
	}
	unit := refNs()
	t0 := time.Now()
	if err := st.dur.fold(0, 0); err != nil {
		return err
	}
	m["persist.checkpoint_ref"] = float64(time.Since(t0)) / unit
	m["device.fsync_p50_us"] = median(st.dur.fsyncNs) / 1e3

	root := st.mems[0].RootDigest()
	unit = refNs()
	t0 = time.Now()
	if _, err := st.dur.reopen(w.region, root); err != nil {
		return fmt.Errorf("restart from files: %w", err)
	}
	m["persist.resume_ref"] = float64(time.Since(t0)) / unit
	return nil
}

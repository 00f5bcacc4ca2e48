package campaign

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"authmem"
	"authmem/adversary"
	"authmem/client"
	"authmem/cluster"
	"authmem/internal/server"
	"authmem/internal/wire"
)

// Cluster campaign phase: node-level faults against the striped,
// quorum-verified cluster client.
//
// The engine-scoped phases prove a single node never returns wrong data as
// if it were right. The cluster phase lifts the adversary one level: whole
// memserved nodes are corrupted, rolled back behind the cluster's back,
// killed, restarted empty, and partitioned while a randomized workload runs
// through the cluster client — and every successful quorum read is compared
// against a plaintext shadow oracle. The safety bar is unchanged: a read
// that reports success with non-oracle bytes is a silent escape and fails
// the campaign. Outvoted replicas, degraded service, and typed quorum
// errors are all acceptable outcomes; silence is not.
//
// Scenarios (each runs its own traffic slice over a 3-node, R=2 cluster):
//
//	corrupt    — bit flips land in one node's ciphertext/ECC/counter
//	             storage; the node's own MAC condemns the replica and the
//	             quorum outvotes it.
//	rollback   — a rogue client writes one replica directly, producing
//	             MAC-valid divergent state; root-pin or epoch evidence must
//	             outvote it, or the read must fail loudly.
//	kill       — a node is killed mid-traffic and later restarted with a
//	             fresh (empty) memory and a new epoch; the epoch handshake
//	             voids it and repair re-populates it.
//	partition  — a node's transport is severed mid-traffic and later
//	             healed with the same epoch; missed writes are tracked as
//	             dirty stripes and repaired on revival.
//	rebalance  — a node joins and a founding member retires while reads
//	             run concurrently; verified stripe transfers must keep
//	             every answer oracle-exact.
//
// Every scenario ends with a convergence sweep (read the whole region until
// verdicts are clean, repairing via the quorum machinery) and a final
// oracle comparison; failure to converge fails the phase.

// ClusterConfig parameterizes the cluster phase.
type ClusterConfig struct {
	// Seed drives fault placement and the workload. The rebalance
	// scenario's reader runs concurrently, so outcome *counts* there are
	// scheduler-dependent; safety classification is not.
	Seed int64
	// Ops is the total quorum operations, split across the scenarios.
	Ops int
	// Nodes is the member count (minimum 3: kill and rebalance scenarios
	// need a surviving quorum plus a retiring member).
	Nodes int
	// Replication is R, replicas per stripe.
	Replication int
	// FaultRate is the per-operation probability of a fault event in the
	// corrupt and rollback scenarios.
	FaultRate float64
	// BurstMax bounds bit flips per corrupt-scenario fault event.
	BurstMax int
}

// DefaultCluster returns the standard cluster phase: 3 nodes, R=2.
func DefaultCluster(ops int, seed int64) ClusterConfig {
	per := ops / len(clusterScenarios)
	if per < 8 {
		per = 8
	}
	return ClusterConfig{
		Seed:        seed,
		Ops:         per * len(clusterScenarios),
		Nodes:       3,
		Replication: 2,
		FaultRate:   0.2,
		BurstMax:    4,
	}
}

// Validate checks the cluster-phase parameters.
func (c ClusterConfig) Validate() error {
	switch {
	case c.Ops < len(clusterScenarios):
		return fmt.Errorf("campaign: cluster Ops must be at least %d", len(clusterScenarios))
	case c.Nodes < 3:
		return fmt.Errorf("campaign: cluster needs at least 3 nodes, got %d", c.Nodes)
	case c.Replication < 2 || c.Replication > c.Nodes:
		return fmt.Errorf("campaign: Replication %d out of [2, %d]", c.Replication, c.Nodes)
	case c.FaultRate < 0 || c.FaultRate > 1:
		return fmt.Errorf("campaign: FaultRate %v out of [0,1]", c.FaultRate)
	case c.BurstMax < 1:
		return fmt.Errorf("campaign: BurstMax must be >= 1")
	}
	return nil
}

var clusterScenarios = []string{"corrupt", "rollback", "kill", "partition", "rebalance"}

// ClusterScenarios lists the phase's scenario names in run order.
func ClusterScenarios() []string { return append([]string(nil), clusterScenarios...) }

// ClusterScenarioReport is one scenario's outcome matrix.
type ClusterScenarioReport struct {
	Scenario    string            `json:"scenario"`
	Ops         uint64            `json:"ops"`
	FaultEvents uint64            `json:"fault_events"`
	BitsFlipped uint64            `json:"bits_flipped"`
	Outcomes    map[string]uint64 `json:"outcomes"`
	// Converged reports whether the post-scenario sweep reached
	// all-clean verdicts with an oracle-exact region.
	Converged bool `json:"converged"`
}

// ClusterReport is the cluster phase's result.
type ClusterReport struct {
	Nodes       int   `json:"nodes"`
	Replication int   `json:"replication"`
	Seed        int64 `json:"seed"`

	Ops         uint64 `json:"ops"`
	FaultEvents uint64 `json:"fault_events"`
	BitsFlipped uint64 `json:"bits_flipped"`

	Scenarios []ClusterScenarioReport `json:"scenarios"`

	Outcomes      map[string]uint64 `json:"outcomes"`
	SilentEscapes uint64            `json:"silent_escapes"`

	// Stats is the cluster client's own counters: outvote verdicts,
	// repairs, revivals, rebalance volume.
	Stats cluster.Stats `json:"stats"`

	// AttestedRoot is the final cluster-wide combined root (hex), taken
	// after all scenarios converged — proof the run ended at a quiescent,
	// fully attested state.
	AttestedRoot string `json:"attested_root"`
}

// Passed reports the phase safety bar: zero silent escapes and every
// scenario converged back to a clean, oracle-exact cluster.
func (r *ClusterReport) Passed() bool {
	if r.SilentEscapes != 0 {
		return false
	}
	for _, s := range r.Scenarios {
		if !s.Converged {
			return false
		}
	}
	return r.AttestedRoot != ""
}

const (
	clusterRegion  = 1 << 20 // 1 MiB logical region
	clusterStripeB = 16      // 1 KiB stripes -> 1024 stripes
)

// campNode is one in-process memserved node with a severable transport.
type campNode struct {
	name string
	key  []byte

	mu    sync.Mutex
	mem   *authmem.Memory
	srv   *server.Server
	down  bool
	conns []net.Conn
}

func startCampNode(name string, key []byte, epoch uint64) (*campNode, error) {
	n := &campNode{name: name, key: key}
	return n, n.boot(epoch)
}

func (n *campNode) boot(epoch uint64) error {
	cfg := authmem.DefaultConfig(clusterRegion)
	cfg.Key = n.key
	mem, err := authmem.NewSharded(cfg, 2)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{Backend: mem, NodeID: n.name, Epoch: epoch})
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.mem, n.srv, n.down = mem, srv, false
	n.mu.Unlock()
	return nil
}

func (n *campNode) dial() (net.Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return nil, fmt.Errorf("node %s unreachable", n.name)
	}
	nc, err := n.srv.DialLoopback()
	if err == nil {
		n.conns = append(n.conns, nc)
	}
	return nc, err
}

func (n *campNode) partition() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down = true
	for _, nc := range n.conns {
		nc.Close()
	}
	n.conns = nil
}

func (n *campNode) heal() {
	n.mu.Lock()
	n.down = false
	n.mu.Unlock()
}

func (n *campNode) kill() {
	n.mu.Lock()
	srv := n.srv
	n.down = true
	n.conns = nil
	n.mu.Unlock()
	srv.Close()
}

func (n *campNode) node() cluster.Node {
	return cluster.Node{Name: n.name, Dial: n.dial}
}

// clusterHarness holds the phase's live state: the nodes, the cluster
// client over them, the plaintext oracle, and the accumulating report.
type clusterHarness struct {
	cfg   ClusterConfig
	rng   *rand.Rand
	key   []byte
	nodes []*campNode
	cl    *cluster.Cluster

	mu     sync.Mutex // guards oracle and the current scenario's counters
	oracle []byte
	sc     *ClusterScenarioReport
	rep    *ClusterReport
}

// RunCluster executes the cluster phase and returns its report. Fault
// outcomes — including silent escapes — are reported, not returned.
func RunCluster(cfg ClusterConfig) (*ClusterReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &clusterHarness{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		oracle: make([]byte, clusterRegion),
		rep: &ClusterReport{
			Nodes:       cfg.Nodes,
			Replication: cfg.Replication,
			Seed:        cfg.Seed,
			Outcomes:    make(map[string]uint64),
		},
	}
	h.key = make([]byte, authmem.KeySize)
	h.rng.Read(h.key)

	var nodes []cluster.Node
	for i := 0; i < cfg.Nodes; i++ {
		n, err := startCampNode(fmt.Sprintf("node%d", i), h.key, uint64(i+1))
		if err != nil {
			return nil, fmt.Errorf("campaign: cluster node %d: %w", i, err)
		}
		h.nodes = append(h.nodes, n)
		nodes = append(nodes, n.node())
	}
	defer func() {
		for _, n := range h.nodes {
			n.mu.Lock()
			if !n.down && n.srv != nil {
				n.srv.Close()
			}
			n.mu.Unlock()
		}
	}()

	cl, err := cluster.New(cluster.Options{
		Nodes:         nodes,
		Size:          clusterRegion,
		StripeBlocks:  clusterStripeB,
		Replication:   cfg.Replication,
		ProbeInterval: 10 * time.Millisecond,
		Client:        client.Options{MaxRetries: 2, RetryBackoff: time.Millisecond},
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: cluster: %w", err)
	}
	defer cl.Close()
	h.cl = cl

	// Pre-fill the region so every scenario reads real data, not zeroes.
	buf := make([]byte, 32*wire.BlockBytes)
	for off := uint64(0); off < clusterRegion; off += uint64(len(buf)) {
		h.rng.Read(buf)
		if _, err := cl.Write(off, buf); err != nil {
			return nil, fmt.Errorf("campaign: cluster pre-fill: %w", err)
		}
		copy(h.oracle[off:], buf)
	}

	per := cfg.Ops / len(clusterScenarios)
	for _, name := range clusterScenarios {
		sc := &ClusterScenarioReport{Scenario: name, Outcomes: make(map[string]uint64)}
		h.sc = sc
		switch name {
		case "corrupt":
			h.runCorrupt(per)
		case "rollback":
			h.runRollback(per)
		case "kill":
			h.runKill(per)
		case "partition":
			h.runPartition(per)
		case "rebalance":
			h.runRebalance(per)
		}
		sc.Converged = h.converge()
		h.rep.Scenarios = append(h.rep.Scenarios, *sc)
		h.rep.Ops += sc.Ops
		h.rep.FaultEvents += sc.FaultEvents
		h.rep.BitsFlipped += sc.BitsFlipped
		for o, c := range sc.Outcomes {
			h.rep.Outcomes[o] += c
		}
		h.rep.SilentEscapes += sc.Outcomes[Silent.String()]
	}

	h.rep.Stats = cl.Stats()
	if att, err := cl.Attest(); err == nil {
		h.rep.AttestedRoot = hex.EncodeToString(att.Combined[:])
	}
	return h.rep, nil
}

// span picks a random block-aligned span of 1..8 blocks.
func (h *clusterHarness) span() (uint64, int) {
	n := (1 + h.rng.Intn(8)) * wire.BlockBytes
	addr := uint64(h.rng.Intn(clusterRegion/wire.BlockBytes)) * wire.BlockBytes
	if addr+uint64(n) > clusterRegion {
		addr = clusterRegion - uint64(n)
	}
	return addr, n
}

// classify scores one quorum read against the oracle and, on a loud
// failure, restores the span through the cluster (as real software would
// re-create lost data) so traffic can continue.
func (h *clusterHarness) classify(addr uint64, got []byte, info cluster.Info, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sc.Ops++
	switch {
	case err != nil:
		h.sc.Outcomes[Halted.String()]++
		h.mu.Unlock()
		h.cl.Write(addr, h.oracle[addr:addr+uint64(len(got))])
		h.mu.Lock()
	case !bytes.Equal(got, h.oracle[addr:addr+uint64(len(got))]):
		h.sc.Outcomes[Silent.String()]++
	case info.Verdict == cluster.VerdictClean && !info.Degraded:
		h.sc.Outcomes[Clean.String()]++
	default:
		// Correct data despite a faulted, absent, stale, or divergent
		// replica: the quorum machinery recovered it.
		h.sc.Outcomes[Recovered.String()]++
	}
}

// readOp performs one classified quorum read.
func (h *clusterHarness) readOp() {
	addr, n := h.span()
	dst := make([]byte, n)
	info, err := h.cl.Read(addr, dst)
	h.classify(addr, dst, info, err)
}

// writeOp performs one quorum write and folds it into the oracle. A loud
// write failure is counted; the oracle keeps the old contents (the cluster
// rejected the write as a whole only if no replica took it).
func (h *clusterHarness) writeOp() {
	addr, n := h.span()
	src := make([]byte, n)
	h.rng.Read(src)
	_, err := h.cl.Write(addr, src)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sc.Ops++
	if err != nil {
		h.sc.Outcomes[Halted.String()]++
		return
	}
	copy(h.oracle[addr:], src)
}

// trafficOp runs one read- or write-heavy workload step.
func (h *clusterHarness) trafficOp() {
	if h.rng.Float64() < 0.65 {
		h.readOp()
	} else {
		h.writeOp()
	}
}

// runCorrupt flips stored bits on one node under live traffic: the node's
// own integrity machinery condemns the replica, the quorum outvotes and
// repairs it.
func (h *clusterHarness) runCorrupt(ops int) {
	for i := 0; i < ops; i++ {
		if h.rng.Float64() < h.cfg.FaultRate {
			victim := h.nodes[h.rng.Intn(len(h.nodes))]
			addr := uint64(h.rng.Intn(clusterRegion/wire.BlockBytes)) * wire.BlockBytes
			flips := 1 + h.rng.Intn(h.cfg.BurstMax)
			h.sc.FaultEvents++
			for f := 0; f < flips; f++ {
				plane, width := adversary.Data, 8*wire.BlockBytes
				switch h.rng.Intn(3) {
				case 1:
					plane, width = adversary.Lane, 64
				case 2:
					plane, width = adversary.Counter, 512
				}
				bit := h.rng.Intn(width)
				phys, err := adversary.LocateAddr(victim.mem, plane, addr)
				if err == nil {
					err = adversary.FlipBit(victim.mem, phys, bit)
				}
				if err == nil {
					h.sc.BitsFlipped++
				}
			}
		}
		h.trafficOp()
	}
}

// runRollback writes one replica directly, behind the cluster's back —
// MAC-valid divergent state, the Byzantine replica the status codes cannot
// condemn — and immediately reads the span through the cluster.
func (h *clusterHarness) runRollback(ops int) {
	rogues := make([]*client.Client, len(h.nodes))
	for i, n := range h.nodes {
		c, err := client.New(client.Options{Dial: n.dial})
		if err != nil {
			continue
		}
		rogues[i] = c
		defer c.Close()
	}
	for i := 0; i < ops; i++ {
		if h.rng.Float64() < h.cfg.FaultRate {
			rogue := rogues[h.rng.Intn(len(rogues))]
			if rogue != nil {
				addr, n := h.span()
				evil := make([]byte, n)
				h.rng.Read(evil)
				if _, err := rogue.Write(addr, evil); err == nil {
					h.sc.FaultEvents++
					h.sc.BitsFlipped += uint64(8 * n) // whole-span tamper
					dst := make([]byte, n)
					info, rerr := h.cl.Read(addr, dst)
					h.classify(addr, dst, info, rerr)
				}
			}
		}
		h.trafficOp()
	}
}

// runKill kills one node a third of the way in and restarts it — empty,
// new epoch — at two thirds; traffic must stay correct throughout.
func (h *clusterHarness) runKill(ops int) {
	victim := h.nodes[h.rng.Intn(len(h.nodes))]
	for i := 0; i < ops; i++ {
		switch i {
		case ops / 3:
			victim.kill()
			h.sc.FaultEvents++
		case 2 * ops / 3:
			if err := victim.boot(uint64(1000 + h.rng.Intn(1<<20))); err == nil {
				h.sc.FaultEvents++
			}
			time.Sleep(15 * time.Millisecond) // let the probe window lapse
		}
		h.trafficOp()
	}
}

// runPartition severs one node's transport (process and memory intact) and
// heals it with the same epoch; missed writes must be repaired on revival.
func (h *clusterHarness) runPartition(ops int) {
	victim := h.nodes[h.rng.Intn(len(h.nodes))]
	for i := 0; i < ops; i++ {
		switch i {
		case ops / 3:
			victim.partition()
			h.sc.FaultEvents++
		case 2 * ops / 3:
			victim.heal()
			time.Sleep(15 * time.Millisecond)
		}
		h.trafficOp()
	}
}

// runRebalance joins a newcomer and retires a founding member while reads
// run concurrently; every concurrent answer is oracle-checked.
func (h *clusterHarness) runRebalance(ops int) {
	newcomer, err := startCampNode("joiner", h.key, 7777)
	if err != nil {
		return
	}
	h.nodes = append(h.nodes, newcomer)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				h.readOp()
			}
		}
	}()

	if err := h.cl.AddNode(newcomer.node()); err == nil {
		h.sc.FaultEvents++
	}
	// Retire the first founding member; its stripes re-replicate first.
	if err := h.cl.RemoveNode(h.nodes[0].name); err == nil {
		h.sc.FaultEvents++
	}
	close(stop)
	wg.Wait()

	// The retired node's process stays up (it is simply no longer a
	// member); settle with sequential traffic on the new membership.
	for i := 0; i < ops/4; i++ {
		h.trafficOp()
	}
}

// converge sweeps the whole region until every verdict is clean and the
// data is oracle-exact, letting the quorum repair machinery drain all dirty
// stripes. Loud failures rewrite from the oracle; only running out of time
// fails the sweep.
func (h *clusterHarness) converge() bool {
	const chunk = 64 * wire.BlockBytes
	buf := make([]byte, chunk)
	deadline := time.Now().Add(10 * time.Second)
	for {
		clean := true
		for off := uint64(0); off < clusterRegion; off += chunk {
			info, err := h.cl.Read(off, buf)
			h.classify(off, buf, info, err)
			if err != nil || info.Verdict != cluster.VerdictClean {
				clean = false
				continue
			}
		}
		if clean {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

package cluster_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"authmem"
	"authmem/client"
	"authmem/cluster"
	icluster "authmem/internal/cluster"
	"authmem/internal/server"
	"authmem/internal/tree"
	"authmem/internal/wire"
)

func testKey() []byte { return bytes.Repeat([]byte{0x5A}, authmem.KeySize) }

// nodeHandle is one test node with a severable, restartable transport: the
// cluster dials through it, so tests can partition, kill, and restart the
// node underneath a live Cluster.
type nodeHandle struct {
	t    testing.TB
	name string
	size uint64

	mu    sync.Mutex
	mem   *authmem.Memory
	srv   *server.Server
	down  bool
	conns []net.Conn
}

func startNode(t testing.TB, name string, size uint64, epoch uint64) *nodeHandle {
	t.Helper()
	h := &nodeHandle{t: t, name: name, size: size}
	h.boot(epoch)
	t.Cleanup(func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.srv != nil {
			h.srv.Close()
		}
	})
	return h
}

func (h *nodeHandle) boot(epoch uint64) {
	h.t.Helper()
	cfg := authmem.DefaultConfig(h.size)
	cfg.Key = testKey()
	mem, err := authmem.NewSharded(cfg, 2)
	if err != nil {
		h.t.Fatal(err)
	}
	srv, err := server.New(server.Config{Backend: mem, NodeID: h.name, Epoch: epoch})
	if err != nil {
		h.t.Fatal(err)
	}
	h.mu.Lock()
	h.mem, h.srv, h.down = mem, srv, false
	h.mu.Unlock()
}

func (h *nodeHandle) dial() (net.Conn, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.down {
		return nil, errors.New("node unreachable")
	}
	nc, err := h.srv.DialLoopback()
	if err == nil {
		h.conns = append(h.conns, nc)
	}
	return nc, err
}

// partition severs every live connection and refuses new dials; the node
// itself keeps running untouched.
func (h *nodeHandle) partition() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.down = true
	for _, nc := range h.conns {
		nc.Close()
	}
	h.conns = nil
}

func (h *nodeHandle) heal() {
	h.mu.Lock()
	h.down = false
	h.mu.Unlock()
}

// kill stops the node process; restart boots a fresh one (empty memory, new
// epoch) reachable at the same dial point.
func (h *nodeHandle) kill() {
	h.mu.Lock()
	srv := h.srv
	h.down = true
	h.conns = nil
	h.mu.Unlock()
	srv.Close()
}

func (h *nodeHandle) restart(epoch uint64) { h.boot(epoch) }

func (h *nodeHandle) node() cluster.Node {
	return cluster.Node{Name: h.name, Dial: h.dial}
}

const (
	tSize    = 1 << 20
	tStripeB = 16 // 1 KiB stripes -> 1024 stripes over 1 MiB
)

func startCluster(t testing.TB, names ...string) (map[string]*nodeHandle, *cluster.Cluster) {
	t.Helper()
	handles := map[string]*nodeHandle{}
	var nodes []cluster.Node
	for i, n := range names {
		h := startNode(t, n, tSize, uint64(i+1))
		handles[n] = h
		nodes = append(nodes, h.node())
	}
	c, err := cluster.New(cluster.Options{
		Nodes:         nodes,
		Size:          tSize,
		StripeBlocks:  tStripeB,
		ProbeInterval: 20 * time.Millisecond,
		Client:        client.Options{MaxRetries: 2, RetryBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return handles, c
}

// stripeOwnedBy finds a stripe whose replica set contains name, returning
// its index and base address.
func stripeOwnedBy(names []string, name string, repl int) (uint64, uint64) {
	sb := uint64(tStripeB) * wire.BlockBytes
	for s := uint64(0); s < tSize/sb; s++ {
		for _, o := range icluster.Owners(s, names, repl) {
			if o == name {
				return s, s * sb
			}
		}
	}
	panic("no stripe owned by " + name)
}

func fill(b byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = b ^ byte(i*7)
	}
	return p
}

func TestClusterRoundTrip(t *testing.T) {
	_, c := startCluster(t, "a", "b", "c")

	// A spanning write crossing several stripes, read back in one call
	// and in unaligned-to-stripe pieces.
	data := fill(0x21, 5*tStripeB*wire.BlockBytes/2)
	const base = 3 * tStripeB * wire.BlockBytes / 2 * 2 // stripe 1.5 alignment games, block aligned
	info, err := c.Write(base, data)
	if err != nil {
		t.Fatal(err)
	}
	if info.Verdict != cluster.VerdictClean || info.Degraded {
		t.Fatalf("write info %+v", info)
	}
	dst := make([]byte, len(data))
	info, err = c.Read(base, dst)
	if err != nil {
		t.Fatal(err)
	}
	if info.Verdict != cluster.VerdictClean || !bytes.Equal(dst, data) {
		t.Fatalf("read info %+v, equal=%v", info, bytes.Equal(dst, data))
	}
	piece := make([]byte, wire.BlockBytes)
	if _, err := c.Read(base+wire.BlockBytes, piece); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(piece, data[wire.BlockBytes:2*wire.BlockBytes]) {
		t.Fatal("sub-span read mismatch")
	}

	st := c.Stats()
	if st.QuorumReads == 0 || st.QuorumWrites == 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.DegradedReads+st.DegradedWrites+st.Repairs+st.Unresolved != 0 {
		t.Fatalf("healthy cluster reported trouble: %+v", st)
	}

	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	// Validation.
	if _, err := c.Read(1, piece); err == nil {
		t.Fatal("unaligned read accepted")
	}
	if _, err := c.Write(0, make([]byte, 13)); err == nil {
		t.Fatal("ragged span accepted")
	}
	if _, err := c.Read(tSize-wire.BlockBytes, make([]byte, 2*wire.BlockBytes)); err == nil {
		t.Fatal("out-of-region span accepted")
	}
}

func TestClusterAttest(t *testing.T) {
	_, c := startCluster(t, "a", "b", "c")
	if _, err := c.Write(0, fill(1, 4096)); err != nil {
		t.Fatal(err)
	}
	att, err := c.Attest()
	if err != nil {
		t.Fatal(err)
	}
	if len(att.Nodes) != 3 {
		t.Fatalf("attested %d nodes", len(att.Nodes))
	}
	// Node order is sorted by name, and the combined root is the same
	// domain-separated combination the sharded engine uses.
	roots := make([][sha256.Size]byte, len(att.Nodes))
	for i, nr := range att.Nodes {
		if nr.Name != []string{"a", "b", "c"}[i] {
			t.Fatalf("attest order: %v", att.Nodes)
		}
		roots[i] = nr.Root
	}
	if att.Combined != authmem.RootDigest(tree.CombineRoots(roots)) {
		t.Fatal("combined root is not CombineRoots(per-node roots)")
	}

	// A write moves at least the owners' roots, hence the combined root.
	if _, err := c.Write(8192, fill(2, 4096)); err != nil {
		t.Fatal(err)
	}
	att2, err := c.Attest()
	if err != nil {
		t.Fatal(err)
	}
	if att2.Combined == att.Combined {
		t.Fatal("combined root did not move across a write")
	}
}

// TestClusterSurvivesCorruption corrupts one replica's stored bits beyond
// ECC and checks the quorum read returns correct data, reports the typed
// verdict, and repairs the loser.
func TestClusterSurvivesCorruption(t *testing.T) {
	hs, c := startCluster(t, "a", "b", "c")
	names := []string{"a", "b", "c"}

	_, addr := stripeOwnedBy(names, "b", 2)
	data := fill(0x5C, tStripeB*wire.BlockBytes)
	if _, err := c.Write(addr, data); err != nil {
		t.Fatal(err)
	}
	for _, bit := range []int{1, 77, 300} { // beyond ECC correction
		if err := hs["b"].mem.FlipDataBit(addr, bit); err != nil {
			t.Fatal(err)
		}
	}

	dst := make([]byte, wire.BlockBytes)
	info, err := c.Read(addr, dst)
	if err != nil {
		t.Fatalf("quorum read over corrupted replica: %v", err)
	}
	if !bytes.Equal(dst, data[:wire.BlockBytes]) {
		t.Fatal("quorum read returned corrupt data")
	}
	if info.Verdict != cluster.VerdictOutvotedFault {
		t.Fatalf("verdict %v, want OUTVOTED_FAULT", info.Verdict)
	}
	if !info.Repaired {
		t.Fatal("corrupted replica was not repaired")
	}
	st := c.Stats()
	if st.OutvotedFault == 0 || st.Repairs == 0 {
		t.Fatalf("stats %+v", st)
	}

	// After repair the replica answers correctly again: the next read is
	// clean, and the repaired node's own copy verifies end to end.
	if info, err = c.Read(addr, dst); err != nil || info.Verdict != cluster.VerdictClean {
		t.Fatalf("post-repair read: info=%+v err=%v", info, err)
	}
	direct, err := client.New(client.Options{Dial: hs["b"].dial})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	back := make([]byte, len(data))
	if _, err := direct.Read(addr, back); err != nil || !bytes.Equal(back, data) {
		t.Fatalf("repaired replica direct read: err=%v equal=%v", err, bytes.Equal(back, data))
	}
}

// TestClusterSurvivesKillAndRestart kills a node mid-life, checks degraded
// service continues, restarts the node empty with a new epoch, and checks
// the epoch evidence voids it and repair resurrects its stripes.
func TestClusterSurvivesKillAndRestart(t *testing.T) {
	hs, c := startCluster(t, "a", "b", "c")
	names := []string{"a", "b", "c"}

	_, addr := stripeOwnedBy(names, "c", 2)
	data := fill(0x7E, tStripeB*wire.BlockBytes)
	if _, err := c.Write(addr, data); err != nil {
		t.Fatal(err)
	}

	hs["c"].kill()

	dst := make([]byte, len(data))
	info, err := c.Read(addr, dst)
	if err != nil {
		t.Fatalf("read with node down: %v", err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("degraded read returned wrong data")
	}
	if info.Verdict != cluster.VerdictOutvotedUnreachable || !info.Degraded {
		t.Fatalf("degraded read info %+v", info)
	}
	// Writes during the outage must be tracked as missed on the dead node.
	data2 := fill(0x11, tStripeB*wire.BlockBytes)
	winfo, err := c.Write(addr, data2)
	if err != nil {
		t.Fatalf("write with node down: %v", err)
	}
	if !winfo.Degraded {
		t.Fatalf("write info %+v", winfo)
	}

	// Restart: same name and dial point, empty memory, new epoch.
	hs["c"].restart(99)
	time.Sleep(30 * time.Millisecond) // let the probe interval lapse

	info, err = c.Read(addr, dst)
	if err != nil {
		t.Fatalf("read after restart: %v", err)
	}
	if !bytes.Equal(dst, data2) {
		t.Fatal("read after restart returned wrong data")
	}
	if info.Verdict == cluster.VerdictClean {
		t.Fatalf("restarted empty node served a clean quorum: %+v", info)
	}
	st := c.Stats()
	if st.EpochResets == 0 || st.Revivals == 0 {
		t.Fatalf("restart left no epoch evidence: %+v", st)
	}
	// The restarted node is repaired on demand; once repaired, reads are
	// clean again.
	deadline := time.Now().Add(2 * time.Second)
	for {
		info, err = c.Read(addr, dst)
		if err == nil && info.Verdict == cluster.VerdictClean {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stripe never converged: info=%+v err=%v", info, err)
		}
	}
	if !bytes.Equal(dst, data2) {
		t.Fatal("converged read returned wrong data")
	}
}

// TestClusterPartitionHeal partitions a node (process alive, transport
// dead), writes through the outage, heals, and checks the same-epoch
// revival repairs exactly the missed writes.
func TestClusterPartitionHeal(t *testing.T) {
	hs, c := startCluster(t, "a", "b")

	data := fill(0x44, 4*tStripeB*wire.BlockBytes)
	if _, err := c.Write(0, data); err != nil {
		t.Fatal(err)
	}

	hs["b"].partition()
	data2 := fill(0x55, 4*tStripeB*wire.BlockBytes)
	winfo, err := c.Write(0, data2)
	if err != nil {
		t.Fatalf("write during partition: %v", err)
	}
	if !winfo.Degraded {
		t.Fatalf("partitioned write info %+v", winfo)
	}

	hs["b"].heal()
	time.Sleep(30 * time.Millisecond)

	dst := make([]byte, len(data2))
	info, err := c.Read(0, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data2) {
		t.Fatal("post-heal read returned stale data")
	}
	// The healed node rejoined with the same epoch: no epoch reset, just
	// stale-stripe repair.
	st := c.Stats()
	if st.EpochResets != 0 {
		t.Fatalf("same-epoch heal counted an epoch reset: %+v", st)
	}
	if st.Repairs == 0 && info.Verdict == cluster.VerdictClean {
		t.Fatalf("missed writes were never repaired: %+v", st)
	}
	// Convergence: repeated reads go clean.
	deadline := time.Now().Add(2 * time.Second)
	for {
		info, err = c.Read(0, dst)
		if err == nil && info.Verdict == cluster.VerdictClean {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("partition never converged: info=%+v err=%v", info, err)
		}
	}
}

// TestClusterRootEvidence writes to one replica behind the cluster's back
// (modelling rolled-back or tampered-but-MAC-valid state) and checks the
// root-pin deviation outvotes it; when both replicas deviate, the read
// fails with a typed QuorumError instead of guessing.
// TestClusterAllowDead rebuilds a cluster client over a membership that is
// currently missing a node: without AllowDead New fails, with it the
// survivors serve verified (degraded) reads, and the returned node is
// treated as unvalidated and repaired.
func TestClusterAllowDead(t *testing.T) {
	hs, c := startCluster(t, "a", "b", "c")
	data := fill(0x2F, tSize/8)
	if _, err := c.Write(0, data); err != nil {
		t.Fatal(err)
	}
	c.Close()
	hs["c"].kill()

	nodes := []cluster.Node{hs["a"].node(), hs["b"].node(), hs["c"].node()}
	if _, err := cluster.New(cluster.Options{Nodes: nodes, Size: tSize, StripeBlocks: tStripeB}); err == nil {
		t.Fatal("New without AllowDead accepted a dead member")
	}

	c2, err := cluster.New(cluster.Options{
		Nodes:         nodes,
		Size:          tSize,
		StripeBlocks:  tStripeB,
		ProbeInterval: 20 * time.Millisecond,
		Client:        client.Options{MaxRetries: 2, RetryBackoff: time.Millisecond},
		AllowDead:     true,
	})
	if err != nil {
		t.Fatalf("New with AllowDead: %v", err)
	}
	defer c2.Close()

	dst := make([]byte, len(data))
	info, err := c2.Read(0, dst)
	if err != nil {
		t.Fatalf("read over missing member: %v", err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("read over missing member returned wrong data")
	}
	_ = info // degraded only on stripes the dead node owns

	// The node comes back (fresh state, new epoch): first contact voids
	// it and the quorum repairs it back to correctness.
	hs["c"].restart(4242)
	time.Sleep(30 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		info, err = c2.Read(0, dst)
		if err == nil && info.Verdict == cluster.VerdictClean {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("returned member never converged: info=%+v err=%v", info, err)
		}
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("converged read returned wrong data")
	}
	if st := c2.Stats(); st.EpochResets == 0 {
		t.Fatalf("first contact did not void the unvalidated member: %+v", st)
	}
}

func TestClusterRootEvidence(t *testing.T) {
	hs, c := startCluster(t, "a", "b")

	data := fill(0x66, tStripeB*wire.BlockBytes)
	if _, err := c.Write(0, data); err != nil {
		t.Fatal(err)
	}

	rogue, err := client.New(client.Options{Dial: hs["b"].dial})
	if err != nil {
		t.Fatal(err)
	}
	defer rogue.Close()
	if _, err := rogue.Write(0, fill(0x99, wire.BlockBytes)); err != nil {
		t.Fatal(err)
	}

	dst := make([]byte, wire.BlockBytes)
	info, err := c.Read(0, dst)
	if err != nil {
		t.Fatalf("read over deviant replica: %v", err)
	}
	if info.Verdict != cluster.VerdictOutvotedRoot {
		t.Fatalf("verdict %v, want OUTVOTED_ROOT", info.Verdict)
	}
	if !bytes.Equal(dst, data[:wire.BlockBytes]) {
		t.Fatal("deviant replica's data won the quorum")
	}

	// Both replicas deviate: nothing decides, typed error, no guessing.
	rogueA, err := client.New(client.Options{Dial: hs["a"].dial})
	if err != nil {
		t.Fatal(err)
	}
	defer rogueA.Close()
	const addr2 = 8 * tStripeB * wire.BlockBytes
	if _, err := c.Write(addr2, fill(0x10, wire.BlockBytes)); err != nil {
		t.Fatal(err)
	}
	if _, err := rogueA.Write(addr2, fill(0x20, wire.BlockBytes)); err != nil {
		t.Fatal(err)
	}
	if _, err := rogue.Write(addr2, fill(0x30, wire.BlockBytes)); err != nil {
		t.Fatal(err)
	}
	_, err = c.Read(addr2, dst)
	var qe *cluster.QuorumError
	if !errors.As(err, &qe) {
		t.Fatalf("double deviation: err=%v, want *QuorumError", err)
	}
	if len(qe.Replicas) != 2 || qe.Op != "read" {
		t.Fatalf("quorum error evidence: %+v", qe)
	}
	if c.Stats().Unresolved == 0 {
		t.Fatal("unresolved divergence not counted")
	}
}

// TestClusterRebalance joins and retires members under live traffic and
// checks verified transfers move exactly the stripes the placement moves.
func TestClusterRebalance(t *testing.T) {
	hs, c := startCluster(t, "a", "b")
	_ = hs

	data := fill(0x3A, tSize/4)
	if _, err := c.Write(0, data); err != nil {
		t.Fatal(err)
	}

	// Live traffic during the join.
	stop := make(chan struct{})
	trafficErr := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, wire.BlockBytes)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			addr := uint64(i%64) * tStripeB * wire.BlockBytes
			if addr >= tSize/4 {
				addr = 0
			}
			if _, err := c.Read(addr, buf); err != nil {
				select {
				case trafficErr <- fmt.Errorf("read at %#x: %w", addr, err):
				default:
				}
				return
			}
		}
	}()

	hC := startNode(t, "c", tSize, 7)
	if err := c.AddNode(hC.node()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-trafficErr:
		t.Fatalf("traffic failed during rebalance: %v", err)
	default:
	}

	members := c.Members()
	if len(members) != 3 || members[2] != "c" {
		t.Fatalf("members after join: %v", members)
	}
	st := c.Stats()
	if st.RebalancedStripes == 0 || st.TransferredBytes == 0 {
		t.Fatalf("join moved nothing: %+v", st)
	}
	// Joining one of three nodes should move roughly 2/3 * 1/3 of stripe
	// replicas; certainly not all of them.
	stripes := uint64(tSize / (tStripeB * wire.BlockBytes))
	if st.RebalancedStripes >= stripes {
		t.Fatalf("join moved %d of %d stripes; rendezvous should move ~1/3", st.RebalancedStripes, stripes)
	}

	// Data intact, including on stripes now owned by the newcomer.
	dst := make([]byte, len(data))
	if info, err := c.Read(0, dst); err != nil || info.Verdict != cluster.VerdictClean {
		t.Fatalf("post-join read: info=%+v err=%v", info, err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("post-join read mismatch")
	}

	// Retire a founding member; its stripes must re-replicate first.
	if err := c.RemoveNode("b"); err != nil {
		t.Fatal(err)
	}
	if got := c.Members(); len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("members after retire: %v", got)
	}
	if info, err := c.Read(0, dst); err != nil || info.Verdict != cluster.VerdictClean {
		t.Fatalf("post-retire read: info=%+v err=%v", info, err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("post-retire read mismatch")
	}

	// Every stripe is again held by both survivors at full replication.
	att, err := c.Attest()
	if err != nil {
		t.Fatal(err)
	}
	if len(att.Nodes) != 2 {
		t.Fatalf("attested %d nodes after retire", len(att.Nodes))
	}
}

// TestClusterLosingFirstVoterNeverReachesCaller pins the one hazard of
// reading the first voter straight into the caller's buffer: until the vote
// is resolved, dst holds an unvoted replica's bytes. Whichever replica
// deviates — the first voter (the winner must be copied over dst) or the
// other one (the winner is already there) — the caller gets the voted data;
// and when nothing decides, or no replica answers, dst comes back zeroed:
// not the sentinel it went in with and not either replica's claim.
func TestClusterLosingFirstVoterNeverReachesCaller(t *testing.T) {
	hs, c := startCluster(t, "a", "b")
	names := []string{"a", "b"}
	sb := uint64(tStripeB) * wire.BlockBytes
	rogues := map[string]*client.Client{}
	for _, n := range names {
		r, err := client.New(client.Options{Dial: hs[n].dial})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		rogues[n] = r
	}
	sentinel := bytes.Repeat([]byte{0xEE}, wire.BlockBytes)
	zero := make([]byte, wire.BlockBytes)

	// Four stripes: on the even ones the first voter deviates, on the odd
	// ones the second.
	for s := uint64(0); s < 4; s++ {
		owners := icluster.Owners(s, names, 2)
		deviant := owners[s%2] // s even: the first voter loses; odd: the second
		addr := s * sb
		good := fill(byte(0x40+s), wire.BlockBytes)
		if _, err := c.Write(addr, good); err != nil {
			t.Fatal(err)
		}
		if _, err := rogues[deviant].Write(addr, fill(0x99, wire.BlockBytes)); err != nil {
			t.Fatal(err)
		}
		dst := append([]byte(nil), sentinel...)
		info, err := c.Read(addr, dst)
		if err != nil {
			t.Fatalf("stripe %d (deviant %s, voter %d): %v", s, deviant, s%2, err)
		}
		if info.Verdict != cluster.VerdictOutvotedRoot {
			t.Fatalf("stripe %d: verdict %v, want OUTVOTED_ROOT", s, info.Verdict)
		}
		if !bytes.Equal(dst, good) {
			t.Fatalf("stripe %d: caller got bytes the vote did not pick (deviant was voter %d)", s, s%2)
		}
	}

	// Both deviate: *QuorumError, and dst holds neither claim.
	addr := 8 * sb
	if _, err := c.Write(addr, fill(0x10, wire.BlockBytes)); err != nil {
		t.Fatal(err)
	}
	if _, err := rogues["a"].Write(addr, fill(0x20, wire.BlockBytes)); err != nil {
		t.Fatal(err)
	}
	if _, err := rogues["b"].Write(addr, fill(0x30, wire.BlockBytes)); err != nil {
		t.Fatal(err)
	}
	dst := append([]byte(nil), sentinel...)
	_, err := c.Read(addr, dst)
	var qe *cluster.QuorumError
	if !errors.As(err, &qe) {
		t.Fatalf("double deviation: err=%v, want *QuorumError", err)
	}
	if !bytes.Equal(dst, zero) {
		t.Fatalf("unresolved read left %x... in the caller's buffer, want zeroes", dst[:8])
	}

	// Nobody answers: same contract.
	hs["a"].partition()
	hs["b"].partition()
	dst = append(dst[:0], sentinel...)
	if _, err := c.Read(16*sb, dst); !errors.As(err, &qe) {
		t.Fatalf("all replicas unreachable: err=%v, want *QuorumError", err)
	}
	if !bytes.Equal(dst, zero) {
		t.Fatal("unreachable read left the caller's buffer unzeroed")
	}
}

// Package cluster stripes one logical authenticated-memory region across a
// set of memserved nodes and reads it back through verifying quorums.
//
// Placement is client-side and deterministic: the region is cut into
// fixed-size stripes and every stripe is assigned to R of the N nodes by
// rendezvous hashing (internal/cluster), so any client with the member list
// derives the same map. Every node provisions the full logical address
// space and a stripe lives at identical addresses on each of its replicas,
// which keeps per-node Merkle roots meaningful and makes repair and
// rebalance plain verified copies.
//
// Reads fan out to all of a stripe's replicas and compare the answers.
// A mismatching replica is outvoted by evidence — its own node's integrity
// verdict (MAC_FAIL/QUARANTINED), unreachability, an epoch change proving a
// restart, a root-pin deviation proving rollback, or a byte-identical
// majority when R >= 3 — then repaired by re-writing the winning data.
// When no evidence decides, the operation fails with a typed *QuorumError:
// divergence is detected and reported, never silently resolved by guessing.
//
// The Cluster is a single-writer client, like the per-region memserved
// model it federates: one Cluster instance (safe for concurrent use by many
// goroutines) must be the only writer to its nodes.
package cluster

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"authmem"
	"authmem/client"
	icluster "authmem/internal/cluster"
	"authmem/internal/wire"
)

// Options configures a Cluster.
type Options struct {
	// Nodes is the initial membership. At least one node; all must be
	// reachable at New.
	Nodes []Node

	// Size is the logical region size in bytes (multiple of the 64-byte
	// block). Every node must provision at least this much.
	Size uint64

	// Replication is R, the replica count per stripe (default 2, clamped
	// to the member count). R=1 disables quorums: no corruption survives,
	// but the layout still scales capacity.
	Replication int

	// StripeBlocks is the placement granularity in blocks (default 64,
	// i.e. 4 KiB stripes; at most wire.MaxSpanBlocks).
	StripeBlocks int

	// Client is the template for each node's client.Options; Addr/Dial
	// are overridden per node.
	Client client.Options

	// ProbeInterval rate-limits liveness probes of a dead node (default
	// 1s). Shorter means faster reintegration after a partition heals.
	ProbeInterval time.Duration

	// AllowDead admits members that cannot be reached at New as dead
	// instead of failing: they are probed back to life like any other
	// dead member, and their state is voided (repaired from replicas)
	// when first contact pins their epoch. At least one member must
	// still be reachable. This is how a client rejoins a cluster that
	// is currently missing a node.
	AllowDead bool
}

// Node is one member's connection recipe.
type Node struct {
	// Name is the member's stable placement identity. It must equal the
	// node's own identity (memserved -node-id), which is verified at
	// connect time: placement and attestation are keyed by name, so a
	// name pointing at the wrong node would corrupt both.
	Name string
	// Addr is the node's TCP address, used when Dial is nil.
	Addr string
	// Dial overrides the transport, e.g. (*server.Server).DialLoopback.
	Dial func() (net.Conn, error)
}

func (o *Options) fill() error {
	if len(o.Nodes) == 0 {
		return errors.New("cluster: at least one node required")
	}
	if o.Replication <= 0 {
		o.Replication = 2
	}
	o.Replication = min(o.Replication, len(o.Nodes))
	if o.StripeBlocks <= 0 {
		o.StripeBlocks = 64
	}
	g := icluster.Geometry{Size: o.Size, StripeBlocks: o.StripeBlocks}
	if err := g.Validate(); err != nil {
		return err
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	seen := map[string]bool{}
	for _, n := range o.Nodes {
		if n.Name == "" {
			return errors.New("cluster: every node needs a Name")
		}
		if seen[n.Name] {
			return fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
	}
	return nil
}

// member is one node's live state: its client, pinned identity, liveness,
// the latest root the cluster has observed from it, and the set of stripes
// known to be stale on it.
type member struct {
	name string
	node Node

	mu        sync.Mutex
	cl        *client.Client // nil only while dead-since-birth (AllowDead)
	alive     bool
	everSeen  bool               // completed a handshake at least once
	epoch     uint64             // pinned at connect/revival; change = restart
	lastRoot  authmem.RootDigest // latest root pinned by a write/flush
	rootKnown bool
	nextProbe time.Time
	dirty     map[uint64]struct{} // stripes that missed writes or lost a vote
}

func (m *member) markDirty(s uint64) {
	m.mu.Lock()
	m.dirty[s] = struct{}{}
	m.mu.Unlock()
}

func (m *member) isDirty(s uint64) bool {
	m.mu.Lock()
	_, d := m.dirty[s]
	m.mu.Unlock()
	return d
}

func (m *member) clearDirty(s uint64) {
	m.mu.Lock()
	delete(m.dirty, s)
	m.mu.Unlock()
}

// noteRoot records the latest root digest pinned by this node to a write or
// flush response, the reference for root-deviation evidence.
func (m *member) noteRoot(d authmem.RootDigest) {
	m.mu.Lock()
	m.lastRoot = d
	m.rootKnown = true
	m.mu.Unlock()
}

func (m *member) isAlive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alive
}

// Cluster is the striping, quorum-reading client over the member nodes.
type Cluster struct {
	geo   icluster.Geometry
	repl  int
	probe time.Duration
	copts client.Options // template for node clients, kept for AddNode

	// gate: data operations (reads, writes, repairs, transfers) hold it
	// shared; Attest holds it exclusively to get a cluster-wide quiescent
	// point. Always acquired before any stripe lock.
	gate sync.RWMutex

	// mmu guards membership: the name->member map and the sorted name
	// list placement is derived from.
	mmu     sync.RWMutex
	members map[string]*member
	names   []string

	// owners is the live placement: owners[s] is stripe s's replica set,
	// best-score-first. Entries are read and replaced only under the
	// stripe's lock, so rebalancing swaps ownership stripe-by-stripe
	// while traffic continues elsewhere.
	owners [][]*member

	// locks are lock-striped per-stripe RW locks: reads share, writes
	// and repairs/transfers are exclusive, which both serializes
	// conflicting writes (replicas must apply them in one order) and
	// makes the replica comparison race-free.
	locks []sync.RWMutex

	// rebalMu serializes membership changes.
	rebalMu sync.Mutex

	ctr    counters
	closed bool
}

// New connects to every node, verifies identities and geometry, computes
// the initial placement, and returns a ready Cluster.
func New(opts Options) (*Cluster, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	c := &Cluster{
		geo:     icluster.Geometry{Size: opts.Size, StripeBlocks: opts.StripeBlocks},
		repl:    opts.Replication,
		probe:   opts.ProbeInterval,
		copts:   opts.Client,
		members: make(map[string]*member, len(opts.Nodes)),
	}
	alive := 0
	for _, n := range opts.Nodes {
		m, err := c.connect(n, opts.Client)
		switch {
		case err == nil:
			alive++
		case opts.AllowDead:
			// Admitted dead: probed back like any downed member; the
			// first successful handshake voids its unknown state.
			m = &member{name: n.Name, node: n, dirty: make(map[uint64]struct{})}
		default:
			c.Close()
			return nil, err
		}
		c.members[n.Name] = m
		c.names = append(c.names, n.Name)
	}
	if alive == 0 {
		c.Close()
		return nil, errors.New("cluster: no member reachable")
	}
	sort.Strings(c.names)

	stripes := c.geo.Stripes()
	c.locks = make([]sync.RWMutex, min(stripes, 512))
	c.owners = make([][]*member, stripes)
	for s := uint64(0); s < stripes; s++ {
		c.owners[s] = c.resolve(icluster.Owners(s, c.names, c.repl))
	}
	return c, nil
}

// connect dials one node and pins its identity and epoch.
func (c *Cluster) connect(n Node, tmpl client.Options) (*member, error) {
	tmpl.Addr = n.Addr
	tmpl.Dial = n.Dial
	cl, err := client.New(tmpl)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %q: %w", n.Name, err)
	}
	ni, err := cl.Hello()
	if err != nil {
		cl.Close()
		return nil, fmt.Errorf("cluster: node %q handshake: %w", n.Name, err)
	}
	if ni.NodeID != n.Name {
		cl.Close()
		return nil, fmt.Errorf("cluster: node at %q identifies as %q, configured as %q", n.Addr, ni.NodeID, n.Name)
	}
	if ni.Size < c.geo.Size || ni.BlockBytes != wire.BlockBytes {
		cl.Close()
		return nil, fmt.Errorf("cluster: node %q provisions %d bytes of %d-byte blocks; need %d bytes", n.Name, ni.Size, ni.BlockBytes, c.geo.Size)
	}
	return &member{
		name:     n.Name,
		node:     n,
		cl:       cl,
		alive:    true,
		everSeen: true,
		epoch:    ni.Epoch,
		dirty:    make(map[uint64]struct{}),
	}, nil
}

// client returns m's client; nil while the member has never been reached.
func (m *member) client() *client.Client {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cl
}

// resolve maps owner names to live member structs.
func (c *Cluster) resolve(names []string) []*member {
	ms := make([]*member, len(names))
	for i, n := range names {
		ms[i] = c.members[n]
	}
	return ms
}

// Close tears down every node client.
func (c *Cluster) Close() error {
	c.mmu.Lock()
	defer c.mmu.Unlock()
	c.closed = true
	for _, m := range c.members {
		if cl := m.client(); cl != nil {
			cl.Close()
		}
	}
	return nil
}

// Members returns the current member names, sorted. This is also the node
// order of Attest's combined root.
func (c *Cluster) Members() []string {
	c.mmu.RLock()
	defer c.mmu.RUnlock()
	return append([]string(nil), c.names...)
}

// lockFor returns stripe s's lock (lock-striped; distinct stripes may
// share, which costs concurrency, never correctness).
func (c *Cluster) lockFor(s uint64) *sync.RWMutex {
	return &c.locks[s%uint64(len(c.locks))]
}

// ownersOf returns stripe s's replica set, which the caller must not modify:
// an entry is never changed in place, only replaced by a fresh slice
// (rebalance, evict), so the one read here stays valid without a copy.
// Caller holds the stripe lock; mmu additionally covers the table entry
// itself, which rebalancing swaps.
func (c *Cluster) ownersOf(s uint64) []*member {
	c.mmu.RLock()
	defer c.mmu.RUnlock()
	return c.owners[s]
}

// liveMembers returns every member currently marked alive.
func (c *Cluster) liveMembers() []*member {
	c.mmu.RLock()
	defer c.mmu.RUnlock()
	ms := make([]*member, 0, len(c.members))
	for _, m := range c.members {
		if m.isAlive() {
			ms = append(ms, m)
		}
	}
	return ms
}

// markDead records a transport-level failure of m.
func (c *Cluster) markDead(m *member) {
	m.mu.Lock()
	if m.alive {
		m.alive = false
		m.nextProbe = time.Now().Add(c.probe)
	}
	m.mu.Unlock()
}

// reviveIfDue probes a dead node, rate-limited. A successful probe with an
// unchanged epoch reintegrates the node as-is (its dirty set already names
// every stripe that missed a write during the outage). A changed epoch —
// or a first-ever contact with a member admitted dead at New — means the
// node's state is unvalidated: everything it owns is voided for repair.
func (c *Cluster) reviveIfDue(m *member) bool {
	m.mu.Lock()
	if m.alive {
		m.mu.Unlock()
		return true
	}
	if time.Now().Before(m.nextProbe) {
		m.mu.Unlock()
		return false
	}
	m.nextProbe = time.Now().Add(c.probe)
	cl := m.cl
	m.mu.Unlock()

	if cl == nil {
		// Dead since birth (AllowDead): build the client now.
		tmpl := c.copts
		tmpl.Addr = m.node.Addr
		tmpl.Dial = m.node.Dial
		ncl, err := client.New(tmpl)
		if err != nil {
			return false
		}
		m.mu.Lock()
		if m.cl == nil {
			m.cl = ncl
		}
		cl = m.cl
		m.mu.Unlock()
		if cl != ncl {
			ncl.Close()
		}
	}

	ni, err := cl.Hello()
	if err != nil || ni.NodeID != m.name || ni.Size < c.geo.Size || ni.BlockBytes != wire.BlockBytes {
		return false
	}
	m.mu.Lock()
	restarted := !m.everSeen || ni.Epoch != m.epoch
	m.epoch = ni.Epoch
	m.alive = true
	m.everSeen = true
	m.rootKnown = m.rootKnown && !restarted
	m.mu.Unlock()
	c.ctr.revivals.Add(1)
	if restarted {
		c.ctr.epochResets.Add(1)
		c.voidMember(m)
	}
	return true
}

// voidMember marks every stripe owned by m dirty: its state is void (the
// node restarted) and each stripe must be repaired from a surviving
// replica before m's answers count again.
func (c *Cluster) voidMember(m *member) {
	c.mmu.RLock()
	defer c.mmu.RUnlock()
	for s := uint64(0); s < c.geo.Stripes(); s++ {
		for _, o := range c.owners[s] {
			if o == m {
				m.markDirty(s)
				break
			}
		}
	}
}

// refreshEpoch re-runs the handshake against a live node and reports
// whether its epoch moved since it was pinned — the restart evidence used
// to resolve divergent reads. A changed epoch voids the member.
func (c *Cluster) refreshEpoch(m *member) (changed bool, err error) {
	ni, err := m.cl.Hello()
	if err != nil {
		c.markDead(m)
		return false, err
	}
	m.mu.Lock()
	changed = ni.Epoch != m.epoch
	m.epoch = ni.Epoch
	m.rootKnown = m.rootKnown && !changed
	m.mu.Unlock()
	if changed {
		c.ctr.epochResets.Add(1)
		c.voidMember(m)
	}
	return changed, nil
}

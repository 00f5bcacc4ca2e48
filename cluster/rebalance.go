package cluster

import (
	"fmt"
	"sort"
	"sync/atomic"

	icluster "authmem/internal/cluster"
)

// AddNode joins a new member and rebalances: every stripe the rendezvous
// placement assigns to the newcomer is transferred as a verified copy —
// quorum-read from its current replicas, written to the new node, read
// back through the new node's own authentication path and compared —
// before ownership flips. Transfers run stripe-by-stripe under that
// stripe's exclusive lock, so traffic to all other stripes continues
// throughout.
func (c *Cluster) AddNode(n Node) error {
	c.rebalMu.Lock()
	defer c.rebalMu.Unlock()

	c.mmu.RLock()
	_, dup := c.members[n.Name]
	newNames := append(append([]string(nil), c.names...), n.Name)
	c.mmu.RUnlock()
	if dup {
		return fmt.Errorf("cluster: node %q already a member", n.Name)
	}
	sort.Strings(newNames)

	m, err := c.connect(n, c.copts)
	if err != nil {
		return err
	}
	// Visible in the member map (so placements can resolve it) but not in
	// the name list: stripes flip to the newcomer one verified transfer
	// at a time, and Attest keeps covering exactly the old membership
	// until the join completes.
	c.mmu.Lock()
	c.members[n.Name] = m
	c.mmu.Unlock()

	if err := c.rebalance(newNames); err != nil {
		// Partial joins leave a consistent cluster: every stripe is
		// owned by replicas that hold verified copies. Drop the
		// newcomer from stripes it already won, then unwind.
		c.evict(m)
		c.mmu.Lock()
		delete(c.members, n.Name)
		c.mmu.Unlock()
		m.cl.Close()
		return err
	}
	c.mmu.Lock()
	c.names = newNames
	c.mmu.Unlock()
	return nil
}

// RemoveNode retires a member: every stripe that loses a replica with it
// first gets a fresh replica transferred (verified) onto the node the
// placement promotes, then ownership flips and the member is dropped. The
// node being removed may already be dead — transfers source from the
// surviving replicas.
func (c *Cluster) RemoveNode(name string) error {
	c.rebalMu.Lock()
	defer c.rebalMu.Unlock()

	c.mmu.RLock()
	m, ok := c.members[name]
	var newNames []string
	for _, n := range c.names {
		if n != name {
			newNames = append(newNames, n)
		}
	}
	c.mmu.RUnlock()
	if !ok {
		return fmt.Errorf("cluster: node %q is not a member", name)
	}
	if len(newNames) == 0 {
		return fmt.Errorf("cluster: cannot remove %q, it is the last member", name)
	}

	if err := c.rebalance(newNames); err != nil {
		return err
	}
	c.mmu.Lock()
	c.names = newNames
	delete(c.members, name)
	c.mmu.Unlock()
	if cl := m.client(); cl != nil {
		cl.Close()
	}
	return nil
}

// rebalance drives every stripe from its current replica set to the one
// rendezvous hashing derives from names: replicas joining a stripe receive
// a verified copy before the stripe's ownership entry is swapped. The
// rendezvous property keeps the work minimal — only stripes whose replica
// set actually changes are touched.
func (c *Cluster) rebalance(names []string) error {
	r := min(c.repl, len(names))
	for s := uint64(0); s < c.geo.Stripes(); s++ {
		target := icluster.Owners(s, names, r)

		c.gate.RLock()
		lk := c.lockFor(s)
		lk.Lock()
		cur := c.ownersOf(s)
		if sameMembers(cur, target) {
			lk.Unlock()
			c.gate.RUnlock()
			continue
		}
		var ferr error
		for _, name := range target {
			if hasMember(cur, name) {
				continue
			}
			c.mmu.RLock()
			dst := c.members[name]
			c.mmu.RUnlock()
			if dst == nil {
				ferr = fmt.Errorf("cluster: placement names unknown node %q", name)
				break
			}
			if err := c.transferStripeLocked(s, dst); err != nil {
				ferr = fmt.Errorf("cluster: stripe %d -> %q: %w", s, name, err)
				break
			}
		}
		if ferr == nil {
			c.mmu.Lock()
			c.owners[s] = c.resolve(target)
			c.mmu.Unlock()
		}
		lk.Unlock()
		c.gate.RUnlock()
		if ferr != nil {
			return ferr
		}
	}
	return nil
}

// transferStripeLocked copies stripe s onto dst as a verified checkpoint:
// the content is established by a quorum read over the current replicas,
// written to dst, and read back through dst's authentication path. Caller
// holds the stripe lock exclusively.
func (c *Cluster) transferStripeLocked(s uint64, dst *member) error {
	lo, hi := c.geo.StripeSpan(s)
	buf := make([]byte, hi-lo)
	if _, err := c.round(s, lo, buf, false); err != nil {
		return fmt.Errorf("no trustworthy source: %w", err)
	}
	if !c.copyVerified(dst, s, lo, buf) {
		return fmt.Errorf("verified copy to %q failed", dst.name)
	}
	dst.clearDirty(s)
	atomic.AddUint64(&c.ctr.RebalancedStripes, 1)
	atomic.AddUint64(&c.ctr.TransferredBytes, uint64(len(buf)))
	return nil
}

// evict removes m from every stripe ownership entry it appears in,
// restoring the remaining replicas as that stripe's owner set.
func (c *Cluster) evict(m *member) {
	for s := uint64(0); s < c.geo.Stripes(); s++ {
		c.gate.RLock()
		lk := c.lockFor(s)
		lk.Lock()
		c.mmu.Lock()
		cur := c.owners[s]
		kept := cur[:0:0]
		for _, o := range cur {
			if o != m {
				kept = append(kept, o)
			}
		}
		c.owners[s] = kept
		c.mmu.Unlock()
		lk.Unlock()
		c.gate.RUnlock()
	}
}

func hasMember(ms []*member, name string) bool {
	for _, m := range ms {
		if m.name == name {
			return true
		}
	}
	return false
}

// sameMembers compares a replica set against a target name set, order
// independent.
func sameMembers(ms []*member, names []string) bool {
	if len(ms) != len(names) {
		return false
	}
	for _, n := range names {
		if !hasMember(ms, n) {
			return false
		}
	}
	return true
}

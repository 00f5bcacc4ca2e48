package cluster

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"authmem"
	"authmem/client"
	"authmem/internal/tree"
	"authmem/internal/wire"
)

// Info reports how the cluster served a call. For spanning calls it is the
// worst stripe's outcome.
type Info struct {
	// Verdict says whether every replica agreed, and if not, what
	// evidence decided the disagreement.
	Verdict Verdict
	// Degraded is set when fewer than the full replica set participated.
	Degraded bool
	// Repaired is set when a losing replica was re-written from the
	// quorum winner during this call.
	Repaired bool
}

func (i *Info) merge(o Info) {
	if o.Verdict > i.Verdict {
		i.Verdict = o.Verdict
	}
	i.Degraded = i.Degraded || o.Degraded
	i.Repaired = i.Repaired || o.Repaired
}

// Read quorum-reads len(dst) bytes at the block-aligned addr: every stripe
// touched is fetched from all of its live replicas, compared, and resolved.
// A replica caught diverging is outvoted (see Verdict), repaired, and the
// call still succeeds; an unresolvable divergence fails with *QuorumError.
func (c *Cluster) Read(addr uint64, dst []byte) (Info, error) {
	return c.walk(addr, dst, false)
}

// Write quorum-writes len(src) bytes at the block-aligned addr to every
// replica of every stripe touched. Replicas that miss the write (dead,
// faulted) are marked stale and repaired — immediately if reachable,
// otherwise when they return.
func (c *Cluster) Write(addr uint64, src []byte) (Info, error) {
	return c.walk(addr, src, true)
}

// walk cuts [addr, addr+len(p)) at stripe boundaries and runs one round per
// piece under the gate (shared) and then that stripe's lock: shared for a
// read, exclusive for a write, so every replica applies a stripe's writes in
// one order. Pieces run in turn, so a spanning call holds at most one stripe
// lock at a time. A stripe left stale on a reachable replica is repaired
// once its lock is dropped.
func (c *Cluster) walk(addr uint64, p []byte, write bool) (Info, error) {
	if err := c.validSpan(addr, len(p)); err != nil {
		return Info{}, err
	}
	c.gate.RLock()
	defer c.gate.RUnlock()
	var agg Info
	for off := 0; off < len(p); {
		s := c.geo.StripeOf(addr)
		_, hi := c.geo.StripeSpan(s)
		n := int(min(uint64(len(p)-off), hi-addr))
		// Branches, not a sync.Locker: one dynamic Lock call keeps lock
		// methods the linker otherwise drops, and moves the runtime's and
		// the engine's code in every binary that links this package.
		lk := c.lockFor(s)
		if write {
			lk.Lock()
		} else {
			lk.RLock()
		}
		info, err := c.round(s, addr, p[off:off+n], write)
		repair := err == nil && c.wantRepair(s)
		if write {
			lk.Unlock()
		} else {
			lk.RUnlock()
		}
		if err != nil {
			return agg, err
		}
		if repair && c.repairStripe(s) {
			info.Repaired = true
		}
		agg.merge(info)
		addr += uint64(n)
		off += n
	}
	return agg, nil
}

// Flush brings every reachable node to a quiescent point and refreshes the
// tracked per-node roots. It fails only when no node at all could flush.
func (c *Cluster) Flush() error {
	c.gate.RLock()
	defer c.gate.RUnlock()
	ms := c.liveMembers()
	var wg sync.WaitGroup
	oks := make([]bool, len(ms))
	for i, m := range ms {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			d, err := m.cl.FlushPinned()
			if err != nil {
				c.markDead(m)
				return
			}
			m.noteRoot(d)
			oks[i] = true
		}(i, m)
	}
	wg.Wait()
	for _, ok := range oks {
		if ok {
			return nil
		}
	}
	return errors.New("cluster: flush reached no node")
}

// NodeRoot is one member's attested root.
type NodeRoot struct {
	Name  string             `json:"name"`
	Epoch uint64             `json:"epoch"`
	Root  authmem.RootDigest `json:"root"`
}

// Attestation is a cluster-wide quiescent attestation: every member's
// flushed root, and the combined digest over them in sorted-name order.
type Attestation struct {
	Combined authmem.RootDigest `json:"combined"`
	Nodes    []NodeRoot         `json:"nodes"`
}

// Attest blocks all data traffic, flushes every member, and combines the
// per-node roots (sorted by name) into one cluster root with the same
// domain-separated construction the sharded engine uses for shard subtrees
// (tree.CombineRoots). Every member must answer: an attestation that skips
// a node pins nothing. Only a node's current incarnation is pinned: each
// member first re-handshakes through the cluster's epoch rule, so one whose
// epoch moved is voided (its stripes queued for repair, as a read's epoch
// evidence does) and attested under its new epoch.
func (c *Cluster) Attest() (Attestation, error) {
	c.gate.Lock()
	defer c.gate.Unlock()
	c.mmu.RLock()
	names := append([]string(nil), c.names...)
	c.mmu.RUnlock()

	att := Attestation{Nodes: make([]NodeRoot, 0, len(names))}
	roots := make([][sha256.Size]byte, 0, len(names))
	for _, name := range names {
		c.mmu.RLock()
		m := c.members[name]
		c.mmu.RUnlock()
		// A member marked dead takes its probe now, if one is due.
		if !c.reviveIfDue(m) {
			return Attestation{}, fmt.Errorf("cluster: attest: node %q is unreachable", name)
		}
		if _, err := c.refreshEpoch(m); err != nil {
			return Attestation{}, fmt.Errorf("cluster: attest: node %q: %w", name, err)
		}
		d, err := m.cl.FlushPinned()
		if err != nil {
			c.markDead(m)
			return Attestation{}, fmt.Errorf("cluster: attest: node %q: %w", name, err)
		}
		m.noteRoot(d)
		m.mu.Lock()
		epoch := m.epoch
		m.mu.Unlock()
		att.Nodes = append(att.Nodes, NodeRoot{Name: name, Epoch: epoch, Root: d})
		roots = append(roots, d)
	}
	att.Combined = tree.CombineRoots(roots)
	return att, nil
}

// validSpan rejects malformed data spans.
func (c *Cluster) validSpan(addr uint64, n int) error {
	if n == 0 || n%wire.BlockBytes != 0 {
		return fmt.Errorf("cluster: span of %d bytes is not a positive multiple of %d", n, wire.BlockBytes)
	}
	if addr%wire.BlockBytes != 0 {
		return fmt.Errorf("cluster: address %#x not %d-byte aligned", addr, wire.BlockBytes)
	}
	if addr+uint64(n) > c.geo.Size {
		return fmt.Errorf("cluster: span [%#x, %#x) beyond region of %d bytes", addr, addr+uint64(n), c.geo.Size)
	}
	return nil
}

// replica is one owner's part in a round: its pinned round trip and answer.
type replica struct {
	m    *member
	data []byte  // the span carried: the caller's buffer or a read's pooled one
	buf  *[]byte // data's pooled backing; nil when data is the caller's buffer
	pin  authmem.RootDigest
	err  error
}

// inlineReplicas is the replica count whose per-operation tables fit fixed
// arrays; a larger R falls back to slices.
const inlineReplicas = 4

// voterBufs recycles the buffers a read's replicas after the first read into.
var voterBufs = sync.Pool{New: func() any { return new([]byte) }}

func getVoterBuf(n int) *[]byte {
	b := voterBufs.Get().(*[]byte)
	if cap(*b) < n {
		*b = make([]byte, n)
	}
	*b = (*b)[:n]
	return b
}

// round is the one pinned quorum round over stripe s's owners: a read into
// p or a write of p at lo. Caller holds the gate (shared) and the stripe
// lock, exclusively for a write. The round selects the owners that take
// part, fans a pinned round trip out to each, and applies the one failure
// rule (failed) to every replica that did not answer; then a read resolves
// the answers into p (resolveReads) and a write records the roots its
// replicas pinned. A replica that loses is marked stale for repair; round
// itself never takes the exclusive lock.
func (c *Cluster) round(s, lo uint64, p []byte, write bool) (Info, error) {
	op, call := "read", (*client.Client).ReadPinned
	quorum, degraded := &c.ctr.QuorumReads, &c.ctr.DegradedReads
	if write {
		op, call = "write", (*client.Client).WritePinned
		quorum, degraded = &c.ctr.QuorumWrites, &c.ctr.DegradedWrites
	}
	atomic.AddUint64(quorum, 1)
	owners := c.ownersOf(s)

	// What the replicas' goroutines share with this one is a single object.
	var fan struct {
		wg sync.WaitGroup
		rs [inlineReplicas]replica
	}
	rs := fan.rs[:0]
	if len(owners) > inlineReplicas {
		rs = make([]replica, 0, len(owners))
	}
	excluded := VerdictClean // strongest verdict among owners that did not answer
	for _, m := range owners {
		// Liveness first: a dead member may be due a probe, and the probe
		// is what discovers an epoch change and voids its state. A write
		// it misses leaves the stripe stale there.
		if !m.isAlive() && !c.reviveIfDue(m) {
			if write {
				m.markDirty(s)
			}
			excluded = max(excluded, VerdictOutvotedUnreachable)
			continue
		}
		// A known-stale copy (voided by a restart, a lost vote or a missed
		// write) must not vote until repaired. A write still refreshes
		// its span, but only a full-stripe repair clears the mark.
		if !write && m.isDirty(s) {
			excluded = max(excluded, VerdictOutvotedStale)
			continue
		}
		rs = append(rs, replica{m: m, data: p})
	}

	// R replicas cost R round trips and nothing else: the first runs on
	// this goroutine, straight from or into p; only the other R-1 get a
	// goroutine, and a read's a pooled buffer. A read's p therefore holds
	// an unvoted replica's bytes until the vote is resolved below: every
	// return path either copies the winner over it or clears it.
	for i := 1; i < len(rs); i++ {
		r := &rs[i]
		if !write {
			r.buf = getVoterBuf(len(p))
			r.data = *r.buf
		}
		fan.wg.Add(1)
		go func() {
			defer fan.wg.Done()
			_, r.pin, r.err = call(r.m.cl, lo, r.data)
		}()
	}
	if len(rs) > 0 {
		_, rs[0].pin, rs[0].err = call(rs[0].m.cl, lo, p)
	}
	fan.wg.Wait()
	defer func() {
		for _, r := range rs {
			if r.buf != nil {
				voterBufs.Put(r.buf)
			}
		}
	}()

	var okArr [inlineReplicas]replica
	oks := okArr[:0]
	for _, r := range rs {
		if r.err != nil {
			excluded = max(excluded, c.failed(r.m, s, r.err, write))
			continue
		}
		oks = append(oks, r)
	}
	verdict := VerdictUnresolved
	switch {
	case len(oks) == 0:
	case write:
		for _, r := range oks {
			r.m.noteRoot(r.pin)
		}
		verdict = VerdictClean
	default:
		var winner []byte
		winner, verdict = c.resolveReads(s, oks)
		copy(p, winner) // a no-op when the first voter won (its data is p) or nobody did
	}
	if verdict == VerdictUnresolved {
		err := c.quorumErr(op, lo, len(p), rs)
		if !write {
			clear(p) // never hand back bytes no vote stood behind
		}
		c.ctr.countVerdict(verdict)
		return Info{Verdict: verdict}, err
	}
	verdict = max(verdict, excluded)
	info := Info{Verdict: verdict, Degraded: len(oks) < len(owners)}
	if info.Degraded {
		atomic.AddUint64(degraded, 1)
	}
	c.ctr.countVerdict(verdict)
	return info, nil
}

// failed is the one failure rule for a replica's failed round trip on stripe
// s, used by every round and by copyVerified; it returns the verdict the
// replica earns. A status error is the node condemning its own copy
// (MAC_FAIL, QUARANTINED): the node is honest, the stripe is stale there.
// Any other error is the transport's: the node is dead, and a write it
// missed leaves the stripe stale there too.
func (c *Cluster) failed(m *member, s uint64, err error, write bool) Verdict {
	var se *client.StatusError
	if errors.As(err, &se) {
		m.markDirty(s)
		return VerdictOutvotedFault
	}
	c.markDead(m)
	if write {
		m.markDirty(s)
	}
	return VerdictOutvotedUnreachable
}

// resolveReads picks the correct answer among successful replica reads.
// One group of byte-identical answers wins; every replica outside it is
// marked dirty. The evidence ladder, in order:
//
//  1. Unanimity — everyone agrees, nothing to decide.
//  2. Majority — with R >= 3, a byte-identical strict majority wins.
//  3. Epoch — a re-handshake shows a replica's node restarted since the
//     cluster pinned it: its state is void, it is outvoted.
//  4. Root pin — a replica whose pinned root deviates from the last root
//     the cluster observed from that node (while the others' match) has
//     rolled back or been tampered: outvoted.
//  5. Nothing decides — VerdictUnresolved and no winner; the round fails
//     with *QuorumError. Detected, reported, never guessed.
func (c *Cluster) resolveReads(s uint64, oks []replica) ([]byte, Verdict) {
	if agreed, data := unanimous(oks); agreed {
		return data, VerdictClean
	}
	// Only a disagreement pays for digests: answers are grouped by SHA-256
	// so factions can be counted.
	groups := map[[sha256.Size]byte][]int{}
	for i, r := range oks {
		h := sha256.Sum256(r.data)
		groups[h] = append(groups[h], i)
	}

	condemn := func(idxs []int) {
		for _, i := range idxs {
			oks[i].m.markDirty(s)
		}
	}
	// Majority vote.
	for h, idxs := range groups {
		if len(idxs)*2 > len(oks) {
			for oh, oidxs := range groups {
				if oh != h {
					condemn(oidxs)
				}
			}
			return oks[idxs[0]].data, VerdictOutvotedMajority
		}
	}
	// Epoch evidence: drop replicas whose node restarted under us.
	var live []replica
	epochFired := false
	for _, r := range oks {
		changed, err := c.refreshEpoch(r.m)
		if err != nil || changed {
			// refreshEpoch voided the member (or marked it dead); its
			// stripe set including s is already queued for repair.
			if err == nil {
				epochFired = true
			}
			r.m.markDirty(s)
			continue
		}
		live = append(live, r)
	}
	if agreed, data := unanimous(live); agreed {
		v := VerdictOutvotedEpoch
		if !epochFired {
			v = VerdictOutvotedUnreachable
		}
		return data, v
	}
	// Root-pin evidence: a replica is supported when the root pinned to
	// its answer equals the last root the cluster saw this node commit.
	// Concurrent traffic can advance a node's root between pin and check,
	// so support can be ambiguous — then nothing decides and we fall
	// through. A single supported faction is decisive: the others present
	// roots the cluster never observed, i.e. rolled-back or fabricated
	// state.
	var supported, unsupported []replica
	for _, r := range live {
		r.m.mu.Lock()
		match := r.m.rootKnown && r.m.lastRoot == r.pin
		r.m.mu.Unlock()
		if match {
			supported = append(supported, r)
		} else {
			unsupported = append(unsupported, r)
		}
	}
	if agreed, data := unanimous(supported); agreed && len(supported) > 0 {
		for _, r := range unsupported {
			r.m.markDirty(s)
		}
		return data, VerdictOutvotedRoot
	}
	return nil, VerdictUnresolved
}

// unanimous reports whether all reads carry identical bytes.
func unanimous(rs []replica) (bool, []byte) {
	if len(rs) == 0 {
		return false, nil
	}
	for _, r := range rs[1:] {
		if !bytes.Equal(r.data, rs[0].data) {
			return false, nil
		}
	}
	return true, rs[0].data
}

// wantRepair reports whether any live owner of s is marked stale. Caller
// holds the stripe lock.
func (c *Cluster) wantRepair(s uint64) bool {
	for _, m := range c.ownersOf(s) {
		if m.isDirty(s) && m.isAlive() {
			return true
		}
	}
	return false
}

// repairStripe re-creates stripe s on every stale-but-reachable replica
// from the quorum of clean ones: quorum-read the full stripe, re-write it
// onto each stale replica, read it back, and only then mark the replica
// clean. Holds the stripe lock exclusively. Returns whether at least one
// replica was repaired; failures leave the replica dirty for a later
// attempt.
func (c *Cluster) repairStripe(s uint64) bool {
	lk := c.lockFor(s)
	lk.Lock()
	defer lk.Unlock()
	lo, hi := c.geo.StripeSpan(s)
	buf := make([]byte, hi-lo)
	if _, err := c.round(s, lo, buf, false); err != nil {
		return false // no trustworthy source right now
	}
	repaired := false
	for _, m := range c.ownersOf(s) {
		if !m.isDirty(s) || !m.isAlive() {
			continue
		}
		if c.copyVerified(m, s, lo, buf) {
			m.clearDirty(s)
			atomic.AddUint64(&c.ctr.Repairs, 1)
			atomic.AddUint64(&c.ctr.RepairedBytes, uint64(len(buf)))
			repaired = true
		}
	}
	return repaired
}

// copyVerified writes data to m at lo (in stripe s) and proves the copy
// landed by reading it back through m's own authentication path and
// comparing. A failed round trip goes through the one failure rule.
func (c *Cluster) copyVerified(m *member, s, lo uint64, data []byte) bool {
	cl := m.client()
	if cl == nil {
		return false
	}
	_, pin, err := cl.WritePinned(lo, data)
	if err != nil {
		c.failed(m, s, err, true)
		return false
	}
	m.noteRoot(pin)
	back := make([]byte, len(data))
	if _, _, err := cl.ReadPinned(lo, back); err != nil {
		c.failed(m, s, err, false)
		return false
	}
	return bytes.Equal(back, data)
}

// quorumErr builds the *QuorumError of a round that failed: every replica
// that took part, with its answer's digest (if it answered), pinned root and
// current epoch.
func (c *Cluster) quorumErr(op string, addr uint64, n int, rs []replica) error {
	states := make([]ReplicaState, 0, len(rs))
	for _, r := range rs {
		st := ReplicaState{Node: r.m.name, Err: r.err, Root: r.pin}
		if r.err == nil {
			st.PayloadSHA = sha256.Sum256(r.data)
		}
		r.m.mu.Lock()
		st.Epoch = r.m.epoch
		r.m.mu.Unlock()
		states = append(states, st)
	}
	return &QuorumError{Op: op, Addr: addr, Len: n, Replicas: states}
}

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
	if err := c.validSpan(addr, len(dst)); err != nil {
		return Info{}, err
	}
	c.gate.RLock()
	defer c.gate.RUnlock()
	var agg Info
	err := c.forEachStripe(addr, len(dst), func(s, lo uint64, off, n int) error {
		lk := c.lockFor(s)
		lk.RLock()
		info, err := c.readQuorum(s, lo, dst[off:off+n])
		repair := err == nil && c.wantRepair(s)
		lk.RUnlock()
		if err != nil {
			return err
		}
		if repair && c.repairStripe(s) {
			info.Repaired = true
		}
		agg.merge(info)
		return nil
	})
	return agg, err
}

// Write quorum-writes len(src) bytes at the block-aligned addr to every
// replica of every stripe touched. Replicas that miss the write (dead,
// faulted) are marked stale and repaired — immediately if reachable,
// otherwise when they return.
func (c *Cluster) Write(addr uint64, src []byte) (Info, error) {
	if err := c.validSpan(addr, len(src)); err != nil {
		return Info{}, err
	}
	c.gate.RLock()
	defer c.gate.RUnlock()
	var agg Info
	err := c.forEachStripe(addr, len(src), func(s, lo uint64, off, n int) error {
		lk := c.lockFor(s)
		lk.Lock()
		info, err := c.writeQuorum(s, lo, src[off:off+n])
		repair := err == nil && c.wantRepair(s)
		lk.Unlock()
		if err != nil {
			return err
		}
		if repair && c.repairStripe(s) {
			info.Repaired = true
		}
		agg.merge(info)
		return nil
	})
	return agg, err
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
// a node pins nothing.
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
		cl := m.client()
		if cl == nil {
			return Attestation{}, fmt.Errorf("cluster: attest: node %q has never been reached", name)
		}
		d, err := cl.FlushPinned()
		if err != nil {
			c.markDead(m)
			return Attestation{}, fmt.Errorf("cluster: attest: node %q: %w", name, err)
		}
		m.noteRoot(d)
		m.mu.Lock()
		epoch := m.epoch
		m.alive = true
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

// forEachStripe cuts [addr, addr+n) at stripe boundaries and calls f once
// per piece with the stripe index, the piece's address, and its offset and
// length in the caller's buffer. Pieces run sequentially, so a spanning
// call holds at most one stripe lock at a time.
func (c *Cluster) forEachStripe(addr uint64, n int, f func(s, lo uint64, off, n int) error) error {
	for off := 0; off < n; {
		s := c.geo.StripeOf(addr)
		_, hi := c.geo.StripeSpan(s)
		sub := int(min(uint64(n-off), hi-addr))
		if err := f(s, addr, off, sub); err != nil {
			return err
		}
		addr += uint64(sub)
		off += sub
	}
	return nil
}

// replicaRead is one replica's answer to a fanned-out pinned read.
type replicaRead struct {
	m    *member
	data []byte
	buf  *[]byte // data's pooled backing; nil for the first voter, which reads into dst
	pin  authmem.RootDigest
	err  error
}

// inlineReplicas is the replica count whose per-operation tables fit fixed
// arrays; a larger R falls back to slices.
const inlineReplicas = 4

// voterBufs recycles the buffers the voters after the first read into.
var voterBufs = sync.Pool{New: func() any { return new([]byte) }}

func getVoterBuf(n int) *[]byte {
	b := voterBufs.Get().(*[]byte)
	if cap(*b) < n {
		*b = make([]byte, n)
	}
	*b = (*b)[:n]
	return b
}

// readQuorum fans a pinned read over stripe s's replicas and resolves the
// answers into dst. Caller holds the stripe lock (shared or exclusive) and
// the gate (shared). Losing replicas are marked dirty for later repair;
// readQuorum itself never takes the exclusive lock.
func (c *Cluster) readQuorum(s, lo uint64, dst []byte) (Info, error) {
	atomic.AddUint64(&c.ctr.QuorumReads, 1)
	owners := c.ownersOf(s)

	var voterArr [inlineReplicas]*member
	voters := voterArr[:0]
	excluded := VerdictClean // strongest verdict among non-voting owners
	for _, m := range owners {
		// Liveness first: a dead member may be due for a probe, and the
		// probe is what discovers an epoch change and voids its state.
		if !m.isAlive() && !c.reviveIfDue(m) {
			excluded = max(excluded, VerdictOutvotedUnreachable)
			continue
		}
		if m.isDirty(s) {
			// Known-stale (voided by a restart, a lost vote, or a
			// missed write): must not count until repaired.
			excluded = max(excluded, VerdictOutvotedStale)
			continue
		}
		voters = append(voters, m)
	}

	// R voters cost R round trips and nothing else: the first voter's read
	// runs on this goroutine, straight into dst; only the other R-1 get a
	// goroutine and a buffer. dst therefore holds an unvoted replica's
	// bytes until the vote is resolved below — every return path either
	// copies the winner over it or clears it.
	//
	// What the voter goroutines share with this one is a single object, and
	// their buffers are pooled: they go back once the vote is resolved and
	// the winner copied out.
	var fan struct {
		wg    sync.WaitGroup
		reads [inlineReplicas]replicaRead
	}
	reads := fan.reads[:]
	if len(voters) > inlineReplicas {
		reads = make([]replicaRead, len(voters))
	}
	reads = reads[:len(voters)]
	for i := 1; i < len(voters); i++ {
		buf := getVoterBuf(len(dst))
		fan.wg.Add(1)
		go func(r *replicaRead, m *member) {
			defer fan.wg.Done()
			_, pin, err := m.cl.ReadPinned(lo, *buf)
			*r = replicaRead{m: m, data: *buf, buf: buf, pin: pin, err: err}
		}(&reads[i], voters[i])
	}
	if len(voters) > 0 {
		_, pin, err := voters[0].cl.ReadPinned(lo, dst)
		reads[0] = replicaRead{m: voters[0], data: dst, pin: pin, err: err}
	}
	fan.wg.Wait()
	defer func() {
		for _, r := range reads {
			if r.buf != nil {
				voterBufs.Put(r.buf)
			}
		}
	}()

	var okArr [inlineReplicas]replicaRead
	oks := okArr[:0]
	for _, r := range reads {
		if r.err == nil {
			oks = append(oks, r)
			continue
		}
		var se *client.StatusError
		if errors.As(r.err, &se) {
			// The node itself condemned its copy: corruption caught by
			// its MAC/tree. The replica is out and needs a re-write.
			r.m.markDirty(s)
			excluded = max(excluded, VerdictOutvotedFault)
		} else {
			c.markDead(r.m)
			excluded = max(excluded, VerdictOutvotedUnreachable)
		}
	}
	var (
		winner  []byte
		verdict Verdict
		qerr    error
	)
	if len(oks) == 0 {
		qerr = c.quorumErr("read", lo, len(dst), reads)
	} else {
		winner, verdict, qerr = c.resolveReads(s, lo, oks)
	}
	if qerr != nil {
		clear(dst) // never hand back bytes no vote stood behind
		c.ctr.countVerdict(VerdictUnresolved)
		return Info{Verdict: VerdictUnresolved}, qerr
	}
	verdict = max(verdict, excluded)
	copy(dst, winner) // a no-op when the first voter won: its data is dst

	info := Info{Verdict: verdict, Degraded: len(oks) < len(owners)}
	if info.Degraded {
		atomic.AddUint64(&c.ctr.DegradedReads, 1)
	}
	c.ctr.countVerdict(verdict)
	return info, nil
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
//  5. Nothing decides — *QuorumError. Detected, reported, never guessed.
func (c *Cluster) resolveReads(s, lo uint64, oks []replicaRead) ([]byte, Verdict, error) {
	if agreed, data := unanimous(oks); agreed {
		return data, VerdictClean, nil
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
			return oks[idxs[0]].data, VerdictOutvotedMajority, nil
		}
	}
	// Epoch evidence: drop replicas whose node restarted under us.
	var live []replicaRead
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
		return data, v, nil
	}
	// Root-pin evidence: a replica is supported when the root pinned to
	// its answer equals the last root the cluster saw this node commit.
	// Concurrent traffic can advance a node's root between pin and check,
	// so support can be ambiguous — then nothing decides and we fall
	// through. A single supported faction is decisive: the others present
	// roots the cluster never observed, i.e. rolled-back or fabricated
	// state.
	var supported, unsupported []replicaRead
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
		return data, VerdictOutvotedRoot, nil
	}
	return nil, VerdictUnresolved, c.quorumErrOK("read", lo, oks)
}

// unanimous reports whether all reads carry identical bytes.
func unanimous(rs []replicaRead) (bool, []byte) {
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

// writeQuorum fans a pinned write over stripe s's replicas. Caller holds
// the stripe lock exclusively (writes to one stripe are serialized so every
// replica applies them in the same order) and the gate (shared). A replica
// that misses the write is marked dirty: the stripe is stale there until
// repaired.
func (c *Cluster) writeQuorum(s, lo uint64, src []byte) (Info, error) {
	atomic.AddUint64(&c.ctr.QuorumWrites, 1)
	owners := c.ownersOf(s)

	type wres struct {
		m   *member
		pin authmem.RootDigest
		err error
	}
	// As in readQuorum, one object is all the goroutines share.
	var fan struct {
		wg  sync.WaitGroup
		res [inlineReplicas]wres
	}
	res := fan.res[:0]
	if len(owners) > inlineReplicas {
		res = make([]wres, 0, len(owners))
	}
	missed := VerdictClean
	for _, m := range owners {
		if !m.isAlive() && !c.reviveIfDue(m) {
			m.markDirty(s)
			missed = max(missed, VerdictOutvotedUnreachable)
			continue
		}
		res = append(res, wres{m: m})
	}
	// As in readQuorum: the first replica's write runs on this goroutine,
	// the others in parallel with it.
	for i := 1; i < len(res); i++ {
		fan.wg.Add(1)
		go func(r *wres) {
			defer fan.wg.Done()
			r.pin, r.err = writePinned(r.m, lo, src)
		}(&res[i])
	}
	if len(res) > 0 {
		res[0].pin, res[0].err = writePinned(res[0].m, lo, src)
	}
	fan.wg.Wait()

	acks := 0
	for _, r := range res {
		switch {
		case r.err == nil:
			r.m.noteRoot(r.pin)
			acks++
			// A write also refreshes a stale replica's copy of this
			// span, but only a full-stripe repair clears dirtiness.
		default:
			r.m.markDirty(s)
			var se *client.StatusError
			if errors.As(r.err, &se) {
				missed = max(missed, VerdictOutvotedFault)
			} else {
				c.markDead(r.m)
				missed = max(missed, VerdictOutvotedUnreachable)
			}
		}
	}
	if acks == 0 {
		c.ctr.countVerdict(VerdictUnresolved)
		states := make([]ReplicaState, 0, len(res))
		for _, r := range res {
			states = append(states, ReplicaState{Node: r.m.name, Err: r.err})
		}
		return Info{Verdict: VerdictUnresolved}, &QuorumError{Op: "write", Addr: lo, Len: len(src), Replicas: states}
	}
	info := Info{Verdict: missed, Degraded: acks < len(owners)}
	if info.Degraded {
		atomic.AddUint64(&c.ctr.DegradedWrites, 1)
	}
	c.ctr.countVerdict(missed)
	return info, nil
}

// writePinned writes one span to one member and returns the pinned root.
func writePinned(m *member, lo uint64, src []byte) (authmem.RootDigest, error) {
	_, pin, err := m.cl.WritePinned(lo, src)
	return pin, err
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
	return c.repairStripeLocked(s)
}

func (c *Cluster) repairStripeLocked(s uint64) bool {
	lo, hi := c.geo.StripeSpan(s)
	buf := make([]byte, hi-lo)
	if _, err := c.readQuorum(s, lo, buf); err != nil {
		return false // no trustworthy source right now
	}
	repaired := false
	for _, m := range c.ownersOf(s) {
		if !m.isDirty(s) || !m.isAlive() {
			continue
		}
		if c.copyVerified(m, lo, buf) {
			m.clearDirty(s)
			atomic.AddUint64(&c.ctr.Repairs, 1)
			atomic.AddUint64(&c.ctr.RepairedBytes, uint64(len(buf)))
			repaired = true
		}
	}
	return repaired
}

// copyVerified writes data to m at lo and proves the copy landed by
// reading it back through m's own authentication path and comparing.
func (c *Cluster) copyVerified(m *member, lo uint64, data []byte) bool {
	cl := m.client()
	if cl == nil {
		return false
	}
	_, pin, err := cl.WritePinned(lo, data)
	if err != nil {
		if !isStatusErr(err) {
			c.markDead(m)
		}
		return false
	}
	m.noteRoot(pin)
	back := make([]byte, len(data))
	if _, _, err := cl.ReadPinned(lo, back); err != nil || !bytes.Equal(back, data) {
		if err != nil && !isStatusErr(err) {
			c.markDead(m)
		}
		return false
	}
	return true
}

func isStatusErr(err error) bool {
	var se *client.StatusError
	return errors.As(err, &se)
}

// quorumErr builds the all-replicas-failed error.
func (c *Cluster) quorumErr(op string, addr uint64, n int, reads []replicaRead) error {
	states := make([]ReplicaState, 0, len(reads))
	for _, r := range reads {
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

// quorumErrOK builds the unresolved-divergence error from successful but
// conflicting reads.
func (c *Cluster) quorumErrOK(op string, addr uint64, oks []replicaRead) error {
	return c.quorumErr(op, addr, len(oks[0].data), oks)
}

package server_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"authmem"
	"authmem/internal/server"
	"authmem/internal/wire"
)

// queuedOnly hides a Memory's never-waiting surface from the server: what is
// left is Backend and ShardRouter, so every request takes the queue exactly
// as it did before there was an inline path.
type queuedOnly struct {
	server.Backend
	server.ShardRouter
}

// inlineTranscript runs the seeded request stream of TestInlineMatchesQueued
// against a fresh 4-shard region served through wrap, one request at a time
// over a raw connection, and returns everything a client could observe —
// status, flags, failing address and payload of every response — plus the
// server's ledger.
func inlineTranscript(t *testing.T, wrap func(*authmem.Memory) server.Backend) ([]string, wire.ServerCounters) {
	t.Helper()
	cfg := authmem.DefaultConfig(1 << 20)
	cfg.Key = testKey()
	cfg.OnChipTreeBytes = 64 // leave tree levels off chip to tamper with
	mem, err := authmem.NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, server.Config{Backend: wrap(mem), RequestTimeout: -1})
	rc := dialRaw(t, s)
	rng := rand.New(rand.NewSource(24))
	var log []string

	do := func(op wire.Op, flags uint8, addr uint64, count uint32, payload []byte) {
		id := rc.sendFlags(op, flags, addr, count, payload)
		h, body := rc.recv()
		if h.ID != id {
			t.Fatalf("response id %d, want %d", h.ID, id)
		}
		log = append(log, fmt.Sprintf("%v %#x+%d flags=%#x -> %v flags=%#x addr=%#x count=%d payload=%x",
			op, addr, count, flags, h.Status, h.Flags, h.Addr, h.Count, body))
	}
	read := func(addr uint64, count uint32) { do(wire.OpRead, 0, addr, count, nil) }
	write := func(addr uint64, count uint32) {
		p := make([]byte, int(count)*wire.BlockBytes)
		rng.Read(p)
		do(wire.OpWrite, 0, addr, count, p)
	}
	// traffic is n random ops over the 64 blocks at base; one in eight asks
	// for a root pin.
	traffic := func(base uint64, n int) {
		for i := 0; i < n; i++ {
			count := uint32(1 + rng.Intn(4))
			addr := base + uint64(rng.Intn(64-int(count)))*wire.BlockBytes
			var flags uint8
			if rng.Intn(8) == 0 {
				flags = wire.FlagRootPin
			}
			if rng.Intn(3) == 0 {
				p := make([]byte, int(count)*wire.BlockBytes)
				rng.Read(p)
				do(wire.OpWrite, flags, addr, count, p)
			} else {
				do(wire.OpRead, flags, addr, count, nil)
			}
		}
	}

	shard := mem.ShardSize()
	for sh := uint64(0); sh < 4; sh++ {
		for off := uint64(0); off < 64*wire.BlockBytes; off += 4 * wire.BlockBytes {
			write(sh*shard+off, 4)
		}
	}
	do(wire.OpFlush, 0, 0, 0, nil)

	faults := []struct {
		name string
		flip func(addr uint64) error
	}{
		{"data flip", func(a uint64) error { return mem.FlipDataBit(a, 7) }},
		{"MAC flip", func(a uint64) error { return mem.FlipECCBit(a, 3) }},
		{"data burst", func(a uint64) error { // beyond correction: MAC_FAIL, then quarantine
			for _, bit := range []int{11, 97, 203} {
				if err := mem.FlipDataBit(a, bit); err != nil {
					return err
				}
			}
			return nil
		}},
		{"counter tamper", func(a uint64) error { return mem.FlipCounterBit(a, 2) }},
	}
	for i, f := range faults {
		base := uint64(i) * shard // one fault kind per shard
		addr := base + uint64(8+i)*wire.BlockBytes
		if err := f.flip(addr); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		read(addr-wire.BlockBytes, 4) // a span over the fault
		read(addr, 1)
		read(addr, 1) // a quarantined block answers QUARANTINED now
		traffic(base, 40)
		write(addr, 1) // a fresh write releases quarantine
		read(addr, 1)
		traffic(base, 40)
	}

	// Hammer one block until its counter overflows the group.
	hot := 2*shard + 32*wire.BlockBytes
	base := mem.Stats().GroupReencrypts
	for i := 0; i < 600; i++ {
		write(hot, 1)
	}
	if mem.Stats().GroupReencrypts == base {
		t.Fatal("no write tripped a group re-encryption — test premise broken")
	}
	read(hot-wire.BlockBytes, 3)

	// Tree tamper, last: it poisons every cold access beneath the node.
	do(wire.OpFlush, wire.FlagRootPin, 0, 0, nil)
	if err := mem.FlipTreeNodeBit(3, 0, 0, 3); err != nil {
		t.Fatal(err)
	}
	mem.WithShard(3, func(view *authmem.Memory) { // evict, so reads must verify
		for b := uint64(0); b < 8; b++ {
			view.FlipDataBit(b*wire.BlockBytes, 1)
			view.FlipDataBit(b*wire.BlockBytes, 1)
		}
	})
	read(3*shard, 4)
	write(3*shard, 2)
	read(3*shard+4*wire.BlockBytes, 1)
	traffic(3*shard, 40)
	traffic(0, 40)
	return log, s.Snapshot().Server
}

// TestInlineMatchesQueued: the inline path skips nothing. One seeded request
// stream — with a data flip, a MAC flip, an uncorrectable burst (MAC_FAIL,
// quarantine, release by a fresh write), a counter tamper, a tree tamper and
// a write that trips a group re-encryption injected along the way — is
// served by a real Memory, where an idle connection's requests run on the
// reader, and by the same Memory with its Try surface hidden, where every
// request is queued. Every response and every ledger entry must agree.
func TestInlineMatchesQueued(t *testing.T) {
	inline, ic := inlineTranscript(t, func(m *authmem.Memory) server.Backend { return m })
	queued, qc := inlineTranscript(t, func(m *authmem.Memory) server.Backend { return queuedOnly{m, m} })

	if len(inline) != len(queued) {
		t.Fatalf("%d inline responses, %d queued", len(inline), len(queued))
	}
	statuses := map[string]bool{}
	for i := range inline {
		if inline[i] != queued[i] {
			t.Fatalf("response %d differs:\ninline %s\nqueued %s", i, inline[i], queued[i])
		}
		for _, st := range []wire.Status{wire.StatusMACFail, wire.StatusQuarantined, wire.StatusRecovered} {
			if strings.Contains(inline[i], "-> "+st.String()+" ") {
				statuses[st.String()] = true
			}
		}
	}
	if len(statuses) != 3 {
		t.Errorf("the stream did not cover the verdict taxonomy: saw only %v", statuses)
	}
	if ic.InlineServed == 0 || qc.InlineServed != 0 {
		t.Fatalf("inline_served: %d with the Try surface, %d without; want > 0 and 0", ic.InlineServed, qc.InlineServed)
	}
	// Single-shard reads and writes are the pinned workers' whole diet, so
	// what one run served inline the other dispatched to them.
	if ic.InlineServed+ic.AffinityDispatched != qc.AffinityDispatched {
		t.Errorf("inline %d + pinned %d requests with the Try surface, %d pinned without",
			ic.InlineServed, ic.AffinityDispatched, qc.AffinityDispatched)
	}
	ic.InlineServed, ic.AffinityDispatched, qc.AffinityDispatched = 0, 0, 0
	if ic != qc {
		t.Errorf("ledgers differ:\ninline %+v\nqueued %+v", ic, qc)
	}
}

// TestInlineNeverWaits: a request whose shard lock is held is queued, not
// run on the reader, so the reader keeps admitting — it still answers BUSY
// past the cap — and the queued write completes once the lock is released.
func TestInlineNeverWaits(t *testing.T) {
	mem := newShardedMem(t, 1<<20, 4, authmem.DeltaEncoding)
	s := newTestServer(t, server.Config{Backend: mem, MaxInflight: 1, RequestTimeout: -1})
	rc := dialRaw(t, s)
	block := pattern(0x6B, wire.BlockBytes)
	other := mem.ShardSize() // shard 1

	id := rc.send(wire.OpWrite, other, 1, block)
	if h, _ := rc.recv(); h.ID != id || h.Status != wire.StatusOK {
		t.Fatalf("warm-up write: %+v", h)
	}
	if got := s.Snapshot().Server.InlineServed; got != 1 {
		t.Fatalf("inline_served = %d after one idle write, want 1", got)
	}

	held, release := make(chan struct{}), make(chan struct{})
	go mem.WithShard(0, func(*authmem.Memory) {
		close(held)
		<-release
	})
	<-held

	blocked := rc.send(wire.OpWrite, 0, 1, block) // shard 0: its lock is held
	// The reader is free: with the window (1) full it rejects the next
	// request at once instead of sitting behind the lock.
	busy := rc.send(wire.OpRead, other, 1, nil)
	if h, _ := rc.recv(); h.ID != busy || h.Status != wire.StatusBusy {
		t.Fatalf("request past the cap while the write waits: %+v, want BUSY for %d", h, busy)
	}
	snap := s.Snapshot().Server
	if snap.InlineServed != 1 || snap.BusyRejected != 1 {
		t.Fatalf("while the write waits: inline_served=%d busy_rejected=%d, want 1/1", snap.InlineServed, snap.BusyRejected)
	}

	close(release)
	if h, _ := rc.recv(); h.ID != blocked || h.Status != wire.StatusOK {
		t.Fatalf("queued write after release: %+v", h)
	}
	rid := rc.send(wire.OpRead, 0, 1, nil)
	if h, payload := rc.recv(); h.ID != rid || h.Status != wire.StatusOK || !bytes.Equal(payload, block) {
		t.Fatalf("read back: %+v", h)
	}
	snap = s.Snapshot().Server
	if snap.InlineServed != 2 || snap.AffinityDispatched != 1 {
		t.Errorf("inline_served=%d affinity_dispatched=%d, want 2 (warm-up, read back) and 1 (the write that waited)",
			snap.InlineServed, snap.AffinityDispatched)
	}
}

package server_test

import (
	"testing"

	"authmem"
	"authmem/client"
	"authmem/internal/server"
	"authmem/internal/wire"
)

// TestRoundTripAllocs is the unpinned twin of the client package's
// TestPinnedRoundTripAllocs: a closed-loop loopback round trip — pooled call
// on the client, request served on the reader, pooled response buffer —
// allocates nothing on either side, on a one-shard and on a sharded backend.
func TestRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled buffers are dropped at random under -race")
	}
	for _, shards := range []int{1, 4} {
		mem := newShardedMem(t, 1<<20, shards, authmem.DeltaEncoding)
		s := newTestServer(t, server.Config{Backend: mem, RequestTimeout: -1})
		c := loopbackClient(t, s, client.Options{})
		data := pattern(0x5C, 4*wire.BlockBytes)
		dst := make([]byte, len(data))
		if _, err := c.Write(4096, data); err != nil {
			t.Fatal(err)
		}
		read := testing.AllocsPerRun(300, func() {
			if _, err := c.Read(4096, dst); err != nil {
				t.Fatal(err)
			}
		})
		write := testing.AllocsPerRun(300, func() {
			if _, err := c.Write(4096, data); err != nil {
				t.Fatal(err)
			}
		})
		if read > 0 || write > 0 {
			t.Errorf("%d shards: loopback round trip allocates %.1f (read) / %.1f (write), want 0 / 0", shards, read, write)
		}
	}
}

// TestPipelinedAllocs pins the queued path's budget: eight reads sent in one
// transport write, to eight spans over four shards, so at least the first
// seven take the queue — each is one value through the connection's FIFO
// and one through the pool's channel to a long-lived worker, its payload
// buffer is pooled, and nothing is left to allocate. The bound is for the
// whole process, this test's framing included, with room for a GC emptying
// the pools mid-run.
func TestPipelinedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled buffers are dropped at random under -race")
	}
	mem := newShardedMem(t, 1<<20, 4, authmem.DeltaEncoding)
	s := newTestServer(t, server.Config{Backend: mem, RequestTimeout: -1})
	rc := dialRaw(t, s)

	const depth = 8
	var burst []byte
	for i := uint64(0); i < depth; i++ {
		addr := (i%4)*mem.ShardSize() + (i/4)*8192
		if err := mem.WriteBlocks(addr, pattern(byte(i), 4*wire.BlockBytes)); err != nil {
			t.Fatal(err)
		}
		h := wire.Header{Version: wire.Version, Op: wire.OpRead, ID: i + 1, Addr: addr, Count: 4}
		burst = wire.AppendFrame(burst, h, nil)
	}
	before := s.Snapshot().Server
	const runs = 200
	perBurst := testing.AllocsPerRun(runs, func() {
		if _, err := rc.nc.Write(burst); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < depth; i++ {
			// Not rc.recv: arming a pipe's read deadline allocates a timer.
			if h, _, err := rc.fr.Next(); err != nil || h.Status != wire.StatusOK {
				t.Fatalf("pipelined read: %+v, %v", h, err)
			}
		}
	})
	after := s.Snapshot().Server
	if queued := queuedOps(after) - queuedOps(before); queued < (runs+1)*(depth-1) {
		t.Fatalf("only %d of %d pipelined requests took the queue", queued, (runs+1)*depth)
	}
	if perReq := perBurst / depth; perReq > 0.25 {
		t.Errorf("a queued request allocates %.2f, want at most 0.25", perReq)
	} else {
		t.Logf("a queued request allocates %.2f", perReq)
	}
}

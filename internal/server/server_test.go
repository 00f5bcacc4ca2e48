package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"authmem"
	"authmem/internal/server"
	"authmem/internal/wire"
)

func testKey() []byte { return bytes.Repeat([]byte{0x5A}, authmem.KeySize) }

// newMem builds the smallest backend: one shard, one engine behind one lock.
func newMem(t testing.TB, size uint64) *authmem.Memory {
	t.Helper()
	return newShardedMem(t, size, 1, authmem.DeltaEncoding)
}

func newTestServer(t testing.TB, cfg server.Config) *server.Server {
	t.Helper()
	if cfg.Backend == nil {
		cfg.Backend = newMem(t, 1<<20)
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// rawConn is a frame-level test client: it speaks the wire protocol directly
// so tests control exactly what bytes hit the server and in what order.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	fr *wire.Reader
	id uint64
}

func dialRaw(t *testing.T, s *server.Server) *rawConn {
	t.Helper()
	nc, err := s.DialLoopback()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{t: t, nc: nc, fr: wire.NewReader(nc)}
}

// send writes one request frame and returns its ID.
func (rc *rawConn) send(op wire.Op, addr uint64, count uint32, payload []byte) uint64 {
	rc.t.Helper()
	rc.id++
	h := wire.Header{Version: wire.Version, Op: op, ID: rc.id, Addr: addr, Count: count}
	frame := wire.AppendFrame(nil, h, payload)
	if _, err := rc.nc.Write(frame); err != nil {
		rc.t.Fatalf("send %v: %v", op, err)
	}
	return rc.id
}

// sendMany writes several request frames in a single transport write.
func (rc *rawConn) sendMany(reqs ...func() []byte) {
	rc.t.Helper()
	var buf []byte
	for _, f := range reqs {
		buf = append(buf, f()...)
	}
	if _, err := rc.nc.Write(buf); err != nil {
		rc.t.Fatalf("sendMany: %v", err)
	}
}

func (rc *rawConn) frame(op wire.Op, addr uint64, count uint32, payload []byte) func() []byte {
	rc.id++
	h := wire.Header{Version: wire.Version, Op: op, ID: rc.id, Addr: addr, Count: count}
	return func() []byte { return wire.AppendFrame(nil, h, payload) }
}

// recv reads one response frame.
func (rc *rawConn) recv() (wire.Header, []byte) {
	rc.t.Helper()
	rc.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	h, payload, err := rc.fr.Next()
	if err != nil {
		rc.t.Fatalf("recv: %v", err)
	}
	return h, payload
}

func pattern(b byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = b ^ byte(i)
	}
	return p
}

// gatedBackend wraps a backend and parks ReadBlocks/ReadRecover calls for
// gated addresses until the gate channel is closed, so tests can hold a
// worker mid-request deterministically.
type gatedBackend struct {
	server.Backend
	gate     chan struct{}
	gateAll  bool
	gateAddr uint64
	hits     chan uint64

	flushes atomic.Int64
}

func newGated(b server.Backend) *gatedBackend {
	return &gatedBackend{Backend: b, gate: make(chan struct{}), hits: make(chan uint64, 64)}
}

func (g *gatedBackend) wait(addr uint64) {
	if g.gateAll || addr == g.gateAddr {
		select {
		case g.hits <- addr:
		default:
		}
		<-g.gate
	}
}

func (g *gatedBackend) ReadBlocks(addr uint64, dst []byte) error {
	g.wait(addr)
	return g.Backend.ReadBlocks(addr, dst)
}

func (g *gatedBackend) ReadRecover(addr uint64, dst []byte) (authmem.RecoverInfo, error) {
	g.wait(addr)
	return g.Backend.ReadRecover(addr, dst)
}

func (g *gatedBackend) FlushAll() error {
	g.flushes.Add(1)
	return g.Backend.FlushAll()
}

func TestLoopbackRoundTrip(t *testing.T) {
	mem := newMem(t, 1<<20)
	s := newTestServer(t, server.Config{Backend: mem})
	rc := dialRaw(t, s)

	data := pattern(0xA1, 2*wire.BlockBytes)
	wid := rc.send(wire.OpWrite, 128, 2, data)
	if h, _ := rc.recv(); h.ID != wid || h.Status != wire.StatusOK {
		t.Fatalf("write response: id=%d status=%v", h.ID, h.Status)
	}

	rid := rc.send(wire.OpRead, 128, 2, nil)
	h, payload := rc.recv()
	if h.ID != rid || h.Status != wire.StatusOK {
		t.Fatalf("read response: id=%d status=%v", h.ID, h.Status)
	}
	if !bytes.Equal(payload, data) {
		t.Fatal("read returned wrong bytes")
	}

	fid := rc.send(wire.OpFlush, 0, 0, nil)
	if h, _ := rc.recv(); h.ID != fid || h.Status != wire.StatusOK {
		t.Fatalf("flush response: id=%d status=%v", h.ID, h.Status)
	}

	sid := rc.send(wire.OpStats, 0, 0, nil)
	h, payload = rc.recv()
	if h.ID != sid || h.Status != wire.StatusOK {
		t.Fatalf("stats response: id=%d status=%v", h.ID, h.Status)
	}
	var snap wire.StatsSnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		t.Fatalf("stats payload: %v", err)
	}
	if snap.ProtoVersion != wire.Version || snap.Server.WriteOps != 1 || snap.Server.ReadOps != 1 {
		t.Fatalf("snapshot: %+v", snap.Server)
	}
	if snap.Engine.Writes == 0 {
		t.Fatal("engine stats missing from snapshot")
	}

	did := rc.send(wire.OpRootDigest, 0, 0, nil)
	h, payload = rc.recv()
	if h.ID != did || h.Status != wire.StatusOK {
		t.Fatalf("root response: id=%d status=%v", h.ID, h.Status)
	}
	var want authmem.RootDigest
	if len(payload) != len(want) {
		t.Fatalf("root digest is %d bytes, want %d", len(payload), len(want))
	}
	want = mem.RootDigest()
	if !bytes.Equal(payload, want[:]) {
		t.Fatal("root digest over the wire disagrees with the backend")
	}
}

// TestPipelinedOutOfOrderCompletion holds one read in the backend while two
// later pipelined requests complete: the later responses must come back
// first, proving responses are not serialized in request order.
func TestPipelinedOutOfOrderCompletion(t *testing.T) {
	g := newGated(newMem(t, 1<<20))
	g.gateAddr = 0
	s := newTestServer(t, server.Config{Backend: g, Workers: 4, RequestTimeout: -1})
	rc := dialRaw(t, s)

	slow := rc.send(wire.OpRead, 0, 1, nil)
	<-g.hits // the gated read's worker is parked inside the backend

	w := rc.send(wire.OpWrite, 4096, 1, pattern(0x33, wire.BlockBytes))
	r := rc.send(wire.OpRead, 8192, 1, nil)

	got := []uint64{}
	for i := 0; i < 2; i++ {
		h, _ := rc.recv()
		if h.Status != wire.StatusOK {
			t.Fatalf("response %d: status %v", h.ID, h.Status)
		}
		got = append(got, h.ID)
	}
	for _, id := range got {
		if id == slow {
			t.Fatal("gated request completed before it was released")
		}
		if id != w && id != r {
			t.Fatalf("unexpected response id %d", id)
		}
	}
	close(g.gate)
	if h, _ := rc.recv(); h.ID != slow || h.Status != wire.StatusOK {
		t.Fatalf("gated read: id=%d status=%v", h.ID, h.Status)
	}
}

// TestAdjacentWriteCoalescing parks the single worker, queues three adjacent
// writes, and checks the dispatcher merged the trailing pair into one batch.
func TestAdjacentWriteCoalescing(t *testing.T) {
	g := newGated(newMem(t, 1<<20))
	g.gateAddr = 512
	s := newTestServer(t, server.Config{Backend: g, Workers: 1, RequestTimeout: -1})
	rc := dialRaw(t, s)

	slow := rc.send(wire.OpRead, 512, 1, nil)
	<-g.hits // the only worker is parked; the dispatcher is free

	// First write: dispatcher dequeues it and blocks acquiring the worker.
	w0 := rc.send(wire.OpWrite, 0, 1, pattern(0x10, wire.BlockBytes))
	time.Sleep(20 * time.Millisecond)
	// Next two adjacent writes queue behind it and coalesce when the
	// dispatcher comes back around.
	rc.sendMany(
		rc.frame(wire.OpWrite, 64, 1, pattern(0x20, wire.BlockBytes)),
		rc.frame(wire.OpWrite, 128, 1, pattern(0x30, wire.BlockBytes)),
	)
	time.Sleep(20 * time.Millisecond)
	close(g.gate)

	okIDs := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		h, _ := rc.recv()
		if h.Status != wire.StatusOK {
			t.Fatalf("response %d: status %v", h.ID, h.Status)
		}
		okIDs[h.ID] = true
	}
	if !okIDs[slow] || !okIDs[w0] {
		t.Fatalf("missing responses: got %v", okIDs)
	}

	snap := s.Snapshot()
	if snap.Server.CoalescedBatches != 1 || snap.Server.CoalescedRequests != 1 {
		t.Fatalf("coalescing counters: batches=%d requests=%d, want 1/1",
			snap.Server.CoalescedBatches, snap.Server.CoalescedRequests)
	}

	// The coalesced writes must have landed correctly.
	rid := rc.send(wire.OpRead, 0, 3, nil)
	h, payload := rc.recv()
	if h.ID != rid || h.Status != wire.StatusOK {
		t.Fatalf("verify read: id=%d status=%v", h.ID, h.Status)
	}
	want := append(append(pattern(0x10, wire.BlockBytes), pattern(0x20, wire.BlockBytes)...), pattern(0x30, wire.BlockBytes)...)
	if !bytes.Equal(payload, want) {
		t.Fatal("coalesced writes landed wrong bytes")
	}
}

// TestBusyBackpressure fills the in-flight window with parked reads and
// checks that excess pipelined requests are rejected with StatusBusy without
// being executed.
func TestBusyBackpressure(t *testing.T) {
	g := newGated(newMem(t, 1<<20))
	g.gateAll = true
	s := newTestServer(t, server.Config{Backend: g, MaxInflight: 2, Workers: 4, RequestTimeout: -1})
	rc := dialRaw(t, s)

	// Non-adjacent addresses so nothing coalesces.
	admitted := []uint64{
		rc.send(wire.OpRead, 0, 1, nil),
		rc.send(wire.OpRead, 256, 1, nil),
	}
	rejected := []uint64{
		rc.send(wire.OpRead, 512, 1, nil),
		rc.send(wire.OpRead, 1024, 1, nil),
		rc.send(wire.OpRead, 2048, 1, nil),
	}

	for i := 0; i < len(rejected); i++ {
		h, _ := rc.recv()
		if h.Status != wire.StatusBusy {
			t.Fatalf("overflow request %d: status %v, want BUSY", h.ID, h.Status)
		}
		if h.ID != rejected[i] {
			t.Fatalf("busy rejection for id %d, want %d", h.ID, rejected[i])
		}
	}
	close(g.gate)
	seen := map[uint64]bool{}
	for i := 0; i < len(admitted); i++ {
		h, _ := rc.recv()
		if h.Status != wire.StatusOK {
			t.Fatalf("admitted request %d: status %v", h.ID, h.Status)
		}
		seen[h.ID] = true
	}
	for _, id := range admitted {
		if !seen[id] {
			t.Fatalf("admitted request %d never answered", id)
		}
	}
	if got := s.Snapshot().Server.BusyRejected; got != uint64(len(rejected)) {
		t.Fatalf("BusyRejected = %d, want %d", got, len(rejected))
	}
}

// TestRequestDeadline parks the single worker long enough that a queued
// request exceeds its queue deadline and is rejected, not executed.
func TestRequestDeadline(t *testing.T) {
	g := newGated(newMem(t, 1<<20))
	g.gateAll = true
	s := newTestServer(t, server.Config{Backend: g, Workers: 1, RequestTimeout: 50 * time.Millisecond})
	rc := dialRaw(t, s)

	first := rc.send(wire.OpRead, 0, 1, nil)
	<-g.hits
	second := rc.send(wire.OpRead, 256, 1, nil) // dequeued, waiting for the worker
	time.Sleep(20 * time.Millisecond)
	stale := rc.send(wire.OpRead, 1024, 1, nil) // still queued when the deadline hits
	time.Sleep(150 * time.Millisecond)
	close(g.gate)

	statuses := map[uint64]wire.Status{}
	for i := 0; i < 3; i++ {
		h, _ := rc.recv()
		statuses[h.ID] = h.Status
	}
	if statuses[first] != wire.StatusOK || statuses[second] != wire.StatusOK {
		t.Fatalf("in-flight requests: %v", statuses)
	}
	if statuses[stale] != wire.StatusDeadline {
		t.Fatalf("stale request: status %v, want DEADLINE", statuses[stale])
	}
	if got := s.Snapshot().Server.DeadlineRejected; got != 1 {
		t.Fatalf("DeadlineRejected = %d, want 1", got)
	}
}

// TestGracefulShutdownDrains starts Shutdown with a request parked in the
// backend: the in-flight request must still be answered, new requests must
// be rejected with SHUTTING_DOWN, and the backend must reach its FlushAll
// quiescent point before Shutdown returns.
func TestGracefulShutdownDrains(t *testing.T) {
	g := newGated(newMem(t, 1<<20))
	g.gateAddr = 0
	s := newTestServer(t, server.Config{Backend: g, RequestTimeout: -1, DrainGrace: 300 * time.Millisecond})
	rc := dialRaw(t, s)

	inflight := rc.send(wire.OpRead, 0, 1, nil)
	<-g.hits

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	// Wait until the drain flag reaches the connection.
	deadline := time.Now().Add(2 * time.Second)
	var lateStatus wire.Status
	for {
		late := rc.send(wire.OpRead, 4096, 1, nil)
		h, _ := rc.recv()
		if h.ID != late {
			// The gated response can interleave only after release; before
			// that the only other traffic is our own rejections.
			t.Fatalf("unexpected response id %d", h.ID)
		}
		lateStatus = h.Status
		if lateStatus == wire.StatusShuttingDown || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if lateStatus != wire.StatusShuttingDown {
		t.Fatalf("request during drain: status %v, want SHUTTING_DOWN", lateStatus)
	}

	close(g.gate)
	h, _ := rc.recv()
	if h.ID != inflight || h.Status != wire.StatusOK {
		t.Fatalf("in-flight during drain: id=%d status=%v", h.ID, h.Status)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if g.flushes.Load() == 0 {
		t.Fatal("Shutdown returned without reaching the FlushAll quiescent point")
	}
	if _, err := s.DialLoopback(); !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("DialLoopback after shutdown: %v, want ErrServerClosed", err)
	}
	if err := s.Shutdown(context.Background()); !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("second Shutdown: %v, want ErrServerClosed", err)
	}
}

func TestBadRequestsRejected(t *testing.T) {
	s := newTestServer(t, server.Config{Backend: newMem(t, 1<<20)})
	rc := dialRaw(t, s)

	cases := []struct {
		name  string
		op    wire.Op
		addr  uint64
		count uint32
		data  []byte
	}{
		{"unaligned addr", wire.OpRead, 3, 1, nil},
		{"zero-count read", wire.OpRead, 0, 0, nil},
		{"span past end", wire.OpRead, 1<<20 - 64, 2, nil},
		{"giant span", wire.OpRead, 0, wire.MaxSpanBlocks + 1, nil},
		{"write payload mismatch", wire.OpWrite, 0, 2, make([]byte, wire.BlockBytes)},
		{"unknown op", wire.Op(42), 0, 0, nil},
		{"flush with payload", wire.OpFlush, 0, 0, []byte{1}},
	}
	for _, tc := range cases {
		id := rc.send(tc.op, tc.addr, tc.count, tc.data)
		h, _ := rc.recv()
		if h.ID != id || h.Status != wire.StatusBadRequest {
			t.Fatalf("%s: id=%d status=%v, want BAD_REQUEST", tc.name, h.ID, h.Status)
		}
	}
	if got := s.Snapshot().Server.BadRequests; got != uint64(len(cases)) {
		t.Fatalf("BadRequests = %d, want %d", got, len(cases))
	}
}

// TestMalformedFrameClosesConn sends a bad-version frame and expects the
// server to hang up rather than guess.
func TestMalformedFrameClosesConn(t *testing.T) {
	s := newTestServer(t, server.Config{Backend: newMem(t, 1<<20)})
	rc := dialRaw(t, s)

	h := wire.Header{Version: wire.Version + 1, Op: wire.OpFlush, ID: 1}
	frame := wire.AppendFrame(nil, h, nil)
	if _, err := rc.nc.Write(frame); err != nil {
		t.Fatalf("write: %v", err)
	}
	rc.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := rc.nc.Read(buf); err == nil {
		t.Fatal("server answered a bad-version frame instead of closing")
	}
	if got := s.Snapshot().Server.MalformedFrames; got != 1 {
		t.Fatalf("MalformedFrames = %d, want 1", got)
	}
}

// TestServeTCPConcurrent drives a real TCP listener with pipelined raw
// clients hammering disjoint regions concurrently, then shuts down cleanly.
func TestServeTCPConcurrent(t *testing.T) {
	mem, err := authmem.NewSharded(func() authmem.Config {
		cfg := authmem.DefaultConfig(1 << 22)
		cfg.Key = testKey()
		return cfg
	}(), 4)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, server.Config{Backend: mem, Workers: 8})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()

	const (
		clients  = 4
		opsEach  = 64
		spanBlks = 4
	)
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				errCh <- err
				return
			}
			defer nc.Close()
			fr := wire.NewReader(nc)
			base := uint64(ci) << 20
			// Pipeline all writes, then collect all responses.
			var buf []byte
			for i := 0; i < opsEach; i++ {
				h := wire.Header{Version: wire.Version, Op: wire.OpWrite, ID: uint64(i + 1),
					Addr: base + uint64(i)*spanBlks*wire.BlockBytes, Count: spanBlks}
				buf = wire.AppendFrame(buf, h, pattern(byte(ci*31+i), spanBlks*wire.BlockBytes))
			}
			if _, err := nc.Write(buf); err != nil {
				errCh <- err
				return
			}
			for i := 0; i < opsEach; i++ {
				h, _, err := fr.Next()
				if err != nil || h.Status != wire.StatusOK {
					errCh <- fmt.Errorf("client %d write resp: %v status=%v", ci, err, h.Status)
					return
				}
			}
			// Pipeline all reads and verify against what we wrote,
			// matching responses by ID (they may complete out of order).
			buf = buf[:0]
			for i := 0; i < opsEach; i++ {
				h := wire.Header{Version: wire.Version, Op: wire.OpRead, ID: uint64(1000 + i),
					Addr: base + uint64(i)*spanBlks*wire.BlockBytes, Count: spanBlks}
				buf = wire.AppendFrame(buf, h, nil)
			}
			if _, err := nc.Write(buf); err != nil {
				errCh <- err
				return
			}
			for i := 0; i < opsEach; i++ {
				h, payload, err := fr.Next()
				if err != nil || h.Status != wire.StatusOK {
					errCh <- fmt.Errorf("client %d read resp: %v status=%v", ci, err, h.Status)
					return
				}
				want := pattern(byte(ci*31+int(h.ID-1000)), spanBlks*wire.BlockBytes)
				if !bytes.Equal(payload, want) {
					errCh <- fmt.Errorf("client %d: wrong bytes for id %d", ci, h.ID)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestMetricsLoop checks the periodic snapshot callback fires.
func TestMetricsLoop(t *testing.T) {
	got := make(chan wire.StatsSnapshot, 1)
	s := newTestServer(t, server.Config{
		Backend:         newMem(t, 1<<20),
		MetricsInterval: 10 * time.Millisecond,
		OnMetrics: func(snap wire.StatsSnapshot) {
			select {
			case got <- snap:
			default:
			}
		},
	})
	rc := dialRaw(t, s)
	rc.send(wire.OpWrite, 0, 1, pattern(1, wire.BlockBytes))
	rc.recv()
	select {
	case snap := <-got:
		if snap.ProtoVersion != wire.Version {
			t.Fatalf("snapshot version %d", snap.ProtoVersion)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("metrics callback never fired")
	}
}

// TestShardAffinityRouting checks where single-shard requests run: on the
// reader when the connection is idle, on the shard's pinned worker when the
// connection is pipelining; cross-shard spans and non-data ops take the
// shared pool, and a 1-shard backend never counts affinity at all.
func TestShardAffinityRouting(t *testing.T) {
	mem := newShardedMem(t, 1<<20, 4, authmem.DeltaEncoding)
	s := newTestServer(t, server.Config{Backend: mem})
	rc := dialRaw(t, s)

	shardSize := mem.ShardSize()
	payload := pattern(0x42, 2*wire.BlockBytes)

	// Closed loop: single-shard writes and reads, one per shard. Each finds
	// the connection idle, so it is served inline unless a shard lock happens
	// to be held (nothing holds one here, but the counters are what is
	// promised: every request is one or the other).
	const perShard = 8
	for sh := 0; sh < 4; sh++ {
		base := uint64(sh) * shardSize
		for i := 0; i < perShard; i++ {
			addr := base + uint64(i)*2*wire.BlockBytes
			wid := rc.send(wire.OpWrite, addr, 2, payload)
			if h, _ := rc.recv(); h.ID != wid || h.Status != wire.StatusOK {
				t.Fatalf("write shard %d: %+v", sh, h)
			}
			rid := rc.send(wire.OpRead, addr, 2, nil)
			h, data := rc.recv()
			if h.ID != rid || h.Status != wire.StatusOK {
				t.Fatalf("read shard %d: %+v", sh, h)
			}
			if !bytes.Equal(data, payload) {
				t.Fatalf("read shard %d returned wrong data", sh)
			}
		}
	}
	closed := s.Snapshot().Server
	if want := uint64(4 * perShard * 2); closed.InlineServed+closed.AffinityDispatched != want {
		t.Errorf("InlineServed %d + AffinityDispatched %d after single-shard traffic, want %d (bypassed=%d)",
			closed.InlineServed, closed.AffinityDispatched, want, closed.AffinityBypassed)
	}

	// Pipelined: a write and a read of one shard arrive in one transport
	// write. The write finds the read already received, so the connection
	// is not idle and it goes to the shard's pinned worker; the read follows
	// it there unless the write has already finished.
	for sh := 0; sh < 4; sh++ {
		addr := uint64(sh)*shardSize + 4096
		rc.sendMany(rc.frame(wire.OpWrite, addr, 2, payload), rc.frame(wire.OpRead, addr, 2, nil))
		for k := 0; k < 2; k++ {
			if h, _ := rc.recv(); h.Status != wire.StatusOK {
				t.Fatalf("pipelined pair on shard %d: %+v", sh, h)
			}
		}
	}
	afterSingle := s.Snapshot().Server
	if got := afterSingle.AffinityDispatched - closed.AffinityDispatched; got < 4 || got > 8 {
		t.Errorf("4 pipelined pairs used a pinned worker %d times, want 4 to 8 (inline %d -> %d)",
			got, closed.InlineServed, afterSingle.InlineServed)
	}

	// A span straddling the shard 0/1 boundary must bypass the pinned
	// workers (it needs the fan-out) and still serve correct data.
	straddle := shardSize - wire.BlockBytes
	wid := rc.send(wire.OpWrite, straddle, 2, payload)
	if h, _ := rc.recv(); h.ID != wid || h.Status != wire.StatusOK {
		t.Fatalf("straddling write: %+v", h)
	}
	rid := rc.send(wire.OpRead, straddle, 2, nil)
	h, data := rc.recv()
	if h.ID != rid || h.Status != wire.StatusOK || !bytes.Equal(data, payload) {
		t.Fatalf("straddling read: %+v", h)
	}
	afterCross := s.Snapshot().Server
	if afterCross.AffinityDispatched != afterSingle.AffinityDispatched || afterCross.InlineServed != afterSingle.InlineServed {
		t.Errorf("cross-shard span was affinity-dispatched (%d -> %d) or served inline (%d -> %d)",
			afterSingle.AffinityDispatched, afterCross.AffinityDispatched, afterSingle.InlineServed, afterCross.InlineServed)
	}

	// Flush is a non-data op: shared pool.
	fid := rc.send(wire.OpFlush, 0, 0, nil)
	if h, _ := rc.recv(); h.ID != fid || h.Status != wire.StatusOK {
		t.Fatalf("flush: %+v", h)
	}
	if got := s.Snapshot().Server.AffinityDispatched; got != afterCross.AffinityDispatched {
		t.Errorf("flush was affinity-dispatched (%d -> %d)", afterCross.AffinityDispatched, got)
	}

	// Clean shutdown must retire the pinned workers without losing responses.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestShardAffinityUnsharded pins the counters to zero on a 1-shard backend:
// with no second shard there is nothing to be affine to.
func TestShardAffinityUnsharded(t *testing.T) {
	s := newTestServer(t, server.Config{})
	rc := dialRaw(t, s)
	payload := pattern(0x21, wire.BlockBytes)
	wid := rc.send(wire.OpWrite, 0, 1, payload)
	if h, _ := rc.recv(); h.ID != wid || h.Status != wire.StatusOK {
		t.Fatalf("write: %+v", h)
	}
	rid := rc.send(wire.OpRead, 0, 1, nil)
	if h, _ := rc.recv(); h.ID != rid || h.Status != wire.StatusOK {
		t.Fatalf("read: %+v", h)
	}
	ctr := s.Snapshot().Server
	if ctr.AffinityDispatched != 0 || ctr.AffinityBypassed != 0 {
		t.Errorf("unsharded backend counted affinity: %+v", ctr)
	}
}

// TestShardAffinityConcurrent hammers a sharded backend from several
// connections at once so inline serving, pinned workers, pool fallback, and
// shutdown drain all interleave. Each connection alternates a closed-loop
// pair (two transport writes: each request finds the connection idle) with a
// pipelined pair (one transport write: the first request must queue). Run
// under -race.
func TestShardAffinityConcurrent(t *testing.T) {
	mem := newShardedMem(t, 1<<20, 4, authmem.DeltaEncoding)
	s := newTestServer(t, server.Config{Backend: mem, Workers: 4})
	shardSize := mem.ShardSize()

	const conns = 4
	var wg sync.WaitGroup
	var closedPairs, pipelinedPairs atomic.Uint64 // single-shard pairs sent each way
	errs := make(chan error, conns)
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			nc, err := s.DialLoopback()
			if err != nil {
				errs <- err
				return
			}
			defer nc.Close()
			fr := wire.NewReader(nc)
			payload := pattern(byte(g), wire.BlockBytes)
			for i := 0; i < 100; i++ {
				// Rotate shards; every 8th op straddles a boundary.
				addr := uint64((g+i)%4)*shardSize + uint64(i%16)*wire.BlockBytes
				count := uint32(1)
				if i%8 == 7 {
					addr = shardSize*uint64(1+(g+i)%3) - wire.BlockBytes
					count = 2
				}
				p := payload
				if count == 2 {
					p = pattern(byte(g), 2*wire.BlockBytes)
				}
				h := wire.Header{Version: wire.Version, Op: wire.OpWrite, ID: uint64(i)*2 + 1, Addr: addr, Count: count}
				frames := wire.AppendFrame(nil, h, p)
				if i%2 == 0 { // closed loop; odd ops send both frames at once
					if _, err := nc.Write(frames); err != nil {
						errs <- err
						return
					}
					frames = nil
				}
				switch {
				case count == 2: // straddles: never inline, never pinned
				case frames == nil:
					closedPairs.Add(1)
				default:
					pipelinedPairs.Add(1)
				}
				h = wire.Header{Version: wire.Version, Op: wire.OpRead, ID: uint64(i)*2 + 2, Addr: addr, Count: count}
				if _, err := nc.Write(wire.AppendFrame(frames, h, nil)); err != nil {
					errs <- err
					return
				}
				nc.SetReadDeadline(time.Now().Add(5 * time.Second))
				for k := 0; k < 2; k++ {
					rh, _, err := fr.Next()
					if err != nil {
						errs <- fmt.Errorf("conn %d: recv: %v", g, err)
						return
					}
					if rh.Status != wire.StatusOK {
						errs <- fmt.Errorf("conn %d: status %v", g, rh.Status)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ctr := s.Snapshot().Server
	// Every single-shard request runs inline, pinned, or (its shard's queue
	// full) in the pool; the first request of a pipelined pair finds the
	// second already received and must take the queue.
	queued := ctr.AffinityDispatched + ctr.AffinityBypassed
	if want := 2 * (closedPairs.Load() + pipelinedPairs.Load()); ctr.InlineServed+queued != want {
		t.Errorf("inline %d + pinned %d + bypassed %d, want %d single-shard requests",
			ctr.InlineServed, ctr.AffinityDispatched, ctr.AffinityBypassed, want)
	}
	if queued < pipelinedPairs.Load() {
		t.Errorf("pinned %d + bypassed %d, want at least the %d pipelined pairs' first requests",
			ctr.AffinityDispatched, ctr.AffinityBypassed, pipelinedPairs.Load())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

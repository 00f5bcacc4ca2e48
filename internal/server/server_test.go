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

// queuedOps is the number of reads and writes that took the queue: every data
// request is counted in ReadOps or WriteOps, and those that ran on the reader
// also in InlineServed.
func queuedOps(c wire.ServerCounters) uint64 { return c.ReadOps + c.WriteOps - c.InlineServed }

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
	s := newTestServer(t, server.Config{Backend: g, RequestTimeout: -1})
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

// TestPipelinedAdjacentWrites sends three writes to adjacent blocks in one
// transport write: each is its own request on the queue, and all three land
// their own bytes.
func TestPipelinedAdjacentWrites(t *testing.T) {
	s := newTestServer(t, server.Config{Backend: newMem(t, 1<<20), RequestTimeout: -1})
	rc := dialRaw(t, s)

	rc.sendMany(
		rc.frame(wire.OpWrite, 0, 1, pattern(0x10, wire.BlockBytes)),
		rc.frame(wire.OpWrite, 64, 1, pattern(0x20, wire.BlockBytes)),
		rc.frame(wire.OpWrite, 128, 1, pattern(0x30, wire.BlockBytes)),
	)
	for i := 0; i < 3; i++ {
		if h, _ := rc.recv(); h.Status != wire.StatusOK {
			t.Fatalf("response %d: status %v", h.ID, h.Status)
		}
	}
	if q := queuedOps(s.Snapshot().Server); q < 2 {
		t.Errorf("%d of the pipelined writes took the queue, want at least the first two", q)
	}

	rid := rc.send(wire.OpRead, 0, 3, nil)
	h, payload := rc.recv()
	if h.ID != rid || h.Status != wire.StatusOK {
		t.Fatalf("verify read: id=%d status=%v", h.ID, h.Status)
	}
	want := append(append(pattern(0x10, wire.BlockBytes), pattern(0x20, wire.BlockBytes)...), pattern(0x30, wire.BlockBytes)...)
	if !bytes.Equal(payload, want) {
		t.Fatal("pipelined adjacent writes landed wrong bytes")
	}
}

// TestBusyBackpressure fills the in-flight window with parked reads and
// checks that excess pipelined requests are rejected with StatusBusy without
// being executed.
func TestBusyBackpressure(t *testing.T) {
	g := newGated(newMem(t, 1<<20))
	g.gateAll = true
	s := newTestServer(t, server.Config{Backend: g, MaxInflight: 2, RequestTimeout: -1})
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

// TestRequestDeadline parks every pool worker long enough that a queued
// request exceeds its queue deadline and is rejected, not executed. The
// deadline is checked when the dispatcher dequeues a request: the one it
// holds while waiting for a worker still runs.
func TestRequestDeadline(t *testing.T) {
	pool := server.PoolSize()
	g := newGated(newMem(t, 1<<20))
	g.gateAll = true
	g.hits = make(chan uint64, pool)
	s := newTestServer(t, server.Config{Backend: g, MaxInflight: pool + 2, RequestTimeout: 50 * time.Millisecond})
	rc := dialRaw(t, s)

	var parked []uint64
	for i := 0; i < pool; i++ {
		parked = append(parked, rc.send(wire.OpRead, uint64(i)*wire.BlockBytes, 1, nil))
		<-g.hits
	}
	second := rc.send(wire.OpRead, 512<<10, 1, nil) // dequeued, waiting for a worker
	time.Sleep(20 * time.Millisecond)
	stale := rc.send(wire.OpRead, 768<<10, 1, nil) // still queued when the deadline hits
	time.Sleep(150 * time.Millisecond)
	close(g.gate)

	statuses := map[uint64]wire.Status{}
	for i := 0; i < pool+2; i++ {
		h, _ := rc.recv()
		statuses[h.ID] = h.Status
	}
	for _, id := range append(parked, second) {
		if statuses[id] != wire.StatusOK {
			t.Fatalf("request %d: status %v, want OK (all: %v)", id, statuses[id], statuses)
		}
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
	s := newTestServer(t, server.Config{Backend: mem})

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

// TestMetricsLoop checks the periodic stats line reaches Logf with the
// server's counters.
func TestMetricsLoop(t *testing.T) {
	lines := make(chan string, 16)
	s := newTestServer(t, server.Config{
		Backend:         newMem(t, 1<<20),
		MetricsInterval: 10 * time.Millisecond,
		Logf: func(format string, args ...any) {
			select {
			case lines <- fmt.Sprintf(format, args...):
			default:
			}
		},
	})
	rc := dialRaw(t, s)
	rc.send(wire.OpWrite, 0, 1, pattern(1, wire.BlockBytes))
	rc.recv()
	const want = "stats: reads=0 writes=1 blocks_r=0 blocks_w=1 busy=0 macfail=0 quarantined=0 recovered=0 conns=1"
	timeout := time.After(5 * time.Second)
	var last string
	for last != want {
		select {
		case last = <-lines:
		case <-timeout:
			t.Fatalf("no stats line %q; last line %q", want, last)
		}
	}
}

// TestQueueRouting checks where requests run: on the reader when the
// connection is idle, on the queue when it is pipelining, and always on the
// queue for a span crossing shards and for control ops.
func TestQueueRouting(t *testing.T) {
	mem := newShardedMem(t, 1<<20, 4, authmem.DeltaEncoding)
	s := newTestServer(t, server.Config{Backend: mem})
	rc := dialRaw(t, s)

	shardSize := mem.ShardSize()
	payload := pattern(0x42, 2*wire.BlockBytes)

	// Closed loop: single-shard writes and reads, one per shard. Each finds
	// the connection idle and no shard lock held, so it runs on the reader.
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
	if want := uint64(4 * perShard * 2); closed.InlineServed != want || queuedOps(closed) != 0 {
		t.Errorf("closed loop of %d requests: inline %d, queued %d; want all inline", want, closed.InlineServed, queuedOps(closed))
	}

	// Pipelined: a write and a read of one shard arrive in one transport
	// write. The write finds the read already received, so the connection
	// is not idle and it is queued; the read follows it there unless the
	// write has already finished.
	for sh := 0; sh < 4; sh++ {
		addr := uint64(sh)*shardSize + 4096
		rc.sendMany(rc.frame(wire.OpWrite, addr, 2, payload), rc.frame(wire.OpRead, addr, 2, nil))
		for k := 0; k < 2; k++ {
			if h, _ := rc.recv(); h.Status != wire.StatusOK {
				t.Fatalf("pipelined pair on shard %d: %+v", sh, h)
			}
		}
	}
	pipelined := s.Snapshot().Server
	if got := queuedOps(pipelined) - queuedOps(closed); got < 4 || got > 8 {
		t.Errorf("4 pipelined pairs queued %d requests, want 4 to 8 (inline %d -> %d)",
			got, closed.InlineServed, pipelined.InlineServed)
	}

	// A span straddling the shard 0/1 boundary needs the fan-out, so it is
	// queued even on an idle connection, and still serves correct data.
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
	cross := s.Snapshot().Server
	if got := queuedOps(cross) - queuedOps(pipelined); got != 2 || cross.InlineServed != pipelined.InlineServed {
		t.Errorf("cross-shard write and read: %d queued, inline %d -> %d; want 2 queued, none inline",
			got, pipelined.InlineServed, cross.InlineServed)
	}

	// Flush is a control op: queued, and not a data request.
	fid := rc.send(wire.OpFlush, 0, 0, nil)
	if h, _ := rc.recv(); h.ID != fid || h.Status != wire.StatusOK {
		t.Fatalf("flush: %+v", h)
	}
	if got := s.Snapshot().Server; got.FlushOps != 1 || got.InlineServed != cross.InlineServed || queuedOps(got) != queuedOps(cross) {
		t.Errorf("after a flush: %+v", got)
	}

	// Clean shutdown must retire the workers without losing responses.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestQueueConcurrent hammers a sharded backend from several connections at
// once so inline serving, the shared worker pool and shutdown drain all
// interleave. Each connection alternates a closed-loop pair (two transport
// writes: each request finds the connection idle) with a pipelined pair
// (one transport write: the first request must queue); every 8th pair
// straddles a shard boundary (never inline) and every 16th is followed by a
// FLUSH. Every data request is counted once, inline or queued. Run under
// -race.
func TestQueueConcurrent(t *testing.T) {
	mem := newShardedMem(t, 1<<20, 4, authmem.DeltaEncoding)
	s := newTestServer(t, server.Config{Backend: mem})
	shardSize := mem.ShardSize()

	const (
		conns = 4
		pairs = 100
	)
	var wg sync.WaitGroup
	var mustQueue, flushes atomic.Uint64 // data requests that cannot run inline; flushes sent
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
			recv := func(n int) error {
				nc.SetReadDeadline(time.Now().Add(5 * time.Second))
				for k := 0; k < n; k++ {
					rh, _, err := fr.Next()
					if err != nil {
						return fmt.Errorf("conn %d: recv: %v", g, err)
					}
					if rh.Status != wire.StatusOK {
						return fmt.Errorf("conn %d: %v status %v", g, rh.Op, rh.Status)
					}
				}
				return nil
			}
			for i := 0; i < pairs; i++ {
				// Rotate shards; every 8th pair straddles a boundary.
				addr := uint64((g+i)%4)*shardSize + uint64(i%16)*wire.BlockBytes
				count := uint32(1)
				if i%8 == 7 {
					addr = shardSize*uint64(1+(g+i)%3) - wire.BlockBytes
					count = 2
				}
				h := wire.Header{Version: wire.Version, Op: wire.OpWrite, ID: uint64(i)*3 + 1, Addr: addr, Count: count}
				frames := wire.AppendFrame(nil, h, pattern(byte(g), int(count)*wire.BlockBytes))
				switch {
				case count == 2:
					mustQueue.Add(2)
				case i%2 == 1: // pipelined: the write finds the read received
					mustQueue.Add(1)
				}
				if i%2 == 0 { // closed loop; odd pairs send both frames at once
					if _, err := nc.Write(frames); err != nil {
						errs <- err
						return
					}
					frames = nil
				}
				h = wire.Header{Version: wire.Version, Op: wire.OpRead, ID: uint64(i)*3 + 2, Addr: addr, Count: count}
				if _, err := nc.Write(wire.AppendFrame(frames, h, nil)); err != nil {
					errs <- err
					return
				}
				if err := recv(2); err != nil {
					errs <- err
					return
				}
				if i%16 == 15 {
					flushes.Add(1)
					h = wire.Header{Version: wire.Version, Op: wire.OpFlush, ID: uint64(i)*3 + 3}
					if _, err := nc.Write(wire.AppendFrame(nil, h, nil)); err != nil {
						errs <- err
						return
					}
					if err := recv(1); err != nil {
						errs <- err
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
	if want := uint64(2 * conns * pairs); ctr.ReadOps+ctr.WriteOps != want || ctr.InlineServed+queuedOps(ctr) != want {
		t.Errorf("reads %d + writes %d, inline %d + queued %d; want %d data requests each way",
			ctr.ReadOps, ctr.WriteOps, ctr.InlineServed, queuedOps(ctr), want)
	}
	if queuedOps(ctr) < mustQueue.Load() || ctr.InlineServed == 0 {
		t.Errorf("queued %d, inline %d; want at least the %d that cannot run inline, and some inline",
			queuedOps(ctr), ctr.InlineServed, mustQueue.Load())
	}
	if ctr.FlushOps != flushes.Load() {
		t.Errorf("flush_ops %d, want %d", ctr.FlushOps, flushes.Load())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

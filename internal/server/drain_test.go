package server_test

import (
	"context"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"authmem/internal/server"
	"authmem/internal/wire"
)

// burstConn is a transport whose first Read delivers a whole burst of
// request frames — which the server's wire.Reader therefore holds in its
// buffer, ahead of the read loop — and does not return until onBurst has
// run. Later Reads wait for the read deadline, as an idle socket would.
// Only the methods the server's conn machinery calls are implemented.
type burstConn struct {
	net.Conn
	burst   []byte
	onBurst func()

	mu        sync.Mutex
	out       []byte
	deadline  time.Time
	drainSeen chan struct{} // closed by the first SetReadDeadline
	closed    chan struct{}
	drainOnce sync.Once
	closeOnce sync.Once
}

func (c *burstConn) Read(p []byte) (int, error) {
	if c.burst != nil {
		n := copy(p, c.burst)
		c.burst = nil
		c.onBurst()
		return n, nil
	}
	c.mu.Lock()
	wait := time.Until(c.deadline)
	c.mu.Unlock()
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	case <-time.After(wait):
		return 0, os.ErrDeadlineExceeded
	}
}

func (c *burstConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out = append(c.out, p...)
	c.mu.Unlock()
	return len(p), nil
}

func (c *burstConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	c.drainOnce.Do(func() { close(c.drainSeen) })
	return nil
}

func (c *burstConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// TestDrainRejectsRequestsAlreadyBuffered covers what a reader that fills
// its buffer ahead of the read loop adds to draining: requests the server
// had already taken off the transport, but not yet looked at, when the drain
// began. The drain flag is checked per frame, not per Read, so each of them
// is answered SHUTTING_DOWN, in order, and none reaches the backend; the
// reader then honours the grace deadline on its next (real) Read and the
// connection closes.
func TestDrainRejectsRequestsAlreadyBuffered(t *testing.T) {
	s := newTestServer(t, server.Config{Backend: newMem(t, 1<<20), DrainGrace: 50 * time.Millisecond})

	const reqs = 40
	var burst []byte
	for i := 1; i <= reqs; i++ {
		h := wire.Header{Version: wire.Version, ID: uint64(i), Addr: uint64(i) * 64, Count: 1}
		if i%2 == 0 {
			h.Op = wire.OpRead
			burst = wire.AppendFrame(burst, h, nil)
		} else {
			h.Op, h.Flags = wire.OpWrite, wire.FlagRootPin
			burst = wire.AppendFrame(burst, h, pattern(byte(i), wire.BlockBytes))
		}
	}
	shutdownErr := make(chan error, 1)
	nc := &burstConn{burst: burst, drainSeen: make(chan struct{}), closed: make(chan struct{})}
	nc.onBurst = func() {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			shutdownErr <- s.Shutdown(ctx)
		}()
		<-nc.drainSeen // beginDrain has set the flag and the deadline
	}
	s.ServeConn(nc) // returns when the connection is torn down

	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	out := nc.out
	for i := 1; i <= reqs; i++ {
		h, payload, n, err := wire.ParseFrame(out)
		if err != nil {
			t.Fatalf("response %d of %d: %v", i, reqs, err)
		}
		if h.ID != uint64(i) || h.Status != wire.StatusShuttingDown || len(payload) != 0 {
			t.Fatalf("response %d: id=%d status=%v payload=%dB, want a bare SHUTTING_DOWN", i, h.ID, h.Status, len(payload))
		}
		out = out[n:]
	}
	if len(out) != 0 {
		t.Fatalf("%d bytes after the last response", len(out))
	}
	ctr := s.Snapshot().Server
	if ctr.DrainRejected != reqs || ctr.ReadOps+ctr.WriteOps+ctr.RootPinned != 0 {
		t.Fatalf("drain_rejected=%d read_ops=%d write_ops=%d root_pinned=%d, want %d/0/0/0",
			ctr.DrainRejected, ctr.ReadOps, ctr.WriteOps, ctr.RootPinned, reqs)
	}
}

package client_test

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"authmem/client"
	"authmem/internal/server"
	"authmem/internal/wire"
)

// TestClientStatsCounters pins the client-side transport counters: exact
// values on a clean exchange, and the busy/retry/reconnect counters when
// trouble is provoked deterministically.
func TestClientStatsCounters(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		_, c := newStack(t, server.Config{}, client.Options{})
		if got := c.Stats(); got != (client.Stats{}) {
			t.Fatalf("fresh client counters %+v, want all zero", got)
		}
		if _, err := c.Write(0, pattern(1, wire.BlockBytes)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(0, make([]byte, wire.BlockBytes)); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		want := client.Stats{Attempts: 3}
		if got := c.Stats(); got != want {
			t.Fatalf("clean exchange counters %+v, want %+v", got, want)
		}
	})

	t.Run("busy", func(t *testing.T) {
		bb := &blockingBackend{
			Backend: newBackend(t, 1<<20),
			gate:    make(chan struct{}),
			hits:    make(chan struct{}, 8),
		}
		s, c := newStack(t,
			server.Config{Backend: bb, MaxInflight: 1, RequestTimeout: -1},
			client.Options{MaxRetries: 20, RetryBackoff: 2 * time.Millisecond})

		done := make(chan error, 1)
		go func() {
			_, err := c.Read(0, make([]byte, wire.BlockBytes))
			done <- err
		}()
		<-bb.hits // the admission window is now full

		second := make(chan error, 1)
		go func() {
			_, err := c.Read(4096, make([]byte, wire.BlockBytes))
			second <- err
		}()
		deadline := time.Now().Add(2 * time.Second)
		for s.Snapshot().Server.BusyRejected == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		close(bb.gate)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if err := <-second; err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if st.BusyDeferrals == 0 {
			t.Fatalf("BUSY rejections left no deferral trace: %+v", st)
		}
		if st.Retries == 0 || st.Attempts < 2+st.Retries {
			t.Fatalf("deferred call did not account its retries: %+v", st)
		}
		if st.Reconnects != 0 || st.TransportErrors != 0 || st.Timeouts != 0 {
			t.Fatalf("admission pressure polluted transport counters: %+v", st)
		}
	})

	t.Run("reconnect", func(t *testing.T) {
		s, err := server.New(server.Config{Backend: newBackend(t, 1<<20)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		var mu sync.Mutex
		var lastConn *severConn
		c, err := client.New(client.Options{
			Dial: func() (net.Conn, error) {
				nc, err := s.DialLoopback()
				if err != nil {
					return nil, err
				}
				mu.Lock()
				lastConn = &severConn{Conn: nc}
				mu.Unlock()
				return lastConn, nil
			},
			MaxRetries:   4,
			RetryBackoff: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })

		if _, err := c.Write(0, pattern(7, wire.BlockBytes)); err != nil {
			t.Fatal(err)
		}
		if got := c.Stats().Reconnects; got != 0 {
			t.Fatalf("initial dial counted as %d reconnects", got)
		}
		mu.Lock()
		lastConn.severed.Store(true) // sever the transport behind the client's back
		mu.Unlock()
		if _, err := c.Read(0, make([]byte, wire.BlockBytes)); err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if st.Reconnects != 1 {
			t.Fatalf("Reconnects = %d, want 1: %+v", st.Reconnects, st)
		}
		if st.TransportErrors+st.Timeouts == 0 || st.Retries == 0 {
			t.Fatalf("severed transport left no error trace: %+v", st)
		}
	})

	t.Run("closed", func(t *testing.T) {
		bb := &blockingBackend{
			Backend: newBackend(t, 1<<20),
			gate:    make(chan struct{}),
			hits:    make(chan struct{}, 8),
		}
		_, c := newStack(t, server.Config{Backend: bb},
			client.Options{MaxRetries: 4, RetryBackoff: 10 * time.Millisecond})
		t.Cleanup(func() { close(bb.gate) }) // runs before the server closes

		done := make(chan error, 1)
		go func() {
			_, err := c.Read(0, make([]byte, wire.BlockBytes))
			done <- err
		}()
		<-bb.hits // the read is on the wire, parked in the backend
		c.Close()
		if err := <-done; err == nil {
			t.Fatal("read held across Close succeeded")
		}
		if st := c.Stats(); st.Attempts != 1 || st.Retries != 0 {
			t.Fatalf("Close counted a retry that never reached the wire: %+v", st)
		}
	})
}

// severConn is a transport that can be severed without its reader noticing:
// once severed, the next write closes the connection and fails. A severed
// session is then found by the request that uses it, as a transport error,
// and not by a reader that may see the close first and redial quietly.
type severConn struct {
	net.Conn
	severed atomic.Bool
}

func (c *severConn) Write(p []byte) (int, error) {
	if c.severed.Load() {
		c.Conn.Close()
		return 0, errors.New("transport severed")
	}
	return c.Conn.Write(p)
}

func TestClientHello(t *testing.T) {
	_, c := newStack(t, server.Config{NodeID: "n1", Epoch: 99}, client.Options{})
	ni, err := c.Hello()
	if err != nil {
		t.Fatal(err)
	}
	if ni.NodeID != "n1" || ni.Epoch != 99 || ni.ProtoVersion != wire.Version ||
		ni.Size != 1<<21 || ni.BlockBytes != wire.BlockBytes {
		t.Fatalf("Hello: %+v", ni)
	}
}

func TestClientPinnedOps(t *testing.T) {
	_, c := newStack(t, server.Config{}, client.Options{})

	data := pattern(0x33, 2*wire.BlockBytes)
	info, pinW, err := c.WritePinned(128, data)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != wire.StatusOK || info.Flags&wire.FlagRootPin != 0 {
		t.Fatalf("pinned write info %+v (pin flag must be stripped)", info)
	}
	root, err := c.RootDigest()
	if err != nil {
		t.Fatal(err)
	}
	if pinW != root {
		t.Fatal("write pin disagrees with RootDigest")
	}

	dst := make([]byte, len(data))
	_, pinR, err := c.ReadPinned(128, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("pinned read returned wrong bytes")
	}
	if pinR != pinW {
		t.Fatal("read pin moved with no intervening write")
	}

	pinF, err := c.FlushPinned()
	if err != nil {
		t.Fatal(err)
	}
	if pinF != pinW {
		t.Fatal("flush pin moved with no intervening write")
	}

	if _, pin2, err := c.WritePinned(0, pattern(9, wire.BlockBytes)); err != nil {
		t.Fatal(err)
	} else if pin2 == pinW {
		t.Fatal("root pin did not move across a write")
	}

	// Pinned spans are bounded by one protocol request.
	big := make([]byte, wire.MaxPayloadBytes+wire.BlockBytes)
	if _, _, err := c.WritePinned(0, big); err == nil {
		t.Fatal("oversized pinned span accepted")
	}
	if _, _, err := c.ReadPinned(3, make([]byte, wire.BlockBytes)); err == nil {
		t.Fatal("unaligned pinned read accepted")
	}
}

package client_test

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"authmem"
	"authmem/adversary"
	"authmem/client"
	"authmem/internal/server"
	"authmem/internal/wire"
)

// flipAt flips one bit of the plane-p element holding the block at addr,
// through the off-chip attack surface.
func flipAt(m *authmem.Memory, p adversary.Plane, addr uint64, bit int) error {
	phys, err := adversary.LocateAddr(m, p, addr)
	if err != nil {
		return err
	}
	return adversary.FlipBit(m, phys, bit)
}

func testKey() []byte { return bytes.Repeat([]byte{0x5A}, authmem.KeySize) }

func newBackend(t testing.TB, size uint64) *authmem.Memory {
	t.Helper()
	cfg := authmem.DefaultConfig(size)
	cfg.Key = testKey()
	m, err := authmem.NewSharded(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newStack(t testing.TB, cfg server.Config, opts client.Options) (*server.Server, *client.Client) {
	t.Helper()
	if cfg.Backend == nil {
		cfg.Backend = newBackend(t, 1<<21)
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	opts.Dial = s.DialLoopback
	c, err := client.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c
}

func pattern(b byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = b ^ byte(i)
	}
	return p
}

func TestClientRoundTrip(t *testing.T) {
	_, c := newStack(t, server.Config{}, client.Options{})

	data := pattern(0x42, 4*wire.BlockBytes)
	if _, err := c.Write(4096, data); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(data))
	info, err := c.Read(4096, dst)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != wire.StatusOK || !bytes.Equal(dst, data) {
		t.Fatalf("read: status=%v equal=%v", info.Status, bytes.Equal(dst, data))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	snap, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.ProtoVersion != wire.Version || snap.Server.WriteOps == 0 || snap.Engine.Writes == 0 {
		t.Fatalf("stats snapshot: %+v", snap.Server)
	}
	if _, err := c.RootDigest(); err != nil {
		t.Fatal(err)
	}
}

func TestClientValidation(t *testing.T) {
	_, c := newStack(t, server.Config{}, client.Options{})
	if _, err := c.Read(3, make([]byte, wire.BlockBytes)); err == nil {
		t.Fatal("unaligned address accepted")
	}
	if _, err := c.Read(0, make([]byte, 17)); err == nil {
		t.Fatal("non-block span accepted")
	}
	if _, err := c.Write(0, nil); err == nil {
		t.Fatal("empty write accepted")
	}
}

// TestClientSpanSplitting pushes a span larger than one wire frame through
// Read/Write and checks it survives the chunked, pipelined round trip.
func TestClientSpanSplitting(t *testing.T) {
	_, c := newStack(t, server.Config{}, client.Options{MaxInflight: 8})

	// 2.5 protocol-maximum payloads: forces three concurrent chunks.
	n := 2*wire.MaxPayloadBytes + wire.MaxPayloadBytes/2
	data := pattern(0x9D, n)
	if _, err := c.Write(0, data); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, n)
	if _, err := c.Read(0, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("split span round trip corrupted data")
	}
}

// TestClientPipelinedConcurrency hammers one pooled client from many
// goroutines over disjoint regions — all requests share connections and
// complete out of order.
func TestClientPipelinedConcurrency(t *testing.T) {
	_, c := newStack(t, server.Config{}, client.Options{Conns: 2, MaxInflight: 16})

	const workers = 8
	const opsEach = 50
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * 128 * 1024
			buf := make([]byte, wire.BlockBytes)
			for i := 0; i < opsEach; i++ {
				addr := base + uint64(i%64)*wire.BlockBytes
				data := pattern(byte(w*37+i), wire.BlockBytes)
				if _, err := c.Write(addr, data); err != nil {
					errCh <- err
					return
				}
				if _, err := c.Read(addr, buf); err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(buf, data) {
					errCh <- errors.New("read-your-write violated")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// blockingBackend parks every ReadRecover until released so BUSY rejections
// can be provoked deterministically.
type blockingBackend struct {
	server.Backend
	gate chan struct{}
	hits chan struct{}
}

func (b *blockingBackend) ReadRecover(addr uint64, dst []byte) (authmem.RecoverInfo, error) {
	select {
	case b.hits <- struct{}{}:
	default:
	}
	<-b.gate
	return b.Backend.ReadRecover(addr, dst)
}

// TestClientRetriesBusy saturates a MaxInflight=1 server with a parked read
// and checks a second read survives by retrying its BUSY rejections.
func TestClientRetriesBusy(t *testing.T) {
	bb := &blockingBackend{
		Backend: newBackend(t, 1<<20),
		gate:    make(chan struct{}),
		hits:    make(chan struct{}, 8),
	}
	s, c := newStack(t,
		server.Config{Backend: bb, MaxInflight: 1, RequestTimeout: -1},
		client.Options{MaxRetries: 10, RetryBackoff: 5 * time.Millisecond})

	done := make(chan error, 1)
	go func() {
		_, err := c.Read(0, make([]byte, wire.BlockBytes))
		done <- err
	}()
	<-bb.hits // the window is now full

	second := make(chan error, 1)
	go func() {
		_, err := c.Read(4096, make([]byte, wire.BlockBytes))
		second <- err
	}()
	// Hold the gate long enough that the second read is rejected BUSY at
	// least once, then release and let its retry succeed.
	deadline := time.Now().Add(2 * time.Second)
	for s.Snapshot().Server.BusyRejected == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if s.Snapshot().Server.BusyRejected == 0 {
		t.Fatal("second read never hit the BUSY path")
	}
	close(bb.gate)
	if err := <-done; err != nil {
		t.Fatalf("parked read: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("busy-rejected read did not recover by retrying: %v", err)
	}
}

// TestClientNeverRetriesIntegrityFailures tampers a block and checks the
// client surfaces MAC_FAIL immediately — exactly one request on the wire,
// no retry storm against tampered state.
func TestClientNeverRetriesIntegrityFailures(t *testing.T) {
	cfg := authmem.DefaultConfig(1 << 20)
	cfg.Key = testKey()
	mem, err := authmem.NewSharded(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, c := newStack(t, server.Config{Backend: mem},
		client.Options{MaxRetries: 5, RetryBackoff: time.Millisecond})

	const addr = 8192
	if _, err := c.Write(addr, pattern(1, wire.BlockBytes)); err != nil {
		t.Fatal(err)
	}
	for _, bit := range []int{1, 77, 300} { // beyond ECC correction
		if err := flipAt(mem, adversary.Data, addr, bit); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Snapshot().Server.ReadOps

	_, rerr := c.Read(addr, make([]byte, wire.BlockBytes))
	var se *client.StatusError
	if !errors.As(rerr, &se) || se.Status != wire.StatusMACFail {
		t.Fatalf("tampered read: %v, want MAC_FAIL", rerr)
	}
	if got := s.Snapshot().Server.ReadOps - before; got != 1 {
		t.Fatalf("MAC_FAIL read hit the server %d times, want exactly 1 (no retries)", got)
	}

	// The quarantined follow-up must not be retried either.
	before = s.Snapshot().Server.ReadOps
	_, rerr = c.Read(addr, make([]byte, wire.BlockBytes))
	if !errors.As(rerr, &se) || se.Status != wire.StatusQuarantined {
		t.Fatalf("quarantined read: %v, want QUARANTINED", rerr)
	}
	if got := s.Snapshot().Server.ReadOps - before; got != 1 {
		t.Fatalf("QUARANTINED read hit the server %d times, want exactly 1", got)
	}
}

// TestClientSurvivesServerRestartlessReconnect kills the transport under the
// client and checks the pool redials transparently on the next call.
func TestClientReconnects(t *testing.T) {
	backend := newBackend(t, 1<<20)
	s, err := server.New(server.Config{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	var mu sync.Mutex
	var lastConn interface{ Close() error }
	c, err := client.New(client.Options{
		Dial: func() (nc net.Conn, err error) {
			nc, err = s.DialLoopback()
			if err == nil {
				mu.Lock()
				lastConn = nc
				mu.Unlock()
			}
			return nc, err
		},
		MaxRetries:   4,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	data := pattern(7, wire.BlockBytes)
	if _, err := c.Write(0, data); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	lastConn.Close() // sever the transport behind the client's back
	mu.Unlock()

	dst := make([]byte, wire.BlockBytes)
	if _, err := c.Read(0, dst); err != nil {
		t.Fatalf("read after severed transport: %v", err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("reconnected read returned wrong bytes")
	}
}

// TestPinnedRoundTripAllocs bounds what a loopback round trip allocates,
// pinned or not — client and server together, since AllocsPerRun counts the
// whole process: nothing. The call, its completion channel and its timer
// are pooled on the client; the server runs an idle connection's request on
// the reader into a pooled response buffer; the pin travels by value on the
// client and comes from the tree's cached digest on the server.
func TestPinnedRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the server's pooled response buffers are dropped at random under -race")
	}
	_, c := newStack(t, server.Config{}, client.Options{})
	data := pattern(0x5C, 4*wire.BlockBytes)
	dst := make([]byte, len(data))
	if _, _, err := c.WritePinned(4096, data); err != nil {
		t.Fatal(err)
	}
	measure := func(op func() error) float64 {
		return testing.AllocsPerRun(300, func() {
			if err := op(); err != nil {
				t.Fatal(err)
			}
		})
	}
	read := measure(func() error { _, err := c.Read(4096, dst); return err })
	readPinned := measure(func() error { _, _, err := c.ReadPinned(4096, dst); return err })
	write := measure(func() error { _, err := c.Write(4096, data); return err })
	writePinned := measure(func() error { _, _, err := c.WritePinned(4096, data); return err })
	if read > 0 || write > 0 || readPinned > 0 || writePinned > 0 {
		t.Errorf("loopback round trip allocates %.1f (read) / %.1f (write) / %.1f (pinned read) / %.1f (pinned write), want 0 everywhere",
			read, write, readPinned, writePinned)
	}
}

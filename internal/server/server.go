// Package server is the networked authenticated-memory service: a TCP (or
// any net.Conn) front end that exposes a Memory-family device over the
// internal/wire protocol.
//
// Each connection has one reader and one writer goroutine. The reader
// decodes frames and enforces admission control (per-connection in-flight
// cap, drain state, request grammar). An admitted read or write that finds
// the connection idle — no admitted request unanswered, nothing more
// received — runs to completion on the reader when the backend has a
// never-waiting surface (TryBackend, as authmem.Memory does). Every other
// request takes the queue: the connection's FIFO, drained by a dispatcher
// that checks each request's queue deadline as it dequeues it and then hands
// that one request over a single unbuffered channel to a fixed, server-wide
// pool of workers. Workers complete in whatever order the engine serves
// them, so pipelined requests complete out of order and are matched by
// request ID. The writer gathers completions into batched socket writes.
//
// The queue is there for overlap, and so that a backend call that blocks
// never stalls admission. A request skips it only when the backend reports
// it finished without waiting; a shard lock held or a span crossing shards
// leaves the request untouched for the queue, and an inline read that fails
// is queued straight to the recovery ladder, which may wait. So the status
// taxonomy has one source, the choice reads the input, never a setting, and
// both paths end in the same finishRead / finishWrite / maybePin / respCh.
// finish retires a request from the in-flight count before it queues the
// response, so a client holding a response never finds its slot still
// taken; in-flight zero therefore means every earlier request has executed,
// though its response may be queued after an inline one (the protocol
// matches responses by request ID). A queued request is counted in ReadOps
// or WriteOps before its response is queued: ReadOps + WriteOps −
// InlineServed is the number that took the queue.
//
// Engine verdicts cross the trust boundary as wire statuses: integrity
// failures are MAC_FAIL, quarantine refusals are QUARANTINED, and recovery-
// ladder saves are RECOVERED. Nothing is collapsed into an opaque error —
// zero silent escapes through the protocol is a test invariant (see
// fault_test.go).
//
// Graceful shutdown drains: listeners close, connections stop admitting,
// in-flight requests complete and their responses flush, and the region is
// brought to a FlushAll quiescent point before Shutdown returns.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"authmem"
	"authmem/internal/wire"
)

// The wire protocol's block granularity must be the engine's.
const _ = -uint(wire.BlockBytes - authmem.BlockSize)

// Backend is the device surface the server fronts — the subset of
// authmem.Memory's public API it calls: spans in and out, the recovery read,
// the flush, stats and root the control ops report, and the geometry HELLO
// reports. The backend must be safe for concurrent use, as a Memory of any
// shard count is.
type Backend interface {
	ReadRecover(addr uint64, dst []byte) (authmem.RecoverInfo, error)
	ReadBlocks(addr uint64, dst []byte) error
	WriteBlocks(addr uint64, src []byte) error
	FlushAll() error
	Stats() authmem.EngineStats
	RootDigest() authmem.RootDigest
	Size() uint64
	Shards() int
}

var _ Backend = (*authmem.Memory)(nil)

// TryBackend is the optional backend surface that lets an idle connection's
// read or write run to completion on its reader goroutine. Each method is
// its blocking namesake under one more rule: it never waits. done == false
// means it would have had to (a lock was held, the span needs a fan-out), it
// changed nothing, and the request takes the queue. A backend that may park
// inside a call must not implement it. authmem.Memory implements it.
type TryBackend interface {
	TryReadBlocks(addr uint64, dst []byte) (done bool, err error)
	TryWriteBlocks(addr uint64, src []byte) (done bool, err error)
}

var _ TryBackend = (*authmem.Memory)(nil)

// job is one queued request on its way from a connection's dispatcher to a
// pool worker.
type job struct {
	c *conn
	r request
}

// ErrServerClosed is returned by Serve and DialLoopback once Shutdown or
// Close has begun.
var ErrServerClosed = errors.New("server: closed")

// Config configures a Server. Backend is required; zero values elsewhere
// select the defaults noted on each field.
type Config struct {
	// Backend is the device served. Required; must be concurrency-safe.
	Backend Backend

	// NodeID is this node's stable identity, reported in the OpHello
	// handshake. Cluster placement hashes it, so give every member a
	// distinct, restart-stable ID (memserved -node-id). Default: a random
	// hex ID, fine for standalone serving.
	NodeID string

	// Epoch identifies this incarnation of the backend's volatile state,
	// reported in OpHello. A cluster client that observes an epoch change
	// knows the node restarted and its stripes need repair. Default: the
	// process start time in nanoseconds.
	Epoch uint64

	// MaxInflight caps accepted-but-unanswered requests per connection;
	// excess requests are rejected with StatusBusy (default 64).
	MaxInflight int

	// RequestTimeout is the per-request queue deadline, checked when the
	// connection's dispatcher dequeues a request: one admitted this long
	// ago is rejected with StatusDeadline and never executed (default 2s;
	// negative disables).
	RequestTimeout time.Duration

	// DrainGrace is how long a draining connection keeps reading (and
	// answering StatusShuttingDown) before its reader stops, letting
	// responses to already-pipelined requests flush (default 200ms).
	DrainGrace time.Duration

	// MetricsInterval starts a periodic stats loop when positive; each
	// tick logs one line of the server's counters through Logf.
	MetricsInterval time.Duration

	// Logf receives connection-level diagnostics (default: discarded).
	Logf func(format string, args ...any)
}

// counters is the server's protocol-event ledger. All fields are atomics so
// every connection increments without shared locks.
type counters struct {
	connsOpened, connsClosed                       atomic.Uint64
	readOps, writeOps, flushOps, statsOps, rootOps atomic.Uint64
	helloOps, rootPinned                           atomic.Uint64
	blocksRead, blocksWritten                      atomic.Uint64
	busyRejected, deadlineRejected, drainRejected  atomic.Uint64
	badRequests, malformedFrames                   atomic.Uint64
	inlineServed                                   atomic.Uint64
	macFails, quarantined, recovered               atomic.Uint64
}

func (c *counters) snapshot() wire.ServerCounters {
	return wire.ServerCounters{
		ConnsOpened:      c.connsOpened.Load(),
		ConnsClosed:      c.connsClosed.Load(),
		ReadOps:          c.readOps.Load(),
		WriteOps:         c.writeOps.Load(),
		FlushOps:         c.flushOps.Load(),
		StatsOps:         c.statsOps.Load(),
		RootOps:          c.rootOps.Load(),
		HelloOps:         c.helloOps.Load(),
		RootPinned:       c.rootPinned.Load(),
		BlocksRead:       c.blocksRead.Load(),
		BlocksWritten:    c.blocksWritten.Load(),
		BusyRejected:     c.busyRejected.Load(),
		DeadlineRejected: c.deadlineRejected.Load(),
		DrainRejected:    c.drainRejected.Load(),
		BadRequests:      c.badRequests.Load(),
		MalformedFrames:  c.malformedFrames.Load(),
		InlineServed:     c.inlineServed.Load(),
		MACFails:         c.macFails.Load(),
		Quarantined:      c.quarantined.Load(),
		Recovered:        c.recovered.Load(),
	}
}

// Server serves one Backend to any number of connections.
type Server struct {
	cfg  Config
	size uint64
	ctr  counters

	// try is the backend's never-waiting surface, nil when it has none;
	// then every request takes the queue.
	try TryBackend

	// queue is the one hop from every connection's dispatcher to the
	// worker pool. It is unbuffered, so a request waits in its
	// connection's FIFO, where its deadline is checked, until a worker is
	// free to take it.
	queue    chan job
	poolWG   sync.WaitGroup
	poolOnce sync.Once

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	draining  bool

	connWG      sync.WaitGroup
	metricsStop chan struct{}
	metricsWG   sync.WaitGroup
}

// poolSize is the number of workers serving the queue.
func poolSize() int { return max(2, runtime.GOMAXPROCS(0)) }

// New builds a Server. The metrics loop (if configured) starts immediately;
// connections arrive via Serve, ServeConn, or DialLoopback.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("server: Config.Backend is required")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	switch {
	case cfg.RequestTimeout == 0:
		cfg.RequestTimeout = 2 * time.Second
	case cfg.RequestTimeout < 0:
		cfg.RequestTimeout = 0 // disabled
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 200 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.NodeID == "" {
		var raw [4]byte
		rand.Read(raw[:])
		cfg.NodeID = "node-" + hex.EncodeToString(raw[:])
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = uint64(time.Now().UnixNano())
	}
	s := &Server{
		cfg:       cfg,
		size:      cfg.Backend.Size(),
		queue:     make(chan job),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*conn]struct{}),
	}
	s.try, _ = cfg.Backend.(TryBackend)
	for range poolSize() {
		s.poolWG.Add(1)
		go s.worker()
	}
	if cfg.MetricsInterval > 0 {
		s.metricsStop = make(chan struct{})
		s.metricsWG.Add(1)
		go s.metricsLoop()
	}
	return s, nil
}

// Snapshot returns the current stats snapshot — the same document an
// OpStats request receives.
func (s *Server) Snapshot() wire.StatsSnapshot {
	return wire.StatsSnapshot{
		ProtoVersion: wire.Version,
		Server:       s.ctr.snapshot(),
		Engine:       s.cfg.Backend.Stats(),
	}
}

func (s *Server) snapshotJSON() ([]byte, error) { return json.Marshal(s.Snapshot()) }

// NodeInfo returns the identity document an OpHello request receives.
func (s *Server) NodeInfo() wire.NodeInfo {
	return wire.NodeInfo{
		NodeID:       s.cfg.NodeID,
		Epoch:        s.cfg.Epoch,
		ProtoVersion: wire.Version,
		Size:         s.size,
		Shards:       s.cfg.Backend.Shards(),
		BlockBytes:   wire.BlockBytes,
	}
}

func (s *Server) nodeInfoJSON() ([]byte, error) { return json.Marshal(s.NodeInfo()) }

func (s *Server) metricsLoop() {
	defer s.metricsWG.Done()
	t := time.NewTicker(s.cfg.MetricsInterval)
	defer t.Stop()
	for {
		select {
		case <-s.metricsStop:
			return
		case <-t.C:
			c := s.ctr.snapshot()
			s.cfg.Logf("stats: reads=%d writes=%d blocks_r=%d blocks_w=%d busy=%d macfail=%d quarantined=%d recovered=%d conns=%d",
				c.ReadOps, c.WriteOps, c.BlocksRead, c.BlocksWritten, c.BusyRejected,
				c.MACFails, c.Quarantined, c.Recovered, c.ConnsOpened-c.ConnsClosed)
		}
	}
}

// Serve accepts connections from l until Shutdown/Close, returning
// ErrServerClosed on a clean drain.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
		l.Close()
	}()
	for {
		nc, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.serveConn(nc)
		}()
	}
}

// ServeConn serves one pre-established connection, blocking until it closes.
// It is how alternative transports (TLS wrappers, unix sockets, test pipes)
// attach.
func (s *Server) ServeConn(nc net.Conn) {
	s.connWG.Add(1)
	defer s.connWG.Done()
	s.serveConn(nc)
}

// DialLoopback returns the client half of an in-process connection served
// by this server — the full protocol stack with no sockets, used by tests
// and the loopback benchmarks.
func (s *Server) DialLoopback() (net.Conn, error) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return nil, ErrServerClosed
	}
	cs, ss := net.Pipe()
	s.connWG.Add(1)
	go func() {
		defer s.connWG.Done()
		s.serveConn(ss)
	}()
	return cs, nil
}

// Shutdown gracefully drains the server: stop accepting, let every
// connection answer its in-flight requests (new ones get
// StatusShuttingDown), close the connections, and bring the backend to a
// FlushAll quiescent point. If ctx expires first, remaining connections are
// closed hard — but the FlushAll still runs, so the engine's own state is
// consistent either way.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.draining = true
	for l := range s.listeners {
		l.Close()
	}
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	for _, c := range conns {
		c.beginDrain(s.cfg.DrainGrace)
	}
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	var ctxErr error
	select {
	case <-done:
	case <-ctx.Done():
		ctxErr = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.stopPool()
	s.stopMetrics()
	if err := s.cfg.Backend.FlushAll(); err != nil {
		return err
	}
	return ctxErr
}

// Close aborts: listeners and connections are closed immediately without
// drain. Prefer Shutdown.
func (s *Server) Close() error {
	s.mu.Lock()
	s.draining = true
	for l := range s.listeners {
		l.Close()
	}
	for c := range s.conns {
		c.nc.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	s.stopPool()
	s.stopMetrics()
	return nil
}

// worker is one of the pool's executors: it runs queued requests, from any
// connection, one at a time.
func (s *Server) worker() {
	defer s.poolWG.Done()
	for j := range s.queue {
		j.c.execute(j.r)
		j.c.workerWG.Done()
	}
}

// stopPool retires the workers. Callers must have waited for every
// connection first (connWG): dispatchers are the only senders.
func (s *Server) stopPool() {
	s.poolOnce.Do(func() {
		close(s.queue)
		s.poolWG.Wait()
	})
}

func (s *Server) stopMetrics() {
	if s.metricsStop != nil {
		s.mu.Lock()
		select {
		case <-s.metricsStop:
		default:
			close(s.metricsStop)
		}
		s.mu.Unlock()
		s.metricsWG.Wait()
	}
}

func (s *Server) register(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.conns[c] = struct{}{}
	s.ctr.connsOpened.Add(1)
	return true
}

func (s *Server) unregister(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.ctr.connsClosed.Add(1)
}

package main

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"authmem"
	"authmem/client"
	"authmem/cluster"
	"authmem/internal/server"
	"authmem/internal/wire"
)

// target is what a caller drives: one read or write of a block span.
type target interface {
	read(addr uint64, dst []byte) error
	write(addr uint64, src []byte) error
}

// stack is one built system under test: the engines, whatever serves and
// reaches them, and a target per caller.
type stack struct {
	kind    stackKind
	targets []target // one per caller
	mems    []*authmem.ShardedMemory
	srvs    []*server.Server
	cli     *client.Client
	clu     *cluster.Cluster
	io      *connCounters
	dur     *durable
	closers []func()
}

// layerCalls names the public calls (read, write) callers make into each
// kind of stack: the span names of the traced run.
var layerCalls = map[stackKind][2]spanName{
	stackEngine:    {spanCoreRead, spanCoreWrite},
	stackDurable:   {spanCoreRead, spanCoreWrite},
	stackCodec:     {spanCodecRead, spanCodecWrite},
	stackLoopback:  {spanClientRead, spanClientWrite},
	stackTCP:       {spanClientRead, spanClientWrite},
	stackClusterR1: {spanClusterRead, spanClusterWrite},
	stackClusterR2: {spanClusterRead, spanClusterWrite},
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// engineStats sums the engines' event and counter-scheme counts.
func (s *stack) engineStats() (authmem.EngineStats, authmem.CounterStats) {
	var es authmem.EngineStats
	var cs authmem.CounterStats
	for _, m := range s.mems {
		es.Add(m.Stats())
		c := m.CounterStats()
		cs.Writes += c.Writes
		cs.Resets += c.Resets
		cs.Reencodes += c.Reencodes
		cs.Reencryptions += c.Reencryptions
		cs.ReencryptedBlocks += c.ReencryptedBlocks
	}
	return es, cs
}

func benchKey() []byte {
	k := make([]byte, authmem.KeySize)
	for i := range k {
		k[i] = byte(i*7 + 1)
	}
	return k
}

func benchConfig(region uint64) authmem.Config {
	cfg := authmem.DefaultConfig(region)
	cfg.Key = benchKey()
	return cfg
}

// newEngine builds a sharded region and writes version 1 of the working set
// into it, so that no measured read is a fresh (never-written, crypto-free)
// read. Every engine of a run starts from these same contents: the replicas
// of a cluster and the shorter stacks of a traced run.
func newEngine(w *workload, or *oracle, track bool) (*authmem.ShardedMemory, error) {
	mem, err := authmem.NewSharded(benchConfig(w.region), shards)
	if err != nil {
		return nil, err
	}
	if track {
		mem.EnableDeltaTracking()
	}
	chunk := make([]byte, 64<<10)
	w.set.extents(w.region, func(base, n uint64) {
		for off := uint64(0); off < n && err == nil; off += uint64(len(chunk)) {
			or.payloadAt(chunk, base+off, 1)
			if werr := mem.WriteBlocks(base+off, chunk); werr != nil {
				err = fmt.Errorf("populate %#x: %w", base+off, werr)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return mem, mem.FlushAll()
}

// markPopulated records version 1 for every block newEngine wrote.
func markPopulated(w *workload, or *oracle) {
	w.set.extents(w.region, func(base, n uint64) {
		for b := base / blockBytes; b < (base+n)/blockBytes; b++ {
			or.ver[b] = 1
		}
	})
}

// buildStack builds one stack for w with the working set populated. dir is
// where a durable stack keeps its files; rec, when set, receives the spans
// the stack can see from outside (connection I/O, persistence calls).
func buildStack(kind stackKind, w *workload, or *oracle, dir string, rec *recorder) (st *stack, err error) {
	st = &stack{kind: kind, io: &connCounters{rec: rec}}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	nodes := 1
	if kind == stackClusterR2 {
		nodes = 3
	}
	for i := 0; i < nodes; i++ {
		mem, err := newEngine(w, or, kind == stackDurable)
		if err != nil {
			return nil, err
		}
		st.mems = append(st.mems, mem)
	}
	engine := engineTarget{st.mems[0]}

	switch kind {
	case stackEngine:
		st.fanOut(w, func(int) target { return engine })
	case stackDurable:
		if st.dur, err = newDurable(st.mems[0], dir, rec); err != nil {
			return nil, err
		}
		st.closers = append(st.closers, st.dur.close)
		st.fanOut(w, func(int) target { return engine })
	case stackCodec:
		st.fanOut(w, func(int) target { return &codecTarget{inner: engine} })
	case stackLoopback, stackTCP:
		dial, err := st.serve(st.mems[0], "node0", kind == stackTCP)
		if err != nil {
			return nil, err
		}
		st.cli, err = client.New(client.Options{Dial: dial, Conns: 2})
		if err != nil {
			return nil, err
		}
		st.closers = append(st.closers, func() { st.cli.Close() })
		st.fanOut(w, func(int) target { return clientTarget{st.cli} })
	case stackClusterR1, stackClusterR2:
		var members []cluster.Node
		for i, mem := range st.mems {
			name := fmt.Sprintf("node%d", i)
			dial, err := st.serve(mem, name, true)
			if err != nil {
				return nil, err
			}
			members = append(members, cluster.Node{Name: name, Dial: dial})
		}
		repl := 1
		if kind == stackClusterR2 {
			repl = 2
		}
		st.clu, err = cluster.New(cluster.Options{
			Nodes: members, Size: w.region, Replication: repl, StripeBlocks: 64,
			Client: client.Options{Conns: 2},
		})
		if err != nil {
			return nil, err
		}
		st.closers = append(st.closers, func() { st.clu.Close() })
		st.fanOut(w, func(int) target { return clusterTarget{st.clu} })
	}
	return st, nil
}

func (s *stack) fanOut(w *workload, mk func(caller int) target) {
	for c := 0; c < w.callers; c++ {
		s.targets = append(s.targets, mk(c))
	}
}

// serve starts a server over mem and returns a dialer for it: TCP localhost
// or the in-process pipe, either way through the counting connection.
func (s *stack) serve(mem *authmem.ShardedMemory, nodeID string, tcp bool) (func() (net.Conn, error), error) {
	srv, err := server.New(server.Config{Backend: mem, NodeID: nodeID, RequestTimeout: -1})
	if err != nil {
		return nil, err
	}
	s.srvs = append(s.srvs, srv)
	dial := srv.DialLoopback
	served := make(chan struct{})
	close(served)
	if tcp {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return nil, err
		}
		served = make(chan struct{})
		go func() {
			defer close(served)
			srv.Serve(l) // returns ErrServerClosed once srv.Close runs
		}()
		addr := l.Addr().String()
		dial = func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 5*time.Second) }
	}
	s.closers = append(s.closers, func() {
		srv.Close()
		<-served
	})
	return func() (net.Conn, error) {
		nc, err := dial()
		if err != nil {
			return nil, err
		}
		return &countedConn{Conn: nc, c: s.io}, nil
	}, nil
}

type engineTarget struct{ mem *authmem.ShardedMemory }

func (t engineTarget) read(addr uint64, dst []byte) error { return t.mem.ReadBlocks(addr, dst) }

func (t engineTarget) write(addr uint64, src []byte) error {
	if len(src) == blockBytes {
		return t.mem.Write(addr, src)
	}
	return t.mem.WriteBlocks(addr, src)
}

type clientTarget struct{ c *client.Client }

func (t clientTarget) read(addr uint64, dst []byte) error {
	_, err := t.c.Read(addr, dst)
	return err
}

func (t clientTarget) write(addr uint64, src []byte) error {
	_, err := t.c.Write(addr, src)
	return err
}

type clusterTarget struct{ c *cluster.Cluster }

func (t clusterTarget) read(addr uint64, dst []byte) error {
	_, err := t.c.Read(addr, dst)
	return err
}

func (t clusterTarget) write(addr uint64, src []byte) error {
	_, err := t.c.Write(addr, src)
	return err
}

// codecTarget puts exactly the wire codec between the caller and the engine:
// each op encodes a request frame, parses it, runs the engine call, encodes
// the response frame and parses that — what a served op pays for framing,
// with no connection, queue or goroutine hop. One per caller.
type codecTarget struct {
	inner     target
	id        uint64
	req, resp []byte
	data      [spanBytes]byte
}

var errCodec = errors.New("codec stack: response does not match request")

func (t *codecTarget) roundTrip(op wire.Op, addr uint64, n int, src, dst []byte) error {
	t.id++
	t.req = wire.AppendFrame(t.req[:0], wire.Header{Version: wire.Version, Op: op, ID: t.id, Addr: addr, Count: uint32(n / blockBytes)}, src)
	h, payload, _, err := wire.ParseFrame(t.req)
	if err != nil {
		return err
	}
	if err := h.ValidateRequest(len(payload)); err != nil {
		return err
	}
	var out []byte
	if h.Op == wire.OpWrite {
		err = t.inner.write(h.Addr, payload)
	} else {
		out = t.data[:h.SpanBytes()]
		err = t.inner.read(h.Addr, out)
	}
	if err != nil {
		return err
	}
	h.Status = wire.StatusOK
	t.resp = wire.AppendFrame(t.resp[:0], h, out)
	rh, body, _, err := wire.ParseFrame(t.resp)
	if err != nil {
		return err
	}
	if rh.ID != t.id || !rh.Status.Success() || len(body) != len(dst) {
		return errCodec
	}
	copy(dst, body)
	return nil
}

func (t *codecTarget) read(addr uint64, dst []byte) error {
	return t.roundTrip(wire.OpRead, addr, len(dst), nil, dst)
}

func (t *codecTarget) write(addr uint64, src []byte) error {
	return t.roundTrip(wire.OpWrite, addr, len(src), src, nil)
}

// connCounters counts what the clients of a stack put on and take off their
// connections.
type connCounters struct {
	writes, reads, bytes atomic.Uint64
	rec                  *recorder
}

type countedConn struct {
	net.Conn
	c *connCounters
}

func (c *countedConn) Write(p []byte) (int, error) {
	t0 := c.c.rec.now()
	n, err := c.Conn.Write(p)
	c.c.rec.add(spanConnWrite, t0, 0, 0)
	c.c.writes.Add(1)
	c.c.bytes.Add(uint64(n))
	return n, err
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.reads.Add(1)
	c.c.bytes.Add(uint64(n))
	return n, err
}

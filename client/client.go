// Package client is the remote authenticated-memory client: it speaks the
// internal/wire protocol to a memserved instance (or any internal/server
// Server) and presents the familiar block-device surface — Read, Write,
// Flush, Stats, RootDigest — over the network.
//
// A Client multiplexes requests over a pool of connections, pipelining
// automatically: every in-flight call gets a request ID and waits on its
// own completion, so concurrent callers share connections without
// serializing, and responses are matched as they arrive in any order.
// Spans larger than the protocol's per-request maximum are split and issued
// as concurrent pipelined requests.
//
// Transient failures — BUSY/DEADLINE rejections, dial errors, broken
// connections — are retried with exponential backoff. Integrity verdicts
// are never retried: MAC_FAIL and QUARANTINED mean the remote memory's
// contents failed authentication, and re-asking cannot make tampered state
// verify. They surface as *StatusError.
package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"authmem"
	"authmem/internal/wire"
)

// Options configures a Client. Addr or Dial is required.
type Options struct {
	// Addr is the server's TCP address, used when Dial is nil.
	Addr string

	// Dial overrides the transport — e.g. (*server.Server).DialLoopback
	// for an in-process stack, or a TLS dialer.
	Dial func() (net.Conn, error)

	// Conns is the connection-pool size (default 1). Calls are spread
	// round-robin.
	Conns int

	// MaxInflight caps this client's outstanding requests per connection
	// (default 32). Keep it at or below the server's admission cap to
	// avoid systematic BUSY rejections.
	MaxInflight int

	// RequestTimeout bounds one attempt's wait for a response (default
	// 10s).
	RequestTimeout time.Duration

	// MaxRetries is how many times a retryable failure is re-attempted
	// (default 4); RetryBackoff is the initial backoff, doubling per
	// attempt (default 2ms).
	MaxRetries   int
	RetryBackoff time.Duration
}

func (o *Options) fill() error {
	if o.Dial == nil {
		if o.Addr == "" {
			return errors.New("client: Options.Addr or Options.Dial required")
		}
		addr := o.Addr
		o.Dial = func() (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	if o.Conns <= 0 {
		o.Conns = 1
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 32
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	} else if o.MaxRetries == 0 {
		o.MaxRetries = 4
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 2 * time.Millisecond
	}
	return nil
}

// StatusError is a request refused or failed by the server, carrying the
// wire status verbatim. For MAC_FAIL and QUARANTINED, Addr is the failing
// block's address.
type StatusError struct {
	Status wire.Status
	Addr   uint64
}

// Error implements error.
func (e *StatusError) Error() string {
	switch e.Status {
	case wire.StatusMACFail:
		return fmt.Sprintf("client: integrity failure (MAC_FAIL) at %#x", e.Addr)
	case wire.StatusQuarantined:
		return fmt.Sprintf("client: block at %#x is quarantined", e.Addr)
	default:
		return fmt.Sprintf("client: request failed: %v", e.Status)
	}
}

// Info reports how the server served a call.
type Info struct {
	// Status is the (worst, for split spans) wire status: StatusOK or
	// StatusRecovered on success.
	Status wire.Status
	// Flags accumulates the response info bits (FlagRetried,
	// FlagMetaRepaired, FlagCorrected).
	Flags uint8
}

// Recovered reports whether the engine's recovery ladder fired.
func (i Info) Recovered() bool { return i.Status == wire.StatusRecovered }

// Client is a remote authenticated memory handle. It is safe for
// concurrent use.
type Client struct {
	// ctr is the live form of Stats, shared with the pool slots and bumped
	// by atomic add. It stays the first field, which keeps its words 64-bit
	// aligned on 32-bit targets.
	ctr Stats

	opts   Options
	conns  []*poolConn
	rr     atomic.Uint64
	closed atomic.Bool
}

// New dials the pool and returns a ready Client.
func New(opts Options) (*Client, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	c := &Client{opts: opts, conns: make([]*poolConn, opts.Conns)}
	for i := range c.conns {
		c.conns[i] = &poolConn{opts: &c.opts, ctr: &c.ctr}
		if err := c.conns[i].connect(); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// Close tears the pool down. In-flight calls fail with a transport error.
func (c *Client) Close() error {
	c.closed.Store(true)
	for _, pc := range c.conns {
		if pc != nil {
			pc.close(errors.New("client: closed"))
		}
	}
	return nil
}

// Read verifies and fetches len(dst) bytes at the block-aligned addr.
// len(dst) must be a positive multiple of the 64-byte block size. Spans
// beyond the protocol maximum are split into concurrent pipelined requests.
func (c *Client) Read(addr uint64, dst []byte) (Info, error) {
	return c.spanned(wire.OpRead, addr, nil, dst)
}

// Write stores len(src) bytes at the block-aligned addr; same span rules as
// Read.
func (c *Client) Write(addr uint64, src []byte) (Info, error) {
	return c.spanned(wire.OpWrite, addr, src, nil)
}

// Flush brings the remote region to a quiescent point: all deferred Merkle
// maintenance lands before it returns.
func (c *Client) Flush() error {
	_, err := c.do(wire.OpFlush, 0, 0, 0, nil, nil)
	return err
}

// ServerStats fetches the server's statistics snapshot. The client's own
// transport counters are Stats.
func (c *Client) ServerStats() (wire.StatsSnapshot, error) {
	var snap wire.StatsSnapshot
	res, err := c.do(wire.OpStats, 0, 0, 0, nil, nil)
	if err != nil {
		return snap, err
	}
	return snap, json.Unmarshal(res.body, &snap)
}

// Hello fetches the server's identity: its stable node ID, the epoch of the
// current process incarnation, and the region geometry. A cluster layer uses
// the epoch to detect node restarts — an epoch change means everything the
// node held is gone.
func (c *Client) Hello() (wire.NodeInfo, error) {
	var ni wire.NodeInfo
	res, err := c.do(wire.OpHello, 0, 0, 0, nil, nil)
	if err != nil {
		return ni, err
	}
	return ni, json.Unmarshal(res.body, &ni)
}

// RootDigest fetches the trusted root digest over the remote region's
// current state.
func (c *Client) RootDigest() (authmem.RootDigest, error) {
	var d authmem.RootDigest
	res, err := c.do(wire.OpRootDigest, 0, 0, 0, nil, nil)
	if err != nil {
		return d, err
	}
	if len(res.body) != len(d) {
		return d, fmt.Errorf("client: root digest is %d bytes, want %d", len(res.body), len(d))
	}
	copy(d[:], res.body)
	return d, nil
}

// ReadPinned is Read plus an attestation: the server appends its trusted
// root digest, computed at a quiescent point after serving the read, to the
// response. Unlike a separate RootDigest call, the pin is atomic with the
// read on the server's execution path. The span must fit one protocol
// request (wire.MaxPayloadBytes); larger spans would split and each chunk
// would pin a different root.
func (c *Client) ReadPinned(addr uint64, dst []byte) (Info, authmem.RootDigest, error) {
	return c.pinned(wire.OpRead, addr, nil, dst)
}

// WritePinned is Write plus an attestation of the post-write root. Same
// span bound as ReadPinned.
func (c *Client) WritePinned(addr uint64, src []byte) (Info, authmem.RootDigest, error) {
	return c.pinned(wire.OpWrite, addr, src, nil)
}

// FlushPinned flushes and returns the root digest of the quiescent state in
// one round trip.
func (c *Client) FlushPinned() (authmem.RootDigest, error) {
	res, err := c.do(wire.OpFlush, wire.FlagRootPin, 0, 0, nil, nil)
	if err != nil {
		return authmem.RootDigest{}, err
	}
	if !res.pinned {
		return authmem.RootDigest{}, errors.New("client: server did not pin the flush response")
	}
	return res.pin, nil
}

// pinned performs one root-pinned data request.
func (c *Client) pinned(op wire.Op, addr uint64, src, dst []byte) (Info, authmem.RootDigest, error) {
	var d authmem.RootDigest // returned zero with every error
	data := src
	if op == wire.OpRead {
		data = dst
	}
	if len(data) == 0 || len(data)%wire.BlockBytes != 0 {
		return Info{}, d, fmt.Errorf("client: span of %d bytes is not a positive multiple of %d", len(data), wire.BlockBytes)
	}
	if len(data) > wire.MaxPayloadBytes {
		return Info{}, d, fmt.Errorf("client: pinned span of %d bytes exceeds the %d-byte request maximum", len(data), wire.MaxPayloadBytes)
	}
	if addr%wire.BlockBytes != 0 {
		return Info{}, d, fmt.Errorf("client: address %#x not %d-byte aligned", addr, wire.BlockBytes)
	}
	res, err := c.do(op, wire.FlagRootPin, addr, uint32(len(data)/wire.BlockBytes), src, dst)
	if err != nil {
		return Info{}, d, err
	}
	if !res.pinned {
		return Info{}, d, fmt.Errorf("client: server did not pin the %v response", op)
	}
	return Info{Status: res.h.Status, Flags: res.h.Flags &^ wire.FlagRootPin}, res.pin, nil
}

// spanned validates a data span, splits it into protocol-sized chunks, and
// issues the chunks as concurrent pipelined requests.
func (c *Client) spanned(op wire.Op, addr uint64, src, dst []byte) (Info, error) {
	data := src
	if op == wire.OpRead {
		data = dst
	}
	if len(data) == 0 || len(data)%wire.BlockBytes != 0 {
		return Info{}, fmt.Errorf("client: span of %d bytes is not a positive multiple of %d", len(data), wire.BlockBytes)
	}
	if addr%wire.BlockBytes != 0 {
		return Info{}, fmt.Errorf("client: address %#x not %d-byte aligned", addr, wire.BlockBytes)
	}
	if len(data) <= wire.MaxPayloadBytes {
		return c.chunk(op, addr, src, dst)
	}
	type part struct {
		info Info
		err  error
	}
	var chunks int
	for off := 0; off < len(data); off += wire.MaxPayloadBytes {
		chunks++
	}
	results := make(chan part, chunks)
	for off := 0; off < len(data); off += wire.MaxPayloadBytes {
		end := min(off+wire.MaxPayloadBytes, len(data))
		go func(off, end int) {
			var p part
			if op == wire.OpRead {
				p.info, p.err = c.chunk(op, addr+uint64(off), nil, dst[off:end])
			} else {
				p.info, p.err = c.chunk(op, addr+uint64(off), src[off:end], nil)
			}
			results <- p
		}(off, end)
	}
	var info Info
	var firstErr error
	for i := 0; i < chunks; i++ {
		p := <-results
		info.Flags |= p.info.Flags
		if p.info.Status > info.Status {
			info.Status = p.info.Status
		}
		if p.err != nil && firstErr == nil {
			firstErr = p.err
		}
	}
	return info, firstErr
}

// chunk performs one protocol-sized request.
func (c *Client) chunk(op wire.Op, addr uint64, src, dst []byte) (Info, error) {
	count := uint32(len(src) / wire.BlockBytes)
	if op == wire.OpRead {
		count = uint32(len(dst) / wire.BlockBytes)
	}
	res, err := c.do(op, 0, addr, count, src, dst)
	if err != nil {
		return Info{}, err
	}
	return Info{Status: res.h.Status, Flags: res.h.Flags}, nil
}

// do issues one request with retry-with-backoff. Reads land directly in
// dst; control-op payloads are returned as a fresh slice in the result's
// body, a root pin by value in its pin.
func (c *Client) do(op wire.Op, flags uint8, addr uint64, count uint32, payload, dst []byte) (callResult, error) {
	var lastErr error
	backoff := c.opts.RetryBackoff
	for attempt := 0; attempt <= c.opts.MaxRetries; attempt++ {
		// A closed client neither backs off nor counts an attempt: Retries
		// counts only re-attempts that reach the transport.
		if attempt > 0 && !c.closed.Load() {
			time.Sleep(backoff)
			backoff *= 2
		}
		if c.closed.Load() {
			return callResult{}, errors.New("client: closed")
		}
		if attempt > 0 {
			atomic.AddUint64(&c.ctr.Retries, 1)
		}
		atomic.AddUint64(&c.ctr.Attempts, 1)
		pc := c.conns[c.rr.Add(1)%uint64(len(c.conns))]
		res, err := pc.roundTrip(op, flags, addr, count, payload, dst)
		if err != nil {
			if errors.Is(err, errTimeout) {
				atomic.AddUint64(&c.ctr.Timeouts, 1)
			} else {
				atomic.AddUint64(&c.ctr.TransportErrors, 1)
			}
			lastErr = err // transport trouble: retry (another conn, redial)
			continue
		}
		h := res.h
		if h.Status.Success() {
			return res, nil
		}
		serr := &StatusError{Status: h.Status, Addr: h.Addr}
		if !h.Status.Retryable() {
			return callResult{}, serr
		}
		switch h.Status {
		case wire.StatusBusy:
			atomic.AddUint64(&c.ctr.BusyDeferrals, 1)
		case wire.StatusDeadline:
			atomic.AddUint64(&c.ctr.DeadlineDeferrals, 1)
		}
		lastErr = serr
	}
	atomic.AddUint64(&c.ctr.RetriesExhausted, 1)
	return callResult{}, fmt.Errorf("client: retries exhausted: %w", lastErr)
}

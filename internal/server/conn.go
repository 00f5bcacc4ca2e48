package server

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"authmem"
	"authmem/internal/wire"
)

// bufPool recycles payload-sized buffers across requests and responses so
// the data path allocates nothing in steady state beyond what the engine
// itself does.
var bufPool = sync.Pool{
	New: func() any {
		// Room for a maximum span plus a root-pin suffix, so pinned
		// responses never outgrow a pooled buffer.
		b := make([]byte, 0, wire.MaxPayloadBytes+wire.RootPinBytes)
		return &b
	},
}

func getBuf(n int) *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:n]
	return b
}

func putBuf(b *[]byte) {
	if b != nil {
		bufPool.Put(b)
	}
}

// request is an accepted frame queued for execution. data is a pooled copy
// of the write payload (the wire.Reader's buffer is reused per frame, so it
// cannot be referenced past the read loop's iteration). enq is stamped only
// when the queue deadline is enabled.
type request struct {
	h    wire.Header
	data *[]byte
	enq  time.Time
}

// response is a completed or rejected frame awaiting serialization. data
// (when non-nil) is pooled and released by the writer; accepted marks
// responses that retire an admitted request from the in-flight window.
type response struct {
	h        wire.Header
	data     *[]byte
	n        int
	accepted bool
}

type conn struct {
	srv *Server
	nc  netConn

	reqCh  chan request
	respCh chan response

	inflight atomic.Int64
	draining atomic.Bool
	wbroken  bool // writer-side; only the writer goroutine touches it

	workerWG sync.WaitGroup
}

// netConn is the slice of net.Conn the conn machinery uses (all of
// net.Conn, but spelled out so tests can fake it).
type netConn interface {
	Read([]byte) (int, error)
	Write([]byte) (int, error)
	SetReadDeadline(time.Time) error
	Close() error
}

// serveConn runs one connection to completion: reader inline, dispatcher
// and writer as goroutines. It returns when the connection is fully torn
// down with every in-flight response flushed or the transport broken.
func (s *Server) serveConn(nc netConn) {
	c := &conn{
		srv:    s,
		nc:     nc,
		reqCh:  make(chan request, s.cfg.MaxInflight),
		respCh: make(chan response, s.cfg.MaxInflight+16),
	}
	if !s.register(c) {
		nc.Close()
		return
	}
	defer s.unregister(c)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c.dispatchLoop()
	}()
	go func() {
		defer wg.Done()
		c.writeLoop()
	}()

	c.readLoop()
	close(c.reqCh) // dispatcher drains, waits for workers, closes respCh
	wg.Wait()
	nc.Close()
}

// beginDrain flips the connection into drain mode: new requests are
// answered with StatusShuttingDown, and the reader stops entirely once
// grace elapses (in-flight responses still flush on the way out).
func (c *conn) beginDrain(grace time.Duration) {
	c.draining.Store(true)
	c.nc.SetReadDeadline(time.Now().Add(grace))
}

// readLoop decodes frames and performs admission control. It exits on EOF,
// transport error, malformed framing, or the drain deadline.
func (c *conn) readLoop() {
	fr := wire.NewReader(c.nc)
	for {
		h, payload, err := fr.Next()
		if err != nil {
			if err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) {
				if errors.Is(err, wire.ErrShortFrame) || errors.Is(err, wire.ErrFrameTooLarge) || errors.Is(err, wire.ErrVersion) {
					atomic.AddUint64(&c.srv.ctr.MalformedFrames, 1)
					c.srv.cfg.Logf("server: closing connection: %v", err)
				}
			}
			return
		}
		if verr := h.ValidateRequest(len(payload)); verr != nil {
			atomic.AddUint64(&c.srv.ctr.BadRequests, 1)
			c.reject(h, wire.StatusBadRequest)
			continue
		}
		if (h.Op == wire.OpRead || h.Op == wire.OpWrite) && h.End() > c.srv.size {
			atomic.AddUint64(&c.srv.ctr.BadRequests, 1)
			c.reject(h, wire.StatusBadRequest)
			continue
		}
		if c.draining.Load() {
			atomic.AddUint64(&c.srv.ctr.DrainRejected, 1)
			c.reject(h, wire.StatusShuttingDown)
			continue
		}
		inflight := c.inflight.Load()
		if int(inflight) >= c.srv.cfg.MaxInflight {
			atomic.AddUint64(&c.srv.ctr.BusyRejected, 1)
			c.reject(h, wire.StatusBusy)
			continue
		}
		c.inflight.Add(1)
		// An idle connection — nothing admitted and unanswered, nothing more
		// received — has no other request to overlap this one with, so the
		// queue could only add hand-offs: serve it here if the backend can
		// do so without waiting.
		if inflight == 0 && fr.Buffered() == 0 && c.serveInline(h, payload) {
			continue
		}
		r := request{h: h}
		if h.Op == wire.OpWrite {
			r.data = getBuf(len(payload))
			copy(*r.data, payload)
		}
		c.enqueue(r)
	}
}

// enqueue appends an admitted request to the connection's FIFO. It never
// blocks: in-flight (≤ MaxInflight) bounds queued requests, and reqCh has
// MaxInflight capacity.
func (c *conn) enqueue(r request) {
	if c.srv.cfg.RequestTimeout > 0 {
		r.enq = time.Now()
	}
	c.reqCh <- r
}

// serveInline runs an admitted read or write to completion on the reader
// goroutine through the backend's never-waiting surface, and reports whether
// it took the request; false leaves it untouched for the queue. Only the
// response's trip through respCh and the writer remains. An inline request
// cannot overtake a queued one: finish runs after the backend call returns,
// so with inflight zero every earlier request has already executed. Its
// response may still be on its way into respCh (finish frees the slot
// first), so the inline response can be written ahead of it; responses are
// matched by request ID, and a client that waits for each response before
// sending the next never has two outstanding. A write uses the frame's
// payload in place — it is over before the next fr.Next reuses the buffer. A
// read is the queued read's one call in its never-waiting form, recovery
// ladder included: the ladder runs under the shard lock the call already
// holds, so a read that fails verification is answered here as the queue
// would answer it, having run once.
func (c *conn) serveInline(h wire.Header, payload []byte) bool {
	try := c.srv.try
	if try == nil {
		return false
	}
	switch h.Op {
	case wire.OpRead:
		data := getBuf(h.SpanBytes())
		done, ri, err := try.TryReadRecover(h.Addr, *data)
		if !done {
			putBuf(data)
			return false
		}
		atomic.AddUint64(&c.srv.ctr.InlineServed, 1)
		atomic.AddUint64(&c.srv.ctr.ReadOps, 1)
		c.finishRead(h, data, ri, err)
		return true
	case wire.OpWrite:
		done, err := try.TryWriteBlocks(h.Addr, payload)
		if !done {
			return false
		}
		atomic.AddUint64(&c.srv.ctr.InlineServed, 1)
		atomic.AddUint64(&c.srv.ctr.WriteOps, 1)
		c.finishWrite(h, err)
		return true
	}
	return false
}

// reject answers a request without admitting it.
func (c *conn) reject(h wire.Header, st wire.Status) {
	h.Status = st
	h.Count = 0
	h.Flags = 0
	c.respCh <- response{h: h}
}

// dispatchLoop drains the connection's FIFO: it takes admitted requests in
// arrival order, answers those that waited past the queue deadline, and
// hands each of the others to the next free pool worker. After the request
// stream ends it waits for the connection's requests still on a worker and
// closes the response channel, which lets the writer finish.
func (c *conn) dispatchLoop() {
	for r := range c.reqCh {
		if c.expire(&r) {
			continue
		}
		c.workerWG.Add(1)
		c.srv.queue <- job{c: c, r: r}
	}
	c.workerWG.Wait()
	close(c.respCh)
}

// expire enforces the per-request queue deadline. Expired requests are
// answered with StatusDeadline and never executed.
func (c *conn) expire(r *request) bool {
	d := c.srv.cfg.RequestTimeout
	if d <= 0 || time.Since(r.enq) < d {
		return false
	}
	atomic.AddUint64(&c.srv.ctr.DeadlineRejected, 1)
	putBuf(r.data)
	h := r.h
	h.Status = wire.StatusDeadline
	h.Count = 0
	h.Flags = 0
	c.finish(response{h: h, accepted: true})
	return true
}

// maybePin appends the node's current trusted root digest to a successful
// response whose request asked for it with FlagRootPin, and sets the flag
// on the response to mark the suffix present. Failed responses never pin:
// their post-operation root is not an attestation of anything the client
// got. Cost: Backend.RootDigest flushes the shards written since the last
// pin and re-hashes only their top levels (tree.TopDigest caches the rest),
// so a pinned read adds a 32-byte copy to the response and a pinned write
// one leaf-path flush plus one 3KB hash — the write pipeline's combining is
// what a pin per write gives up, which is why pinning stays opt-in per
// request. The digest lands in the response's pooled buffer: no allocation.
func (c *conn) maybePin(reqFlags uint8, resp *response) {
	resp.h.Flags &^= wire.FlagRootPin
	if reqFlags&wire.FlagRootPin == 0 || !resp.h.Status.Success() {
		return
	}
	d := c.srv.cfg.Backend.RootDigest()
	if resp.data == nil {
		resp.data = getBuf(0)
	}
	*resp.data = append((*resp.data)[:resp.n], d[:]...)
	resp.n += len(d)
	resp.h.Flags |= wire.FlagRootPin
	atomic.AddUint64(&c.srv.ctr.RootPinned, 1)
}

// finish retires an admitted request from the in-flight window and queues
// its response. The slot is freed first: once a closed-loop client holds its
// response it owns no slot, so its next request must not be refused BUSY.
func (c *conn) finish(resp response) {
	if resp.accepted {
		c.inflight.Add(-1)
	}
	c.respCh <- resp
}

// execute runs one queued request against the backend.
func (c *conn) execute(r request) {
	h := r.h
	switch h.Op {
	case wire.OpRead:
		atomic.AddUint64(&c.srv.ctr.ReadOps, 1)
		data := getBuf(h.SpanBytes())
		ri, err := c.srv.cfg.Backend.ReadRecover(h.Addr, *data)
		c.finishRead(h, data, ri, err)
	case wire.OpWrite:
		atomic.AddUint64(&c.srv.ctr.WriteOps, 1)
		err := c.srv.cfg.Backend.WriteBlocks(h.Addr, (*r.data)[:h.SpanBytes()])
		putBuf(r.data)
		c.finishWrite(h, err)
	case wire.OpFlush:
		atomic.AddUint64(&c.srv.ctr.FlushOps, 1)
		if err := c.srv.cfg.Backend.FlushAll(); err != nil {
			h.Status = wire.StatusInternal
		} else {
			h.Status = wire.StatusOK
		}
		resp := response{h: h, accepted: true}
		c.maybePin(r.h.Flags, &resp)
		c.finish(resp)
	case wire.OpHello:
		atomic.AddUint64(&c.srv.ctr.HelloOps, 1)
		doc, err := c.srv.nodeInfoJSON()
		c.finishDoc(h, doc, err)
	case wire.OpStats:
		atomic.AddUint64(&c.srv.ctr.StatsOps, 1)
		doc, err := c.srv.snapshotJSON()
		c.finishDoc(h, doc, err)
	case wire.OpRootDigest:
		atomic.AddUint64(&c.srv.ctr.RootOps, 1)
		d := c.srv.cfg.Backend.RootDigest()
		c.finishDoc(h, d[:], nil)
	}
}

// finishDoc answers a control op whose response payload is doc.
func (c *conn) finishDoc(h wire.Header, doc []byte, err error) {
	if err != nil || len(doc) > wire.MaxPayloadBytes {
		h.Status = wire.StatusInternal
		c.finish(response{h: h, accepted: true})
		return
	}
	data := getBuf(len(doc))
	copy(*data, doc)
	h.Status = wire.StatusOK
	c.finish(response{h: h, data: data, n: len(doc), accepted: true})
}

// finishRead answers one read with the backend's verdict on the span read
// into data: the recovery ladder's saves are RECOVERED, and FlagCorrected
// reports that ECC corrected a stored bit of any block.
func (c *conn) finishRead(req wire.Header, data *[]byte, ri authmem.RecoverInfo, err error) {
	resp := response{h: req, accepted: true}
	h := &resp.h
	h.Flags = 0
	if ri.RetryRecovered {
		h.Flags |= wire.FlagRetried
	}
	if ri.MetadataRepaired {
		h.Flags |= wire.FlagMetaRepaired
	}
	if ri.CorrectedDataBits > 0 || ri.CorrectedMACBits > 0 {
		h.Flags |= wire.FlagCorrected
	}
	switch {
	case err != nil:
		putBuf(data)
		c.failed(h, err)
		if ri.Quarantined && h.Status == wire.StatusMACFail {
			h.Flags |= wire.FlagQuarantinedNow
		}
	case ri.RetryRecovered || ri.MetadataRepaired:
		atomic.AddUint64(&c.srv.ctr.Recovered, 1)
		h.Status = wire.StatusRecovered
	default:
		h.Status = wire.StatusOK
	}
	if err == nil {
		atomic.AddUint64(&c.srv.ctr.BlocksRead, uint64(req.Count))
		resp.data, resp.n = data, req.SpanBytes()
	}
	c.maybePin(req.Flags, &resp)
	c.finish(resp)
}

// finishWrite answers one write with the backend's verdict.
func (c *conn) finishWrite(req wire.Header, err error) {
	resp := response{h: req, accepted: true}
	resp.h.Flags = 0
	if err == nil {
		atomic.AddUint64(&c.srv.ctr.BlocksWritten, uint64(req.Count))
		resp.h.Status = wire.StatusOK
	} else {
		c.failed(&resp.h, err)
	}
	resp.h.Count = 0
	c.maybePin(req.Flags, &resp)
	c.finish(resp)
}

// failed maps a backend error onto the wire status taxonomy in h: a
// quarantine refusal is QUARANTINED and an integrity failure MAC_FAIL, both
// at the failing block's address; anything else is INTERNAL. It runs only on
// the error path: &qe and &ie escape, and a successful op must not allocate.
func (c *conn) failed(h *wire.Header, err error) {
	h.Count = 0
	var qe *authmem.QuarantineError
	var ie *authmem.IntegrityError
	switch {
	case errors.As(err, &qe):
		atomic.AddUint64(&c.srv.ctr.Quarantined, 1)
		h.Status = wire.StatusQuarantined
		h.Addr = qe.Addr
	case errors.As(err, &ie):
		atomic.AddUint64(&c.srv.ctr.MACFails, 1)
		h.Status = wire.StatusMACFail
		h.Addr = ie.Addr
	default:
		h.Status = wire.StatusInternal
	}
}

// writeLoop serializes responses, gathering everything immediately
// available into one socket write. A transport error breaks the writer:
// remaining responses are drained and discarded so workers never block.
func (c *conn) writeLoop() {
	fw := wire.NewWriter(c.nc)
	const flushThreshold = 256 << 10
	open := true
	for open {
		resp, ok := <-c.respCh
		if !ok {
			break
		}
		c.emit(fw, resp)
		gather := true
		for gather {
			select {
			case r2, ok2 := <-c.respCh:
				if !ok2 {
					open = false
					gather = false
					break
				}
				c.emit(fw, r2)
				if fw.Buffered() >= flushThreshold {
					c.flushW(fw)
				}
			default:
				gather = false
			}
		}
		c.flushW(fw)
	}
	c.flushW(fw)
}

func (c *conn) emit(fw *wire.Writer, resp response) {
	if !c.wbroken {
		var payload []byte
		if resp.data != nil {
			payload = (*resp.data)[:resp.n]
		}
		resp.h.Version = wire.Version
		fw.WriteFrame(resp.h, payload)
	}
	putBuf(resp.data)
}

func (c *conn) flushW(fw *wire.Writer) {
	if c.wbroken {
		return
	}
	if err := fw.Flush(); err != nil {
		c.wbroken = true
		c.nc.Close() // unblock the reader; the conn is dead
	}
}

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
// when the queue deadline is enabled. recovery marks a read whose fast path
// already failed on the reader: the worker starts it at the recovery ladder.
type request struct {
	h        wire.Header
	data     *[]byte
	enq      time.Time
	recovery bool
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
					c.srv.ctr.malformedFrames.Add(1)
					c.srv.cfg.Logf("server: closing connection: %v", err)
				}
			}
			return
		}
		if verr := h.ValidateRequest(len(payload)); verr != nil {
			c.srv.ctr.badRequests.Add(1)
			c.reject(h, wire.StatusBadRequest)
			continue
		}
		if (h.Op == wire.OpRead || h.Op == wire.OpWrite) && h.End() > c.srv.size {
			c.srv.ctr.badRequests.Add(1)
			c.reject(h, wire.StatusBadRequest)
			continue
		}
		if c.draining.Load() {
			c.srv.ctr.drainRejected.Add(1)
			c.reject(h, wire.StatusShuttingDown)
			continue
		}
		inflight := c.inflight.Load()
		if int(inflight) >= c.srv.cfg.MaxInflight {
			c.srv.ctr.busyRejected.Add(1)
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
// read whose fast path fails is queued marked for recovery, and true is
// returned: the recovery ladder may wait, so it runs on a worker, and the
// failed read is not executed twice.
func (c *conn) serveInline(h wire.Header, payload []byte) bool {
	try := c.srv.try
	if try == nil {
		return false
	}
	switch h.Op {
	case wire.OpRead:
		data := getBuf(h.SpanBytes())
		done, err := try.TryReadBlocks(h.Addr, *data)
		switch {
		case !done:
			putBuf(data)
			return false
		case err != nil:
			putBuf(data)
			c.enqueue(request{h: h, recovery: true})
			return true
		}
		c.srv.ctr.inlineServed.Add(1)
		c.srv.ctr.readOps.Add(1)
		c.finishRead(h, data)
		return true
	case wire.OpWrite:
		done, err := try.TryWriteBlocks(h.Addr, payload)
		if !done {
			return false
		}
		c.srv.ctr.inlineServed.Add(1)
		c.srv.ctr.writeOps.Add(1)
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
	c.srv.ctr.deadlineRejected.Add(1)
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
	c.srv.ctr.rootPinned.Add(1)
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
		c.srv.ctr.readOps.Add(1)
		if !r.recovery {
			data := getBuf(h.SpanBytes())
			if err := c.srv.cfg.Backend.ReadBlocks(h.Addr, *data); err == nil {
				c.finishRead(h, data)
				return
			}
			putBuf(data)
		}
		c.execReadRecover(h)
	case wire.OpWrite:
		c.srv.ctr.writeOps.Add(1)
		err := c.srv.cfg.Backend.WriteBlocks(h.Addr, (*r.data)[:h.SpanBytes()])
		putBuf(r.data)
		c.finishWrite(h, err)
	case wire.OpFlush:
		c.srv.ctr.flushOps.Add(1)
		if err := c.srv.cfg.Backend.FlushAll(); err != nil {
			h.Status = wire.StatusInternal
		} else {
			h.Status = wire.StatusOK
		}
		resp := response{h: h, accepted: true}
		c.maybePin(r.h.Flags, &resp)
		c.finish(resp)
	case wire.OpHello:
		c.srv.ctr.helloOps.Add(1)
		doc, err := c.srv.nodeInfoJSON()
		c.finishDoc(h, doc, err)
	case wire.OpStats:
		c.srv.ctr.statsOps.Add(1)
		doc, err := c.srv.snapshotJSON()
		c.finishDoc(h, doc, err)
	case wire.OpRootDigest:
		c.srv.ctr.rootOps.Add(1)
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

// finishRead answers one read whose span was served whole into data.
func (c *conn) finishRead(req wire.Header, data *[]byte) {
	c.srv.ctr.blocksRead.Add(uint64(req.Count))
	h := req
	h.Status = wire.StatusOK
	h.Flags = 0
	resp := response{h: h, data: data, n: req.SpanBytes(), accepted: true}
	c.maybePin(req.Flags, &resp)
	c.finish(resp)
}

// execReadRecover serves one read span block by block through the recovery
// ladder, mapping the engine's verdict onto the wire status taxonomy.
func (c *conn) execReadRecover(req wire.Header) {
	h := req
	n := h.SpanBytes()
	data := getBuf(n)
	var flags uint8
	for off := 0; off < n; off += wire.BlockBytes {
		addr := h.Addr + uint64(off)
		ri, err := c.srv.cfg.Backend.ReadRecover(addr, (*data)[off:off+wire.BlockBytes])
		if ri.RetryRecovered {
			flags |= wire.FlagRetried
		}
		if ri.MetadataRepaired {
			flags |= wire.FlagMetaRepaired
		}
		if ri.CorrectedDataBits > 0 || ri.CorrectedMACBits > 0 {
			flags |= wire.FlagCorrected
		}
		if err != nil {
			putBuf(data)
			h.Count = 0
			h.Addr = addr
			h.Flags = flags
			var qe *authmem.QuarantineError
			var ie *authmem.IntegrityError
			switch {
			case errors.As(err, &qe):
				c.srv.ctr.quarantined.Add(1)
				h.Status = wire.StatusQuarantined
			case errors.As(err, &ie):
				c.srv.ctr.macFails.Add(1)
				h.Status = wire.StatusMACFail
				if ri.Quarantined {
					h.Flags |= wire.FlagQuarantinedNow
				}
			default:
				h.Status = wire.StatusInternal
			}
			c.finish(response{h: h, accepted: true})
			return
		}
	}
	c.srv.ctr.blocksRead.Add(uint64(n / wire.BlockBytes))
	h.Flags = flags
	if flags&(wire.FlagRetried|wire.FlagMetaRepaired) != 0 {
		c.srv.ctr.recovered.Add(1)
		h.Status = wire.StatusRecovered
	} else {
		h.Status = wire.StatusOK
	}
	resp := response{h: h, data: data, n: n, accepted: true}
	c.maybePin(req.Flags, &resp)
	c.finish(resp)
}

// finishWrite answers one write with the backend's verdict.
func (c *conn) finishWrite(req wire.Header, err error) {
	h := req
	h.Flags = 0
	if err == nil {
		c.srv.ctr.blocksWritten.Add(uint64(h.Count))
		h.Status = wire.StatusOK
	} else {
		// Declared here, not above: &ie escapes, and the OK path must not
		// allocate it.
		var ie *authmem.IntegrityError
		if errors.As(err, &ie) {
			c.srv.ctr.macFails.Add(1)
			h.Status = wire.StatusMACFail
			h.Addr = ie.Addr
		} else {
			h.Status = wire.StatusInternal
		}
	}
	h.Count = 0
	resp := response{h: h, accepted: true}
	c.maybePin(req.Flags, &resp)
	c.finish(resp)
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

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

// batchPool recycles the batch slices the dispatcher hands to executors; the
// executor returns a slice once its last response is queued.
var batchPool = sync.Pool{New: func() any { return new([]request) }}

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
		if c.srv.cfg.RequestTimeout > 0 {
			r.enq = time.Now()
		}
		// Never blocks: in-flight (≤ MaxInflight) bounds queued requests,
		// and reqCh has MaxInflight capacity.
		c.reqCh <- r
	}
}

// serveInline runs an admitted read or write to completion on the reader
// goroutine through the backend's never-waiting surface, and reports whether
// it did; false leaves the request untouched for the queue. Only the
// response's trip through respCh and the writer remains, so an inline
// request can neither reorder the connection's responses nor overtake a
// queued one: with inflight zero, every earlier response is already in
// respCh (finish queues before it decrements). A write uses the frame's
// payload in place — it is over before the next fr.Next reuses the buffer. A
// failed read also returns false: the queue re-executes it through the
// recovery ladder, so the status taxonomy has one source.
func (c *conn) serveInline(h wire.Header, payload []byte) bool {
	try := c.srv.try
	if try == nil {
		return false
	}
	switch h.Op {
	case wire.OpRead:
		data := getBuf(h.SpanBytes())
		if done, err := try.TryReadBlocks(h.Addr, *data); !done || err != nil {
			putBuf(data)
			return false
		}
		c.srv.ctr.inlineServed.Add(1)
		c.srv.ctr.readOps.Add(1)
		c.finishRead(h, data)
		return true
	case wire.OpWrite:
		if c.srv.cfg.SweepStatus {
			return false // needs the stats merges around the call; see execWrites
		}
		done, err := try.TryWriteBlocks(h.Addr, payload)
		if !done {
			return false
		}
		c.srv.ctr.inlineServed.Add(1)
		c.srv.ctr.writeOps.Add(1)
		c.finishWrite(request{h: h}, err, false)
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

// dispatchLoop pulls admitted requests, expires stale ones, coalesces runs
// of adjacent same-op spans into one batch, and fans batches out to the
// worker pool. After the request stream ends it waits for outstanding
// workers and closes the response channel, which lets the writer finish.
func (c *conn) dispatchLoop() {
	var held request // dequeued while collecting, not part of that batch
	var holding bool
	open := true
	for open || holding {
		var first request
		if holding {
			first, holding = held, false
		} else {
			r, ok := <-c.reqCh
			if !ok {
				open = false
				continue
			}
			first = r
		}
		if c.expire(&first) {
			continue
		}
		bp := batchPool.Get().(*[]request)
		batch := append((*bp)[:0], first)
		if open && (first.h.Op == wire.OpRead || first.h.Op == wire.OpWrite) {
			total := first.h.Count
		collect:
			for total < wire.MaxSpanBlocks {
				select {
				case r2, ok := <-c.reqCh:
					if !ok {
						open = false
						break collect
					}
					if c.expire(&r2) {
						continue
					}
					last := batch[len(batch)-1]
					if r2.h.Op == first.h.Op && r2.h.Addr == last.h.End() &&
						total+r2.h.Count <= wire.MaxSpanBlocks {
						batch = append(batch, r2)
						total += r2.h.Count
					} else {
						held, holding = r2, true
						break collect
					}
				default:
					break collect
				}
			}
		}
		*bp = batch
		c.dispatch(bp)
	}
	c.workerWG.Wait()
	close(c.respCh)
}

// dispatch hands a coalesced batch to an executor: the worker pinned to its
// shard when the whole span lives in one shard and that queue has room,
// else a shared-pool goroutine. Enqueueing to a pinned worker never blocks
// — a full queue falls back to the pool so one hot shard cannot stall the
// dispatcher (and with it every other shard's traffic on this connection).
func (c *conn) dispatch(batch *[]request) {
	c.workerWG.Add(1)
	if q := c.srv.shardQueueFor(*batch); q != nil {
		select {
		case q <- shardJob{c: c, batch: batch}:
			c.srv.ctr.affinityDispatched.Add(1)
			return
		default:
			c.srv.ctr.affinityBypassed.Add(1)
		}
	}
	c.srv.sem <- struct{}{}
	go func() {
		defer func() {
			<-c.srv.sem
			c.workerWG.Done()
		}()
		c.execute(batch)
	}()
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

// finish queues a response and, for admitted requests, retires it from the
// in-flight window.
func (c *conn) finish(resp response) {
	c.respCh <- resp
	if resp.accepted {
		c.inflight.Add(-1)
	}
}

// execute runs one coalesced batch against the backend and recycles its
// slice.
func (c *conn) execute(bp *[]request) {
	batch := *bp
	defer func() {
		clear(batch) // drop the payload references
		batchPool.Put(bp)
	}()
	if len(batch) > 1 {
		c.srv.ctr.coalescedBatches.Add(1)
		c.srv.ctr.coalescedRequests.Add(uint64(len(batch) - 1))
	}
	switch batch[0].h.Op {
	case wire.OpRead:
		c.execReads(batch)
	case wire.OpWrite:
		c.execWrites(batch)
	case wire.OpFlush:
		c.srv.ctr.flushOps.Add(1)
		h := batch[0].h
		if err := c.srv.cfg.Backend.FlushAll(); err != nil {
			h.Status = wire.StatusInternal
		} else {
			h.Status = wire.StatusOK
		}
		resp := response{h: h, accepted: true}
		c.maybePin(batch[0].h.Flags, &resp)
		c.finish(resp)
	case wire.OpHello:
		c.srv.ctr.helloOps.Add(1)
		h := batch[0].h
		doc, err := c.srv.nodeInfoJSON()
		if err != nil || len(doc) > wire.MaxPayloadBytes {
			h.Status = wire.StatusInternal
			c.finish(response{h: h, accepted: true})
			return
		}
		data := getBuf(len(doc))
		copy(*data, doc)
		h.Status = wire.StatusOK
		c.finish(response{h: h, data: data, n: len(doc), accepted: true})
	case wire.OpStats:
		c.srv.ctr.statsOps.Add(1)
		h := batch[0].h
		doc, err := c.srv.snapshotJSON()
		if err != nil || len(doc) > wire.MaxPayloadBytes {
			h.Status = wire.StatusInternal
			c.finish(response{h: h, accepted: true})
			return
		}
		data := getBuf(len(doc))
		copy(*data, doc)
		h.Status = wire.StatusOK
		c.finish(response{h: h, data: data, n: len(doc), accepted: true})
	case wire.OpRootDigest:
		c.srv.ctr.rootOps.Add(1)
		h := batch[0].h
		d := c.srv.cfg.Backend.RootDigest()
		data := getBuf(len(d))
		copy(*data, d[:])
		h.Status = wire.StatusOK
		c.finish(response{h: h, data: data, n: len(d), accepted: true})
	}
}

// execReads serves a batch of adjacent read spans with one ReadBlocks call,
// falling back to the per-request recovery path when the fast path fails.
func (c *conn) execReads(batch []request) {
	c.srv.ctr.readOps.Add(uint64(len(batch)))
	total := 0
	for _, r := range batch {
		total += r.h.SpanBytes()
	}
	data := getBuf(total)
	if err := c.srv.cfg.Backend.ReadBlocks(batch[0].h.Addr, *data); err != nil {
		putBuf(data)
		for i := range batch {
			c.execReadRecover(batch[i])
		}
		return
	}
	if len(batch) == 1 {
		c.finishRead(batch[0].h, data)
		return
	}
	off := 0
	for _, r := range batch {
		n := r.h.SpanBytes()
		part := getBuf(n)
		copy(*part, (*data)[off:off+n])
		off += n
		c.finishRead(r.h, part)
	}
	putBuf(data)
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
func (c *conn) execReadRecover(r request) {
	h := r.h
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
	c.maybePin(r.h.Flags, &resp)
	c.finish(resp)
}

// execWrites serves a batch of adjacent write spans with one WriteBlocks
// call, falling back per request on error to attribute the failure.
func (c *conn) execWrites(batch []request) {
	c.srv.ctr.writeOps.Add(uint64(len(batch)))
	var sweepBase uint64
	if c.srv.cfg.SweepStatus {
		sweepBase = c.srv.cfg.Backend.Stats().GroupReencrypts
	}
	var err error
	if len(batch) == 1 {
		err = c.srv.cfg.Backend.WriteBlocks(batch[0].h.Addr, (*batch[0].data)[:batch[0].h.SpanBytes()])
	} else {
		total := 0
		for _, r := range batch {
			total += r.h.SpanBytes()
		}
		data := getBuf(total)
		off := 0
		for _, r := range batch {
			off += copy((*data)[off:], (*r.data)[:r.h.SpanBytes()])
		}
		err = c.srv.cfg.Backend.WriteBlocks(batch[0].h.Addr, (*data)[:total])
		putBuf(data)
	}
	if err != nil {
		// Re-run request by request so the failure lands on the right
		// response; requests that succeed standalone report success.
		for _, r := range batch {
			werr := c.srv.cfg.Backend.WriteBlocks(r.h.Addr, (*r.data)[:r.h.SpanBytes()])
			c.finishWrite(r, werr, false)
		}
		return
	}
	swept := false
	if c.srv.cfg.SweepStatus && c.srv.cfg.Backend.Stats().GroupReencrypts > sweepBase {
		swept = true
	}
	for _, r := range batch {
		c.finishWrite(r, nil, swept)
	}
}

func (c *conn) finishWrite(r request, err error, swept bool) {
	h := r.h
	h.Flags = 0
	putBuf(r.data)
	switch {
	case err == nil && swept:
		c.srv.ctr.overflowSwept.Add(1)
		c.srv.ctr.blocksWritten.Add(uint64(h.Count))
		h.Status = wire.StatusOverflowSwept
	case err == nil:
		c.srv.ctr.blocksWritten.Add(uint64(h.Count))
		h.Status = wire.StatusOK
	default:
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
	c.maybePin(r.h.Flags, &resp)
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

package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"authmem/internal/wire"
)

// session is one live transport connection plus the completion table its
// reader goroutine serves. Reconnecting replaces the whole session, so a
// stale reader can only ever fail its own generation's calls.
type session struct {
	nc net.Conn

	mu      sync.Mutex
	pending map[uint64]*call
	err     error

	wmu  sync.Mutex
	wbuf []byte
}

// call is one request waiting for its completion. Calls are pooled with
// their completion channel and timer, so a steady-state round trip allocates
// nothing. A call is in exactly one place at a time — the pool, or a
// roundTrip that may have registered it in one session's pending table — and
// returns to the pool only once no reader can still reach it: after its
// completion was received, or after forget reported it still pending.
type call struct {
	dst   []byte
	done  chan callResult // capacity 1: whoever claims the call completes it once
	timer *time.Timer     // stopped and drained whenever the call is pooled
}

var callPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop() // cannot have fired: nothing to drain
	return &call{done: make(chan callResult, 1), timer: t}
}}

// release returns a call nobody else can reach, its timer stopped and
// drained, to the pool.
func (cl *call) release() {
	cl.dst = nil
	callPool.Put(cl)
}

// callResult is one completed call. A root pin travels by value: the
// response's suffix is copied into pin, so a pinned round trip allocates
// nothing for it.
type callResult struct {
	h      wire.Header
	body   []byte
	pin    [wire.RootPinBytes]byte
	pinned bool
	err    error
}

// poolConn is one slot of the client's connection pool: a current session
// plus the in-flight window bounding this slot's pipelining depth.
type poolConn struct {
	opts   *Options
	ctr    *Stats
	window chan struct{}

	mu   sync.Mutex
	sess *session

	nextID atomic.Uint64
}

// errTimeout marks an attempt abandoned at RequestTimeout, so the retry
// loop can account it separately from transport failures.
var errTimeout = errors.New("request timed out")

// connect (re)dials the slot's transport and starts its reader.
func (pc *poolConn) connect() error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.connectLocked()
}

func (pc *poolConn) connectLocked() error {
	if pc.window == nil {
		pc.window = make(chan struct{}, pc.opts.MaxInflight)
	}
	nc, err := pc.opts.Dial()
	if err != nil {
		return err
	}
	if pc.sess != nil && pc.ctr != nil {
		atomic.AddUint64(&pc.ctr.Reconnects, 1)
	}
	s := &session{nc: nc, pending: make(map[uint64]*call)}
	pc.sess = s
	go s.readLoop()
	return nil
}

// live returns a usable session, reconnecting if the current one broke.
func (pc *poolConn) live() (*session, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.sess != nil {
		pc.sess.mu.Lock()
		broken := pc.sess.err != nil
		pc.sess.mu.Unlock()
		if !broken {
			return pc.sess, nil
		}
	}
	if err := pc.connectLocked(); err != nil {
		return nil, err
	}
	return pc.sess, nil
}

func (pc *poolConn) close(err error) {
	pc.mu.Lock()
	s := pc.sess
	pc.mu.Unlock()
	if s != nil {
		s.fail(err)
		s.nc.Close()
	}
}

// roundTrip sends one request and waits for its completion. Read payloads
// land directly in dst; other payloads are returned as a fresh slice, and a
// root pin by value.
func (pc *poolConn) roundTrip(op wire.Op, flags uint8, addr uint64, count uint32, payload, dst []byte) (callResult, error) {
	pc.window <- struct{}{}
	defer func() { <-pc.window }()

	s, err := pc.live()
	if err != nil {
		return callResult{}, err
	}
	id := pc.nextID.Add(1)
	cl := callPool.Get().(*call)
	cl.dst = dst
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		cl.release()
		return callResult{}, err
	}
	s.pending[id] = cl
	s.mu.Unlock()

	h := wire.Header{Version: wire.Version, Op: op, Flags: flags, ID: id, Addr: addr, Count: count}
	s.wmu.Lock()
	s.wbuf = wire.AppendFrame(s.wbuf[:0], h, payload)
	_, werr := s.nc.Write(s.wbuf)
	s.wmu.Unlock()
	if werr != nil {
		if !s.forget(id) {
			<-cl.done // claimed by the reader or a concurrent fail: let it finish with cl
		}
		cl.release()
		s.fail(fmt.Errorf("client: write: %w", werr))
		s.nc.Close()
		return callResult{}, werr
	}

	cl.timer.Reset(pc.opts.RequestTimeout)
	select {
	case res := <-cl.done:
		// go.mod's go 1.22 keeps the buffered timer channel: a timer that
		// fired unobserved must be drained before the call is reused.
		if !cl.timer.Stop() {
			<-cl.timer.C
		}
		cl.release()
		return res, res.err
	case <-cl.timer.C:
		if !s.forget(id) {
			// The reader (or fail) claimed the call just as the timer
			// fired and is completing it now. Take that completion: the
			// reader may still be copying into dst, which the caller
			// must not get back before the copy is over — and the call
			// must not be pooled while the reader still holds it.
			res := <-cl.done
			cl.release()
			return res, res.err
		}
		cl.release()
		return callResult{}, fmt.Errorf("client: %v at %#x: %w", op, addr, errTimeout)
	}
}

// readLoop matches responses to pending calls by request ID, in whatever
// order the server completes them.
func (s *session) readLoop() {
	fr := wire.NewReader(s.nc)
	for {
		h, payload, err := fr.Next()
		if err != nil {
			s.fail(fmt.Errorf("client: connection lost: %w", err))
			s.nc.Close()
			return
		}
		s.mu.Lock()
		cl := s.pending[h.ID]
		delete(s.pending, h.ID)
		s.mu.Unlock()
		if cl == nil {
			continue // completion for a timed-out call
		}
		res := callResult{h: h}
		if h.Status.Success() {
			data := payload
			if h.Flags&wire.FlagRootPin != 0 {
				// The root-pin suffix rides after the data; peel it
				// off so dst sizing below sees only the data.
				if len(data) < wire.RootPinBytes {
					res.err = fmt.Errorf("client: pinned %v response is %d bytes, shorter than the pin", h.Op, len(data))
					cl.done <- res
					continue
				}
				res.pinned = true
				copy(res.pin[:], data[len(data)-wire.RootPinBytes:])
				data = data[:len(data)-wire.RootPinBytes]
			}
			switch {
			case cl.dst != nil:
				if len(data) != len(cl.dst) {
					res.err = fmt.Errorf("client: %v payload is %d bytes, want %d", h.Op, len(data), len(cl.dst))
				} else {
					copy(cl.dst, data)
				}
			case len(data) > 0:
				res.body = append([]byte(nil), data...)
			}
		}
		cl.done <- res
	}
}

// forget deregisters a call (timeout or failed send). It reports whether the
// call was still pending; false means the reader or fail already claimed it
// and will complete it.
func (s *session) forget(id uint64) bool {
	s.mu.Lock()
	_, pending := s.pending[id]
	delete(s.pending, id)
	s.mu.Unlock()
	return pending
}

// fail marks the session broken and completes every pending call with err.
func (s *session) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	} else {
		err = s.err
	}
	pending := s.pending
	s.pending = make(map[uint64]*call)
	s.mu.Unlock()
	for _, cl := range pending {
		cl.done <- callResult{err: err}
	}
}

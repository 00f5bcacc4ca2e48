// Package wire defines the authmem remote-service protocol: the versioned,
// length-prefixed binary framing shared by the network server
// (internal/server) and the public client package.
//
// Every message — request or response — is one frame:
//
//	offset  size  field
//	0       4     frame length N (little-endian; header + payload, excludes
//	              this prefix; HeaderBytes <= N <= MaxFrameBytes)
//	4       1     protocol version (Version)
//	5       1     op (OpRead..OpHello; responses echo the request op)
//	6       1     status (0/StatusOK in requests; the outcome in responses)
//	7       1     flags (response info bits: FlagRetried, FlagMetaRepaired,
//	              FlagCorrected, FlagQuarantinedNow)
//	8       8     request ID (client-chosen; responses echo it, which is
//	              what lets a connection pipeline and complete out of order)
//	16      8     block-aligned byte address (in error responses, the
//	              address of the failing block within the requested span)
//	24      4     count (blocks requested/carried; 0 for control ops)
//	28      N-24  payload
//
// Payloads: OpWrite requests and successful OpRead responses carry
// count*BlockBytes of block data; OpStats responses carry a JSON
// StatsSnapshot; OpRootDigest responses carry the 32-byte root digest;
// OpHello responses carry a JSON NodeInfo (node identity, epoch, geometry).
// Control requests (OpFlush, OpStats, OpRootDigest, OpHello) are
// header-only. A READ/WRITE/FLUSH request carrying FlagRootPin asks the
// node to append its current trusted root digest (RootPinBytes) after the
// ordinary response payload; the response echoes FlagRootPin to mark the
// suffix present.
//
// The codec is allocation-free in steady state: encoding appends into a
// caller-owned buffer and decoding aliases the Reader's reused buffer.
// Malformed input — truncated frames, bad versions, oversized lengths or
// spans — is rejected with an error before any allocation larger than
// MaxFrameBytes can happen, and never panics (see FuzzWireRoundTrip and the
// server's FuzzServerFrame).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

const (
	// Version is the protocol version this package speaks. A frame with
	// any other version is rejected; there is no negotiation.
	Version = 1

	// BlockBytes is the service's block granularity. It matches the
	// engine's 64-byte protection block (core.BlockBytes; asserted at
	// compile time in internal/server).
	BlockBytes = 64

	// LengthBytes and HeaderBytes fix the frame geometry: a 4-byte length
	// prefix followed by a 24-byte header.
	LengthBytes = 4
	HeaderBytes = 24

	// MaxSpanBlocks bounds one request's span (64KB of data). Larger
	// transfers are split into multiple pipelined requests by the client.
	MaxSpanBlocks = 1024

	// RootPinBytes is the size of a root-pin digest (SHA-256). A response
	// to a request carrying FlagRootPin appends this many bytes — the
	// serving node's current trusted root digest — after the ordinary
	// payload, and echoes FlagRootPin to mark the suffix present.
	RootPinBytes = 32

	// MaxPayloadBytes and MaxFrameBytes bound what a peer can make us
	// buffer: a frame longer than MaxFrameBytes is malformed by
	// definition and rejected before allocation. MaxFrameBytes leaves
	// room for a root-pin suffix on a maximum-span read response.
	MaxPayloadBytes = MaxSpanBlocks * BlockBytes
	MaxFrameBytes   = HeaderBytes + MaxPayloadBytes + RootPinBytes
)

// Op identifies a request kind.
type Op uint8

const (
	OpRead       Op = 1 // read count blocks at addr
	OpWrite      Op = 2 // write count blocks at addr (payload = data)
	OpFlush      Op = 3 // force deferred Merkle maintenance to land
	OpStats      Op = 4 // engine + server statistics snapshot (JSON)
	OpRootDigest Op = 5 // trusted root digest over the current state
	OpHello      Op = 6 // node identity/epoch handshake (JSON NodeInfo)
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "READ"
	case OpWrite:
		return "WRITE"
	case OpFlush:
		return "FLUSH"
	case OpStats:
		return "STATS"
	case OpRootDigest:
		return "ROOT_DIGEST"
	case OpHello:
		return "HELLO"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Status is a response outcome. It maps the engine's verdict taxonomy onto
// the wire: integrity failures and quarantine refusals surface as distinct
// codes rather than collapsing into one opaque error, and the recovery
// ladder's successes are visible too.
type Status uint8

const (
	// StatusOK: the operation completed; read payloads are verified
	// plaintext.
	StatusOK Status = 0

	// StatusMACFail: authentication/freshness verification failed — the
	// stored state is not what the engine last wrote, and recovery (if
	// any) could not salvage the access. Addr names the failing block.
	// Never retried by the client: re-reading tampered memory cannot make
	// it verify.
	StatusMACFail Status = 1

	// StatusQuarantined: the block was poisoned by an earlier exhausted
	// recovery; reads are refused until a fresh write releases it.
	StatusQuarantined Status = 2

	// StatusRecovered: the operation succeeded, but only via the recovery
	// ladder (metadata repair and/or re-read retries; see the flags).
	// Payload-carrying like StatusOK.
	StatusRecovered Status = 3

	// Status 4 is unassigned.

	// StatusBusy: admission control rejected the request — the
	// connection's in-flight window is full. Retryable after backoff.
	StatusBusy Status = 5

	// StatusDeadline: the request waited past the server's per-request
	// deadline before execution started. It was NOT executed; retryable.
	StatusDeadline Status = 6

	// StatusShuttingDown: the server is draining; the request was not
	// executed. Reconnect elsewhere — not retried on this connection.
	StatusShuttingDown Status = 7

	// StatusBadRequest: the frame parsed but the request is semantically
	// invalid (bad op, unaligned address, zero/oversized span, span past
	// the end of the region). Never retried.
	StatusBadRequest Status = 8

	// StatusInternal: the engine returned an error outside the taxonomy.
	StatusInternal Status = 9
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusMACFail:
		return "MAC_FAIL"
	case StatusQuarantined:
		return "QUARANTINED"
	case StatusRecovered:
		return "RECOVERED"
	case StatusBusy:
		return "BUSY"
	case StatusDeadline:
		return "DEADLINE"
	case StatusShuttingDown:
		return "SHUTTING_DOWN"
	case StatusBadRequest:
		return "BAD_REQUEST"
	case StatusInternal:
		return "INTERNAL"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Success reports whether the operation completed and any payload is valid.
func (s Status) Success() bool {
	return s == StatusOK || s == StatusRecovered
}

// Retryable reports whether the request is safe and sensible to retry on
// the same server: it was refused before execution for a transient reason.
// MAC_FAIL and QUARANTINED are never retryable — they are integrity
// verdicts, not transport failures.
func (s Status) Retryable() bool {
	return s == StatusBusy || s == StatusDeadline
}

// Response info flags.
const (
	// FlagRetried: a bounded re-read retry salvaged the access.
	FlagRetried = 1 << 0
	// FlagMetaRepaired: counter metadata was rebuilt from trusted state.
	FlagMetaRepaired = 1 << 1
	// FlagCorrected: ECC corrected at least one stored bit during the
	// access.
	FlagCorrected = 1 << 2
	// FlagQuarantinedNow: this very request exhausted the recovery budget
	// and quarantined the failing block (accompanies StatusMACFail).
	FlagQuarantinedNow = 1 << 3
	// FlagRootPin: in a READ/WRITE/FLUSH request, asks the node to append
	// its current trusted root digest (RootPinBytes) to the response
	// payload; in a response, marks that suffix present. The pin is the
	// node's post-operation attestation anchor — a cluster client stores
	// it per node and folds all pins into the combined cluster digest.
	// The root must cover every accepted write, so a pin flushes whatever
	// Merkle maintenance the node has deferred: nothing after a read, one
	// leaf path plus one top-level hash after a write. That is why pinning
	// is opt-in per request rather than always on.
	FlagRootPin = 1 << 4
)

// Header is the fixed 24-byte frame header (everything after the length
// prefix, before the payload).
type Header struct {
	Version uint8
	Op      Op
	Status  Status
	Flags   uint8
	ID      uint64
	Addr    uint64
	Count   uint32
}

// Codec errors. Reader.Next and ParseFrame wrap these with detail; match
// with errors.Is.
var (
	// ErrShortFrame: the declared frame length is shorter than a header.
	ErrShortFrame = errors.New("wire: frame shorter than header")
	// ErrFrameTooLarge: the declared frame length exceeds MaxFrameBytes.
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	// ErrVersion: the frame speaks a different protocol version.
	ErrVersion = errors.New("wire: unsupported protocol version")
	// ErrBadOp: the op is outside the defined range.
	ErrBadOp = errors.New("wire: unknown op")
	// ErrBadSpan: count is zero, exceeds MaxSpanBlocks, or overflows the
	// address space.
	ErrBadSpan = errors.New("wire: invalid block span")
	// ErrUnaligned: the address is not block-aligned.
	ErrUnaligned = errors.New("wire: address not block-aligned")
	// ErrBadFlags: the request carries a flag its op does not support
	// (FlagRootPin outside READ/WRITE/FLUSH).
	ErrBadFlags = errors.New("wire: unsupported request flags")
	// ErrPayloadSize: the payload length does not match the header.
	ErrPayloadSize = errors.New("wire: payload length mismatch")
	// ErrIncomplete: the buffer ends mid-frame (streaming callers should
	// read more; ParseFrame only).
	ErrIncomplete = errors.New("wire: incomplete frame")
)

// PutHeader encodes h into b[0:HeaderBytes]. b must be at least HeaderBytes
// long.
func PutHeader(b []byte, h Header) {
	_ = b[HeaderBytes-1]
	b[0] = h.Version
	b[1] = uint8(h.Op)
	b[2] = uint8(h.Status)
	b[3] = h.Flags
	binary.LittleEndian.PutUint64(b[4:], h.ID)
	binary.LittleEndian.PutUint64(b[12:], h.Addr)
	binary.LittleEndian.PutUint32(b[20:], h.Count)
}

// parseHeader decodes b[0:HeaderBytes] without validation beyond length.
func parseHeader(b []byte) Header {
	return Header{
		Version: b[0],
		Op:      Op(b[1]),
		Status:  Status(b[2]),
		Flags:   b[3],
		ID:      binary.LittleEndian.Uint64(b[4:]),
		Addr:    binary.LittleEndian.Uint64(b[12:]),
		Count:   binary.LittleEndian.Uint32(b[20:]),
	}
}

// AppendFrame appends one encoded frame (length prefix, header, payload) to
// dst and returns the extended slice. It never allocates when dst has
// capacity.
func AppendFrame(dst []byte, h Header, payload []byte) []byte {
	var scratch [LengthBytes + HeaderBytes]byte
	binary.LittleEndian.PutUint32(scratch[:], uint32(HeaderBytes+len(payload)))
	PutHeader(scratch[LengthBytes:], h)
	dst = append(dst, scratch[:]...)
	return append(dst, payload...)
}

// ParseFrame decodes one frame from the front of b. It returns the header,
// the payload (aliasing b), and the total bytes consumed. If b ends
// mid-frame it returns ErrIncomplete with n == 0; a malformed frame returns
// a non-nil error that is NOT ErrIncomplete (the stream cannot be resynced
// and should be torn down).
func ParseFrame(b []byte) (h Header, payload []byte, n int, err error) {
	if len(b) < LengthBytes {
		return Header{}, nil, 0, ErrIncomplete
	}
	frameLen := binary.LittleEndian.Uint32(b)
	if frameLen < HeaderBytes {
		return Header{}, nil, 0, fmt.Errorf("%w: %d bytes", ErrShortFrame, frameLen)
	}
	if frameLen > MaxFrameBytes {
		return Header{}, nil, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, frameLen)
	}
	total := LengthBytes + int(frameLen)
	if len(b) < total {
		return Header{}, nil, 0, ErrIncomplete
	}
	h = parseHeader(b[LengthBytes:])
	if h.Version != Version {
		return Header{}, nil, 0, fmt.Errorf("%w: %d", ErrVersion, h.Version)
	}
	return h, b[LengthBytes+HeaderBytes : total], total, nil
}

// ValidateRequest checks a decoded request header against the request
// grammar: known op, block-aligned non-overflowing span within
// MaxSpanBlocks, and a payload exactly matching the header. Responses are
// not subject to these rules (error responses have Count 0 but echo Addr).
func (h Header) ValidateRequest(payloadLen int) error {
	switch h.Op {
	case OpRead, OpWrite:
		if h.Count == 0 || h.Count > MaxSpanBlocks {
			return fmt.Errorf("%w: %d blocks", ErrBadSpan, h.Count)
		}
		if h.Addr%BlockBytes != 0 {
			return fmt.Errorf("%w: %#x", ErrUnaligned, h.Addr)
		}
		if h.Addr+uint64(h.Count)*BlockBytes < h.Addr {
			return fmt.Errorf("%w: span at %#x overflows", ErrBadSpan, h.Addr)
		}
		want := 0
		if h.Op == OpWrite {
			want = int(h.Count) * BlockBytes
		}
		if payloadLen != want {
			return fmt.Errorf("%w: have %d, want %d", ErrPayloadSize, payloadLen, want)
		}
	case OpFlush, OpStats, OpRootDigest, OpHello:
		if h.Count != 0 || payloadLen != 0 {
			return fmt.Errorf("%w: control op carries data", ErrPayloadSize)
		}
		if h.Op != OpFlush && h.Flags&FlagRootPin != 0 {
			return fmt.Errorf("%w: FlagRootPin on %v", ErrBadFlags, h.Op)
		}
	default:
		return fmt.Errorf("%w: %d", ErrBadOp, uint8(h.Op))
	}
	return nil
}

// SpanBytes returns the request's data length in bytes.
func (h Header) SpanBytes() int { return int(h.Count) * BlockBytes }

// End returns the first byte address past the request's span.
func (h Header) End() uint64 { return h.Addr + uint64(h.Count)*BlockBytes }

// Reader decodes a frame stream. The payload returned by Next aliases an
// internal buffer that is reused by the following call — copy anything that
// must outlive one iteration.
//
// Cost model: Next issues one Read into the buffer's free space whenever the
// buffered bytes do not hold a whole frame, and none when they do — so a
// frame that arrives in one piece costs one Read (one syscall on a
// net.Conn) whatever its payload, and frames that arrived together cost one
// Read between them. It reads only when it has to, so a read deadline set
// on the underlying conn still bounds exactly the waiting: frames already
// buffered when the deadline fires are delivered first, then the timeout.
type Reader struct {
	r    io.Reader
	buf  []byte // allocated on first use; holds one maximum frame
	off  int    // buf[off:end] is received and not yet returned
	end  int
	rerr error // error that came with the last bytes read, returned once they are consumed
}

// NewReader returns a Reader decoding from r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next decodes one frame, reading more only if none is buffered whole.
// io.EOF is returned only at a clean frame boundary; a stream ending
// mid-frame returns io.ErrUnexpectedEOF. Malformed framing (bad length, bad
// version) returns the error ParseFrame gives for the same bytes and leaves
// the stream unusable.
func (fr *Reader) Next() (Header, []byte, error) {
	for {
		h, payload, n, err := ParseFrame(fr.buf[fr.off:fr.end])
		if err == nil {
			fr.off += n
			return h, payload, nil
		}
		if err != ErrIncomplete {
			return Header{}, nil, err
		}
		if fr.rerr != nil {
			err, fr.rerr = fr.rerr, nil
			if err == io.EOF && fr.off < fr.end {
				err = io.ErrUnexpectedEOF
			}
			return Header{}, nil, err
		}
		// Make room: a partial frame moves to the front, where the rest
		// of even a maximum frame fits behind it.
		if fr.buf == nil {
			fr.buf = make([]byte, LengthBytes+MaxFrameBytes)
		}
		if fr.off > 0 {
			fr.end = copy(fr.buf, fr.buf[fr.off:fr.end])
			fr.off = 0
		}
		got, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += got
		fr.rerr = err
	}
}

// Buffered returns the bytes received and not yet returned by Next: zero
// means the next call has to read, i.e. the peer has sent nothing more.
func (fr *Reader) Buffered() int { return fr.end - fr.off }

// Writer encodes frames into an internal buffer and writes them out in
// batches: WriteFrame only appends; Flush performs the single underlying
// write. Interleaving appends with explicit flushes is what lets the
// server's per-connection writer goroutine gather many pipelined responses
// into one syscall. Writer is not safe for concurrent use.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter returns a Writer encoding to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteFrame appends one frame to the output buffer.
func (fw *Writer) WriteFrame(h Header, payload []byte) {
	fw.buf = AppendFrame(fw.buf, h, payload)
}

// Buffered returns the bytes appended and not yet flushed.
func (fw *Writer) Buffered() int { return len(fw.buf) }

// Flush writes the buffered frames out. The buffer's capacity is retained
// up to MaxFrameBytes so steady-state flushing does not allocate.
func (fw *Writer) Flush() error {
	if len(fw.buf) == 0 {
		return nil
	}
	_, err := fw.w.Write(fw.buf)
	if cap(fw.buf) > 4*MaxFrameBytes {
		fw.buf = nil // a giant batch happened once; don't pin it forever
	} else {
		fw.buf = fw.buf[:0]
	}
	return err
}

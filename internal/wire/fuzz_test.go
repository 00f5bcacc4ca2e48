package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzWireRoundTrip throws arbitrary bytes at both decoders (buffer and
// stream) and checks the codec's safety contract: no panics, no
// over-allocation past the frame bounds, incomplete-vs-malformed kept
// distinct, and every frame that decodes re-encodes to the identical bytes.
func FuzzWireRoundTrip(f *testing.F) {
	// Well-formed frames of every op.
	f.Add(AppendFrame(nil, Header{Version: Version, Op: OpRead, ID: 1, Addr: 64, Count: 4}, nil))
	f.Add(AppendFrame(nil, Header{Version: Version, Op: OpWrite, ID: 2, Count: 1}, make([]byte, BlockBytes)))
	f.Add(AppendFrame(nil, Header{Version: Version, Op: OpFlush, ID: 3}, nil))
	f.Add(AppendFrame(nil, Header{Version: Version, Op: OpStats, ID: 4}, nil))
	f.Add(AppendFrame(nil, Header{Version: Version, Op: OpRootDigest, ID: 5}, nil))
	f.Add(AppendFrame(nil, Header{Version: Version, Op: OpHello, ID: 30}, nil))
	// Root-pin asks: legal on READ/WRITE/FLUSH, rejected elsewhere.
	f.Add(AppendFrame(nil, Header{Version: Version, Op: OpRead, Flags: FlagRootPin, ID: 31, Addr: 64, Count: 2}, nil))
	f.Add(AppendFrame(nil, Header{Version: Version, Op: OpWrite, Flags: FlagRootPin, ID: 32, Count: 1}, make([]byte, BlockBytes)))
	f.Add(AppendFrame(nil, Header{Version: Version, Op: OpFlush, Flags: FlagRootPin, ID: 33}, nil))
	f.Add(AppendFrame(nil, Header{Version: Version, Op: OpStats, Flags: FlagRootPin, ID: 34}, nil))
	f.Add(AppendFrame(nil, Header{Version: Version, Op: OpRead, Status: StatusMACFail, Flags: FlagQuarantinedNow, ID: 6, Addr: 128}, nil))
	// Two frames back to back.
	f.Add(AppendFrame(AppendFrame(nil, Header{Version: Version, Op: OpRead, ID: 7, Count: 1}, nil),
		Header{Version: Version, Op: OpFlush, ID: 8}, nil))
	// Malformed: truncated, bad version, short length, oversized length,
	// giant count, empty.
	f.Add(AppendFrame(nil, Header{Version: Version, Op: OpRead, ID: 9, Count: 1}, nil)[:7])
	f.Add(AppendFrame(nil, Header{Version: Version + 3, Op: OpRead, ID: 10, Count: 1}, nil))
	f.Add([]byte{5, 0, 0, 0, 1, 1, 0, 0, 0})
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxFrameBytes+64))
	f.Add(AppendFrame(nil, Header{Version: Version, Op: OpWrite, ID: 11, Count: 1 << 30}, nil))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Buffer decoder: walk every frame in the input.
		rest := data
		var whole []parsed
		for {
			h, payload, n, err := ParseFrame(rest)
			if err != nil {
				if errors.Is(err, ErrIncomplete) && len(rest) > MaxFrameBytes+LengthBytes {
					t.Fatalf("ErrIncomplete with %d buffered bytes", len(rest))
				}
				break
			}
			if n <= 0 || n > len(rest) {
				t.Fatalf("consumed %d of %d", n, len(rest))
			}
			if len(payload) > MaxPayloadBytes {
				t.Fatalf("payload %d exceeds bound", len(payload))
			}
			// Re-encode: must reproduce the consumed bytes exactly.
			re := AppendFrame(nil, h, payload)
			if !bytes.Equal(re, rest[:n]) {
				t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, rest[:n])
			}
			// Request validation must never panic, whatever it decides.
			_ = h.ValidateRequest(len(payload))
			whole = append(whole, parsed{h, payload})
			rest = rest[n:]
		}
		frames := len(whole)

		// Stream decoder must agree frame for frame — with the input
		// arriving whole, and split at points the input itself chooses
		// (see chunkedReader), which is where the buffered reader's
		// partial-frame handling lives.
		for _, src := range []io.Reader{bytes.NewReader(data), &chunkedReader{data: data, sizes: data}} {
			fr := NewReader(src)
			for i := 0; ; i++ {
				h, payload, err := fr.Next()
				if err != nil {
					if i < frames {
						t.Fatalf("stream died at frame %d/%d: %v", i, frames, err)
					}
					if len(rest) == 0 && err != io.EOF {
						t.Fatalf("stream ended on a frame boundary with %v, want io.EOF", err)
					}
					if len(rest) > 0 && err == io.EOF {
						t.Fatalf("stream reported a clean EOF with %d undecodable bytes left", len(rest))
					}
					break
				}
				if i >= frames {
					// The buffer decoder stopped early only on
					// incompleteness; a stream cannot yield a frame the
					// buffer decoder did not.
					t.Fatalf("stream produced extra frame %d (%v)", i, h.Op)
				}
				if h != whole[i].h || !bytes.Equal(payload, whole[i].payload) {
					t.Fatalf("stream frame %d differs from the buffer decoder's", i)
				}
			}
		}
	})
}

// chunkedReader delivers data in pieces whose sizes come from the bytes of
// sizes, cycled: 1-64 bytes, or 64 times that when the byte's top bit is
// set. The fuzz target passes the input as its own size schedule, so
// mutating the input moves the split points. When sizes[0] is odd the last
// piece carries io.EOF with it, as a net.Conn's final read may.
type chunkedReader struct {
	data  []byte
	sizes []byte
	i     int
}

func (c *chunkedReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	b := c.sizes[c.i%len(c.sizes)]
	c.i++
	n := 1 + int(b&63)
	if b&0x80 != 0 {
		n *= 64
	}
	n = copy(p, c.data[:min(n, len(c.data))])
	c.data = c.data[n:]
	if len(c.data) == 0 && c.sizes[0]&1 == 1 {
		return n, io.EOF
	}
	return n, nil
}

package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"
)

// parsed is one frame as ParseFrame sees it, copied out of the stream.
type parsed struct {
	h       Header
	payload []byte
}

// parseAll walks b with ParseFrame — the buffer decoder the stream decoder
// must agree with — and returns the whole frames plus the bytes they cover.
func parseAll(t testing.TB, b []byte) (frames []parsed, consumed int) {
	t.Helper()
	for {
		h, p, n, err := ParseFrame(b[consumed:])
		if err != nil {
			return frames, consumed
		}
		frames = append(frames, parsed{h, append([]byte(nil), p...)})
		consumed += n
	}
}

// mixedStream is a frame stream that exercises every buffer transition in
// Reader.Next: header-only frames, one-block payloads, pinned responses,
// several maximum frames (each nearly fills the buffer, so the next frame's
// head arrives split and must be moved to the front) and long runs of small
// frames that arrive many to a read.
func mixedStream() []byte {
	rng := rand.New(rand.NewSource(15))
	var b []byte
	id := uint64(0)
	add := func(op Op, flags uint8, count uint32, n int) {
		id++
		p := make([]byte, n)
		rng.Read(p)
		b = AppendFrame(b, Header{Version: Version, Op: op, Flags: flags, ID: id, Addr: id * BlockBytes, Count: count}, p)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 40; i++ {
			add(OpWrite, 0, 0, 0)
			add(OpRead, FlagRootPin, 4, 4*BlockBytes+RootPinBytes)
			add(OpWrite, FlagRootPin, 0, RootPinBytes)
		}
		add(OpRead, FlagRootPin, MaxSpanBlocks, MaxPayloadBytes+RootPinBytes)
		add(OpRead, 0, MaxSpanBlocks, MaxPayloadBytes)
		add(OpFlush, 0, 0, 0)
		add(OpRead, 0, 1000, 1000*BlockBytes)
	}
	return b
}

// drain reads frames until an error and checks each against want.
func drain(t *testing.T, name string, fr *Reader, want []parsed) error {
	t.Helper()
	for i := 0; ; i++ {
		h, p, err := fr.Next()
		if err != nil {
			if i != len(want) {
				t.Fatalf("%s: stream ended after %d of %d frames: %v", name, i, len(want), err)
			}
			return err
		}
		if i >= len(want) {
			t.Fatalf("%s: extra frame %d (%v)", name, i, h.Op)
		}
		if h != want[i].h || !bytes.Equal(p, want[i].payload) {
			t.Fatalf("%s: frame %d differs from ParseFrame's decode", name, i)
		}
	}
}

// TestReaderMatchesParseFrameUnderAnyChunking feeds one stream through
// sources that deliver it a byte at a time, half a request at a time, with
// the final error attached to the final bytes, and all at once (many frames
// per read): the frames must be byte-identical to ParseFrame's, and the
// stream must end with a bare io.EOF.
func TestReaderMatchesParseFrameUnderAnyChunking(t *testing.T) {
	stream := mixedStream()
	want, consumed := parseAll(t, stream)
	if consumed != len(stream) || len(want) < 300 {
		t.Fatalf("fixture: %d frames over %d of %d bytes", len(want), consumed, len(stream))
	}
	sources := map[string]func() io.Reader{
		"all at once":     func() io.Reader { return bytes.NewReader(stream) },
		"one byte":        func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) },
		"half":            func() io.Reader { return iotest.HalfReader(bytes.NewReader(stream)) },
		"data with error": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(stream)) },
		"one byte, data with error": func() io.Reader {
			return iotest.DataErrReader(iotest.OneByteReader(bytes.NewReader(stream)))
		},
		"half, data with error": func() io.Reader {
			return iotest.DataErrReader(iotest.HalfReader(bytes.NewReader(stream)))
		},
	}
	for name, src := range sources {
		if err := drain(t, name, NewReader(src()), want); err != io.EOF {
			t.Errorf("%s: stream ended with %v, want bare io.EOF", name, err)
		}
	}
}

// TestReaderEOFOnlyAtFrameBoundary cuts a stream at every byte offset. The
// frames wholly before the cut decode; then the reader reports io.EOF if the
// cut fell between frames and io.ErrUnexpectedEOF if it fell inside one —
// whether the source reports its end with the last bytes or after them.
func TestReaderEOFOnlyAtFrameBoundary(t *testing.T) {
	var stream []byte
	stream = AppendFrame(stream, Header{Version: Version, Op: OpWrite, ID: 1}, nil)
	stream = AppendFrame(stream, Header{Version: Version, Op: OpRead, Flags: FlagRootPin, ID: 2, Count: 1}, make([]byte, BlockBytes+RootPinBytes))
	stream = AppendFrame(stream, Header{Version: Version, Op: OpFlush, ID: 3}, nil)
	all, _ := parseAll(t, stream)
	boundary := map[int]bool{0: true}
	for off, i := 0, 0; i < len(all); i++ {
		off += LengthBytes + HeaderBytes + len(all[i].payload)
		boundary[off] = true
	}
	for cut := 0; cut <= len(stream); cut++ {
		want, _ := parseAll(t, stream[:cut])
		wantErr := io.ErrUnexpectedEOF
		if boundary[cut] {
			wantErr = io.EOF
		}
		for name, src := range map[string]io.Reader{
			"plain":           bytes.NewReader(stream[:cut]),
			"data with error": iotest.DataErrReader(bytes.NewReader(stream[:cut])),
			"one byte":        iotest.OneByteReader(bytes.NewReader(stream[:cut])),
		} {
			if err := drain(t, name, NewReader(src), want); err != wantErr {
				t.Fatalf("cut at %d (%s): ended with %v, want %v", cut, name, err, wantErr)
			}
		}
	}
}

// TestReaderPassesTransientErrorsThrough: an error that is not the end of
// the stream — a read deadline — is returned as it is, mid-frame or not,
// and does not stick: the next call reads again and picks the frame up
// where it stopped.
func TestReaderPassesTransientErrorsThrough(t *testing.T) {
	stream := AppendFrame(nil, Header{Version: Version, Op: OpRead, ID: 9, Count: 2}, make([]byte, 2*BlockBytes))
	// OneByteReader puts the timeout (TimeoutReader's second read) after
	// the first byte: inside the length prefix.
	fr := NewReader(iotest.TimeoutReader(iotest.OneByteReader(bytes.NewReader(stream))))
	if _, _, err := fr.Next(); !errors.Is(err, iotest.ErrTimeout) {
		t.Fatalf("first call: %v, want the source's timeout", err)
	}
	want, _ := parseAll(t, stream)
	if err := drain(t, "after timeout", fr, want); err != io.EOF {
		t.Fatalf("after the frame: %v, want io.EOF", err)
	}
}

// countingReader hands out the stream in the given pieces, one per Read,
// and counts the calls.
type countingReader struct {
	pieces [][]byte
	reads  int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	if len(c.pieces) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.pieces[0])
	if n < len(c.pieces[0]) {
		c.pieces[0] = c.pieces[0][n:]
	} else {
		c.pieces = c.pieces[1:]
	}
	return n, nil
}

// TestReaderIssuesOneReadPerArrival pins the cost model: a frame that
// arrives whole costs one Read whatever its payload (the old reader paid a
// second one for the payload), frames that arrive together cost one Read
// between them, and nothing is read while a whole frame is buffered.
func TestReaderIssuesOneReadPerArrival(t *testing.T) {
	pinned := AppendFrame(nil, Header{Version: Version, Op: OpRead, Flags: FlagRootPin, ID: 1, Count: 4}, make([]byte, 4*BlockBytes+RootPinBytes))
	ack := AppendFrame(nil, Header{Version: Version, Op: OpWrite, ID: 2}, nil)

	// 100 responses, each its own arrival: 100 reads.
	src := &countingReader{}
	for i := 0; i < 50; i++ {
		src.pieces = append(src.pieces, pinned, ack)
	}
	fr := NewReader(src)
	for i := 0; i < 100; i++ {
		if _, _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
		if src.reads != i+1 {
			t.Fatalf("after %d frames that each arrived alone: %d reads", i+1, src.reads)
		}
	}

	// 100 responses in one arrival: one read, and none until they are used up.
	var burst []byte
	for i := 0; i < 50; i++ {
		burst = append(append(burst, pinned...), ack...)
	}
	src = &countingReader{pieces: [][]byte{burst}}
	fr = NewReader(src)
	for i := 0; i < 100; i++ {
		if _, _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if src.reads != 1 {
		t.Fatalf("100 frames in one arrival took %d reads, want 1", src.reads)
	}
	if _, _, err := fr.Next(); err != io.EOF || src.reads != 2 {
		t.Fatalf("end of stream: err %v after %d reads", err, src.reads)
	}
}

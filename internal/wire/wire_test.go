package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte{0xA5}, 3*BlockBytes)
	frames := []struct {
		h       Header
		payload []byte
	}{
		{Header{Version: Version, Op: OpRead, ID: 1, Addr: 0, Count: 1}, nil},
		{Header{Version: Version, Op: OpWrite, ID: 2, Addr: 64, Count: 3}, payload},
		{Header{Version: Version, Op: OpFlush, ID: 3}, nil},
		{Header{Version: Version, Op: OpStats, ID: 4}, nil},
		{Header{Version: Version, Op: OpRootDigest, ID: 1<<64 - 1, Addr: 1<<63 - 64}, nil},
		{Header{Version: Version, Op: OpRead, Status: StatusMACFail, Flags: FlagQuarantinedNow, ID: 9, Addr: 128}, nil},
	}

	var buf bytes.Buffer
	fw := NewWriter(&buf)
	for _, f := range frames {
		fw.WriteFrame(f.h, f.payload)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}

	// Stream decode.
	fr := NewReader(bytes.NewReader(buf.Bytes()))
	for i, f := range frames {
		h, p, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if h != f.h {
			t.Fatalf("frame %d: header %+v, want %+v", i, h, f.h)
		}
		if !bytes.Equal(p, f.payload) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("tail: %v, want io.EOF", err)
	}

	// Buffer decode.
	b := buf.Bytes()
	for i, f := range frames {
		h, p, n, err := ParseFrame(b)
		if err != nil {
			t.Fatalf("parse %d: %v", i, err)
		}
		if h != f.h || !bytes.Equal(p, f.payload) {
			t.Fatalf("parse %d: mismatch", i)
		}
		b = b[n:]
	}
	if len(b) != 0 {
		t.Fatalf("%d trailing bytes", len(b))
	}
}

func TestReaderRejectsMalformed(t *testing.T) {
	frame := func(mut func(b []byte)) []byte {
		b := AppendFrame(nil, Header{Version: Version, Op: OpRead, ID: 7, Count: 1}, nil)
		if mut != nil {
			mut(b)
		}
		return b
	}
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"short length", frame(func(b []byte) { binary.LittleEndian.PutUint32(b, HeaderBytes-1) }), ErrShortFrame},
		{"oversized length", frame(func(b []byte) { binary.LittleEndian.PutUint32(b, MaxFrameBytes+1) }), ErrFrameTooLarge},
		{"bad version", frame(func(b []byte) { b[LengthBytes] = Version + 1 }), ErrVersion},
		{"truncated header", frame(nil)[:10], io.ErrUnexpectedEOF},
		{"truncated payload", AppendFrame(nil, Header{Version: Version, Op: OpWrite, Count: 1}, make([]byte, BlockBytes))[:40], io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		_, _, err := NewReader(bytes.NewReader(tc.in)).Next()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
		// ParseFrame must agree, modulo incompleteness vs truncation.
		_, _, _, perr := ParseFrame(tc.in)
		if perr == nil {
			t.Errorf("%s: ParseFrame accepted", tc.name)
		}
	}
}

func TestValidateRequest(t *testing.T) {
	ok := func(h Header, n int) {
		t.Helper()
		if err := h.ValidateRequest(n); err != nil {
			t.Errorf("%s: unexpected %v", h.Op, err)
		}
	}
	bad := func(h Header, n int, want error) {
		t.Helper()
		if err := h.ValidateRequest(n); !errors.Is(err, want) {
			t.Errorf("%s: err %v, want %v", h.Op, err, want)
		}
	}
	ok(Header{Op: OpRead, Count: 1}, 0)
	ok(Header{Op: OpRead, Count: MaxSpanBlocks, Addr: 64}, 0)
	ok(Header{Op: OpWrite, Count: 2}, 2*BlockBytes)
	ok(Header{Op: OpFlush}, 0)
	ok(Header{Op: OpStats}, 0)
	ok(Header{Op: OpRootDigest}, 0)
	ok(Header{Op: OpHello}, 0)
	ok(Header{Op: OpRead, Count: 1, Flags: FlagRootPin}, 0)
	ok(Header{Op: OpWrite, Count: 1, Flags: FlagRootPin}, BlockBytes)
	ok(Header{Op: OpFlush, Flags: FlagRootPin}, 0)

	bad(Header{Op: OpHello, Count: 1}, 0, ErrPayloadSize)
	bad(Header{Op: OpHello}, 4, ErrPayloadSize)
	bad(Header{Op: OpHello, Flags: FlagRootPin}, 0, ErrBadFlags)
	bad(Header{Op: OpStats, Flags: FlagRootPin}, 0, ErrBadFlags)
	bad(Header{Op: OpRootDigest, Flags: FlagRootPin}, 0, ErrBadFlags)
	bad(Header{Op: OpRead, Count: 0}, 0, ErrBadSpan)
	bad(Header{Op: OpRead, Count: MaxSpanBlocks + 1}, 0, ErrBadSpan)
	bad(Header{Op: OpRead, Count: 1, Addr: 63}, 0, ErrUnaligned)
	bad(Header{Op: OpRead, Count: 2, Addr: ^uint64(63)}, 0, ErrBadSpan)
	bad(Header{Op: OpRead, Count: 1}, BlockBytes, ErrPayloadSize)
	bad(Header{Op: OpWrite, Count: 2}, BlockBytes, ErrPayloadSize)
	bad(Header{Op: OpFlush, Count: 1}, 0, ErrPayloadSize)
	bad(Header{Op: OpFlush}, 4, ErrPayloadSize)
	bad(Header{Op: Op(0)}, 0, ErrBadOp)
	bad(Header{Op: Op(200)}, 0, ErrBadOp)
}

// TestRootPinnedFrameRoundTrip pins the frame geometry of the cluster
// extensions: a maximum-span read response with a root-pin suffix must fit
// inside MaxFrameBytes, and both decoders must hand the suffix back intact.
func TestRootPinnedFrameRoundTrip(t *testing.T) {
	payload := make([]byte, MaxPayloadBytes+RootPinBytes)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	h := Header{Version: Version, Op: OpRead, Status: StatusOK, Flags: FlagRootPin,
		ID: 42, Count: MaxSpanBlocks}
	b := AppendFrame(nil, h, payload)

	gh, gp, n, err := ParseFrame(b)
	if err != nil {
		t.Fatalf("ParseFrame: %v", err)
	}
	if n != len(b) || gh != h || !bytes.Equal(gp, payload) {
		t.Fatal("ParseFrame mismatch on pinned max-span frame")
	}
	rh, rp, err := NewReader(bytes.NewReader(b)).Next()
	if err != nil {
		t.Fatalf("Reader.Next: %v", err)
	}
	if rh != h || !bytes.Equal(rp, payload) {
		t.Fatal("Reader mismatch on pinned max-span frame")
	}

	// Hello round trip: header-only request, JSON-ish response payload.
	hello := AppendFrame(nil, Header{Version: Version, Op: OpHello, ID: 7}, nil)
	hh, hp, _, err := ParseFrame(hello)
	if err != nil || hh.Op != OpHello || len(hp) != 0 {
		t.Fatalf("hello frame: h=%+v payload=%d err=%v", hh, len(hp), err)
	}
}

func TestStatusTaxonomy(t *testing.T) {
	for _, s := range []Status{StatusOK, StatusRecovered} {
		if !s.Success() {
			t.Errorf("%v should be success", s)
		}
		if s.Retryable() {
			t.Errorf("%v should not be retryable", s)
		}
	}
	for _, s := range []Status{StatusBusy, StatusDeadline} {
		if !s.Retryable() || s.Success() {
			t.Errorf("%v should be retryable failure", s)
		}
	}
	for _, s := range []Status{StatusMACFail, StatusQuarantined, StatusBadRequest, StatusShuttingDown, StatusInternal} {
		if s.Retryable() || s.Success() {
			t.Errorf("%v must be a terminal failure", s)
		}
	}
}

func TestWriterZeroAllocSteadyState(t *testing.T) {
	fw := NewWriter(io.Discard)
	payload := make([]byte, BlockBytes)
	h := Header{Version: Version, Op: OpWrite, Count: 1}
	// Warm the buffer.
	fw.WriteFrame(h, payload)
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		fw.WriteFrame(h, payload)
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("writer allocates %.1f/op in steady state", allocs)
	}
}

func TestReaderZeroAllocSteadyState(t *testing.T) {
	var buf bytes.Buffer
	fw := NewWriter(&buf)
	h := Header{Version: Version, Op: OpWrite, Count: MaxSpanBlocks}
	payload := make([]byte, MaxPayloadBytes)
	for i := 0; i < 102; i++ { // 1 warm + AllocsPerRun's warm-up + 100 runs
		fw.WriteFrame(h, payload)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := NewReader(bytes.NewReader(buf.Bytes()))
	if _, _, err := fr.Next(); err != nil { // warm the payload buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("reader allocates %.1f/op in steady state", allocs)
	}
}

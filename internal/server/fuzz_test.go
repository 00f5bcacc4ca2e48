package server_test

import (
	"bytes"
	"io"
	"testing"
	"time"

	"authmem/internal/server"
	"authmem/internal/wire"
)

// FuzzServerFrame feeds arbitrary byte streams to a live server connection.
// The invariants: the server never panics, answers exactly one well-formed
// response per decodable frame, and hangs up (rather than guessing) on
// malformed framing. The seed corpus in testdata covers every op plus the
// classic framing attacks (truncation, oversized lengths, giant spans, bad
// versions).
func FuzzServerFrame(f *testing.F) {
	mem := newMem(f, 1<<20)
	srv, err := server.New(server.Config{Backend: mem, RequestTimeout: -1})
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()

	f.Fuzz(func(t *testing.T, in []byte) {
		// Predict the server reader's view of the stream: it answers every
		// frame wire.Reader yields and tears down at the first decode error.
		expected := 0
		clean := true
		pred := wire.NewReader(bytes.NewReader(in))
		for {
			_, _, err := pred.Next()
			if err != nil {
				clean = err == io.EOF
				break
			}
			expected++
			if expected >= 256 {
				break // cap the work per input
			}
		}

		nc, err := srv.DialLoopback()
		if err != nil {
			t.Skip("server draining")
		}
		defer nc.Close()

		// Writer side: net.Pipe is unbuffered, so pump the input from its
		// own goroutine while the main goroutine consumes responses.
		writeDone := make(chan struct{})
		go func() {
			defer close(writeDone)
			nc.SetWriteDeadline(time.Now().Add(2 * time.Second))
			nc.Write(in) // best effort: the server may hang up mid-stream
		}()

		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		fr := wire.NewReader(nc)
		got := 0
		for got < expected {
			h, payload, err := fr.Next()
			if err != nil {
				// The connection may die early only because the server hung
				// up on a malformed tail (or the 256-frame cap truncated our
				// prediction); a clean bounded input must get every answer.
				if clean && expected < 256 {
					t.Fatalf("got %d responses, want %d: %v", got, expected, err)
				}
				break
			}
			got++
			if h.Version != wire.Version {
				t.Fatalf("response version %d", h.Version)
			}
			if h.Status == wire.StatusOK && h.Op == wire.OpRead {
				want := h.SpanBytes()
				if h.Flags&wire.FlagRootPin != 0 {
					want += wire.RootPinBytes
				}
				if len(payload) != want {
					t.Fatalf("read response: %d payload bytes for %d blocks (flags %#x)", len(payload), h.Count, h.Flags)
				}
			}
			// A pinned maximum-span read legally carries its pin after a
			// full payload (wire.MaxFrameBytes leaves that room).
			limit := wire.MaxPayloadBytes
			if h.Flags&wire.FlagRootPin != 0 {
				limit += wire.RootPinBytes
			}
			if len(payload) > limit {
				t.Fatalf("oversized response payload: %d bytes (flags %#x)", len(payload), h.Flags)
			}
		}
		nc.Close()
		<-writeDone
	})
}

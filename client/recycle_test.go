package client_test

import (
	"bytes"
	"math/rand"
	"net"
	"testing"
	"time"

	"authmem/client"
	"authmem/internal/wire"
)

// lateServer answers every read on nc with one block filled with the low
// byte of the request ID, after whatever delay decides for that request.
// Responses go out in request order.
func lateServer(nc net.Conn, delay func(id uint64) time.Duration) {
	fr := wire.NewReader(nc)
	for {
		h, _, err := fr.Next()
		if err != nil {
			return
		}
		time.Sleep(delay(h.ID))
		h.Status = wire.StatusOK
		if _, err := nc.Write(wire.AppendFrame(nil, h, bytes.Repeat([]byte{byte(h.ID)}, wire.BlockBytes))); err != nil {
			return
		}
	}
}

// TestTimedOutCallIsNotRecycledEarly: calls are pooled, so a call that timed
// out is handed to a later request — while its own response may still be on
// the way. That response must find nothing to complete: it may neither
// finish the later call nor write into either call's destination. Requests
// get IDs 1, 2, 3, ... in order, and a response carries its ID in every
// byte, so a destination shows whose response landed in it. Run under -race,
// which also sees a reader still copying into a destination after its call
// returned.
func TestTimedOutCallIsNotRecycledEarly(t *testing.T) {
	const timeout = 20 * time.Millisecond
	dial := func(delay func(id uint64) time.Duration) *client.Client {
		cs, ss := net.Pipe()
		go lateServer(ss, delay)
		c, err := client.New(client.Options{
			Dial:           func() (net.Conn, error) { return cs, nil },
			RequestTimeout: timeout,
			MaxRetries:     -1, // one attempt: a timeout surfaces as an error
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close(); ss.Close() })
		return c
	}

	t.Run("late response", func(t *testing.T) {
		// Request 1 is answered only after its call timed out and request 2,
		// drawing from the same pool, is already waiting.
		c := dial(func(id uint64) time.Duration {
			if id == 1 {
				return 3 * timeout
			}
			return 0
		})
		first, second := make([]byte, wire.BlockBytes), make([]byte, wire.BlockBytes)
		if _, err := c.Read(0, first); err == nil {
			t.Fatal("request 1 did not time out")
		}
		if _, err := c.Read(4096, second); err != nil {
			t.Fatalf("request 2: %v", err)
		}
		if !bytes.Equal(second, bytes.Repeat([]byte{2}, wire.BlockBytes)) {
			t.Fatalf("request 2 completed with bytes %#x..., want its own response's 0x02", second[0])
		}
		if !bytes.Equal(first, make([]byte, wire.BlockBytes)) {
			t.Fatalf("request 1's late response was copied into its destination after the call returned")
		}
	})

	t.Run("response racing the timer", func(t *testing.T) {
		// Delays straddle the timeout, so the reader and the timer race for
		// the call: whoever wins, a call that reports success holds its own
		// response and a call that timed out holds nothing.
		rng := rand.New(rand.NewSource(5))
		delays := make([]time.Duration, 64)
		for i := range delays {
			delays[i] = timeout - 2*time.Millisecond + time.Duration(rng.Intn(4000))*time.Microsecond
		}
		c := dial(func(id uint64) time.Duration { return delays[(id-1)%uint64(len(delays))] })
		timedOut := 0
		for id := 1; id <= 40; id++ {
			dst := make([]byte, wire.BlockBytes)
			_, err := c.Read(0, dst)
			want := make([]byte, wire.BlockBytes)
			if err != nil {
				timedOut++
			} else {
				want = bytes.Repeat([]byte{byte(id)}, wire.BlockBytes)
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("request %d (err %v) holds bytes %#x..., want %#x", id, err, dst[0], want[0])
			}
		}
		t.Logf("%d of 40 calls timed out", timedOut)
	})
}

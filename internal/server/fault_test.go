package server_test

import (
	"bytes"
	"errors"
	"testing"

	"authmem"
	"authmem/adversary"
	"authmem/client"
	"authmem/internal/server"
	"authmem/internal/wire"
)

// flipAt flips one bit of the plane-p element holding the block at addr,
// through the off-chip attack surface.
func flipAt(m *authmem.Memory, p adversary.Plane, addr uint64, bit int) error {
	phys, err := adversary.LocateAddr(m, p, addr)
	if err != nil {
		return err
	}
	return adversary.FlipBit(m, phys, bit)
}

func newShardedMem(t testing.TB, size uint64, shards int, scheme authmem.CounterScheme) *authmem.Memory {
	t.Helper()
	cfg := authmem.DefaultConfig(size)
	cfg.Key = testKey()
	cfg.Scheme = scheme
	m, err := authmem.NewSharded(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func loopbackClient(t testing.TB, s *server.Server, opts client.Options) *client.Client {
	t.Helper()
	opts.Dial = s.DialLoopback
	c, err := client.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// engineVerdictStatus maps a direct ReadRecover outcome onto the wire status
// the server must report for the same state — the oracle for the
// taxonomy-fidelity assertions below.
func engineVerdictStatus(ri authmem.RecoverInfo, err error) wire.Status {
	if err != nil {
		var qe *authmem.QuarantineError
		var ie *authmem.IntegrityError
		switch {
		case errors.As(err, &qe):
			return wire.StatusQuarantined
		case errors.As(err, &ie):
			return wire.StatusMACFail
		default:
			return wire.StatusInternal
		}
	}
	if ri.RetryRecovered || ri.MetadataRepaired {
		return wire.StatusRecovered
	}
	return wire.StatusOK
}

func clientReadStatus(t *testing.T, c *client.Client, addr uint64, dst []byte) wire.Status {
	t.Helper()
	info, err := c.Read(addr, dst)
	if err == nil {
		return info.Status
	}
	var se *client.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("read at %#x: non-status error %v", addr, err)
	}
	return se.Status
}

// TestFaultTaxonomyOverWire tampers blocks through the engine's fault APIs
// and checks that every verdict the engine would give locally arrives
// verbatim as the documented wire status through the full client/server
// stack. A twin region receives the identical workload and tampering and is
// read directly — it is the oracle for what the engine verdict is.
func TestFaultTaxonomyOverWire(t *testing.T) {
	const size = 1 << 20
	mem := newShardedMem(t, size, 4, authmem.DeltaEncoding)
	twin := newShardedMem(t, size, 4, authmem.DeltaEncoding)

	s := newTestServer(t, server.Config{Backend: mem})
	c := loopbackClient(t, s, client.Options{MaxRetries: 1})

	// Identical workload on both regions.
	shadow := map[uint64][]byte{}
	for i := 0; i < 16; i++ {
		addr := uint64(i) * 4096
		data := pattern(byte(0x40+i), wire.BlockBytes)
		if _, err := c.Write(addr, data); err != nil {
			t.Fatalf("write %#x: %v", addr, err)
		}
		if err := twin.Write(addr, data); err != nil {
			t.Fatal(err)
		}
		shadow[addr] = data
	}

	tampers := []struct {
		name string
		flip func(m *authmem.Memory, addr uint64) error
	}{
		{"data bit", func(m *authmem.Memory, addr uint64) error { return flipAt(m, adversary.Data, addr, 7) }},
		{"ecc bit", func(m *authmem.Memory, addr uint64) error { return flipAt(m, adversary.Lane, addr, 3) }},
		{"data burst", func(m *authmem.Memory, addr uint64) error {
			// Three flips exceed the 2-bit flip-and-check budget: uncorrectable.
			for _, bit := range []int{11, 97, 203} {
				if err := flipAt(m, adversary.Data, addr, bit); err != nil {
					return err
				}
			}
			return nil
		}},
		{"counter bit", func(m *authmem.Memory, addr uint64) error { return flipAt(m, adversary.Counter, addr, 2) }},
	}
	for i, tc := range tampers {
		addr := uint64(i) * 4096
		if err := tc.flip(mem, addr); err != nil {
			t.Fatalf("%s: tamper served region: %v", tc.name, err)
		}
		if err := tc.flip(twin, addr); err != nil {
			t.Fatalf("%s: tamper twin: %v", tc.name, err)
		}

		// The engine verdict, straight from the twin.
		buf := make([]byte, wire.BlockBytes)
		want := engineVerdictStatus(twin.ReadRecover(addr, buf))

		dst := make([]byte, wire.BlockBytes)
		got := clientReadStatus(t, c, addr, dst)
		if got != want {
			t.Fatalf("%s at %#x: wire status %v, engine verdict %v", tc.name, addr, got, want)
		}
		// Zero silent escapes: any successful read must return the true data.
		if got.Success() && !bytes.Equal(dst, shadow[addr]) {
			t.Fatalf("%s at %#x: status %v but wrong bytes (silent escape)", tc.name, addr, got)
		}

		// Second read: quarantined blocks must now answer QUARANTINED; the
		// twin again says which.
		want2 := engineVerdictStatus(twin.ReadRecover(addr, buf))
		got2 := clientReadStatus(t, c, addr, dst)
		if got2 != want2 {
			t.Fatalf("%s at %#x: second read wire status %v, engine verdict %v", tc.name, addr, got2, want2)
		}

		// A fresh write releases quarantine on both sides; the block must
		// then read clean over the wire.
		fresh := pattern(byte(0xC0+i), wire.BlockBytes)
		if _, err := c.Write(addr, fresh); err != nil {
			t.Fatalf("%s at %#x: rewrite: %v", tc.name, addr, err)
		}
		if err := twin.Write(addr, fresh); err != nil {
			t.Fatal(err)
		}
		shadow[addr] = fresh
		info, err := c.Read(addr, dst)
		if err != nil || !bytes.Equal(dst, fresh) {
			t.Fatalf("%s at %#x: read after rewrite: %v (status %v)", tc.name, addr, err, info.Status)
		}
	}

	// Untampered addresses stayed clean throughout.
	for addr, want := range shadow {
		dst := make([]byte, wire.BlockBytes)
		if _, err := c.Read(addr, dst); err != nil {
			t.Fatalf("clean block %#x: %v", addr, err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("clean block %#x returned wrong bytes", addr)
		}
	}

	// The server's ledger must account for every integrity event it reported.
	snap := s.Snapshot()
	if snap.Server.MACFails == 0 && snap.Server.Recovered == 0 && snap.Server.Quarantined == 0 {
		t.Fatal("no integrity events in the server ledger despite tampering")
	}
}

// TestQuarantineLifecycleOverWire pins the full MAC_FAIL → QUARANTINED →
// OK-after-rewrite ladder for a plain data flip, with the quarantined-now
// flag on the first failure.
func TestQuarantineLifecycleOverWire(t *testing.T) {
	mem := newShardedMem(t, 1<<20, 2, authmem.DeltaEncoding)
	s := newTestServer(t, server.Config{Backend: mem})
	c := loopbackClient(t, s, client.Options{})

	const addr = 64 * 1024
	data := pattern(0x77, wire.BlockBytes)
	if _, err := c.Write(addr, data); err != nil {
		t.Fatal(err)
	}
	// One flip would be absorbed by MAC-in-ECC flip-and-check correction;
	// three exceed the budget and must fail authentication.
	for _, bit := range []int{0, 9, 130} {
		if err := flipAt(mem, adversary.Data, addr, bit); err != nil {
			t.Fatal(err)
		}
	}

	dst := make([]byte, wire.BlockBytes)
	_, err := c.Read(addr, dst)
	var se *client.StatusError
	if !errors.As(err, &se) || se.Status != wire.StatusMACFail {
		t.Fatalf("first read after tamper: %v, want MAC_FAIL", err)
	}
	if se.Addr != addr {
		t.Fatalf("MAC_FAIL at %#x, want %#x", se.Addr, uint64(addr))
	}
	if !mem.Quarantined(addr) {
		t.Fatal("engine did not quarantine after exhausting recovery")
	}

	if _, err = c.Read(addr, dst); !errors.As(err, &se) || se.Status != wire.StatusQuarantined {
		t.Fatalf("second read: %v, want QUARANTINED", err)
	}

	if _, err := c.Write(addr, data); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if _, err := c.Read(addr, dst); err != nil {
		t.Fatalf("read after rewrite: %v", err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("read after rewrite returned wrong bytes")
	}

	snap := s.Snapshot()
	if snap.Server.MACFails < 1 || snap.Server.Quarantined < 1 {
		t.Fatalf("ledger: macfails=%d quarantined=%d", snap.Server.MACFails, snap.Server.Quarantined)
	}
}

// TestCorrectedFlagOverWire: a read during which ECC corrected a stored bit
// says so with FlagCorrected, on both serving paths. One adversary.Data flip
// lands in a span's third block and the span is read back served inline (a
// Memory on an idle connection) and queued (the gated backend hides the Try
// surface): StatusOK, the true bytes, exactly FlagCorrected, and the
// engine's CorrectedDataBits at 1. A second flip, read through the client,
// must surface in client.Info.Flags.
func TestCorrectedFlagOverWire(t *testing.T) {
	for _, queued := range []bool{false, true} {
		name := map[bool]string{false: "inline", true: "queued"}[queued]
		t.Run(name, func(t *testing.T) {
			mem := newShardedMem(t, 1<<20, 4, authmem.DeltaEncoding)
			var backend server.Backend = mem
			if queued {
				g := newGated(mem)
				close(g.gate) // nothing parks: the wrapper only hides the Try surface
				backend = g
			}
			s := newTestServer(t, server.Config{Backend: backend, RequestTimeout: -1})
			rc := dialRaw(t, s)

			const addr = 2 * 4096
			data := pattern(0x3C, 4*wire.BlockBytes)
			wid := rc.send(wire.OpWrite, addr, 4, data)
			if h, _ := rc.recv(); h.ID != wid || h.Status != wire.StatusOK {
				t.Fatalf("write: %+v", h)
			}
			if err := flipAt(mem, adversary.Data, addr+2*wire.BlockBytes, 5); err != nil {
				t.Fatal(err)
			}
			id := rc.send(wire.OpRead, addr, 4, nil)
			h, payload := rc.recv()
			if h.ID != id || h.Status != wire.StatusOK || h.Flags != wire.FlagCorrected {
				t.Fatalf("read over a corrected bit: status %v flags %#x, want %v flags %#x",
					h.Status, h.Flags, wire.StatusOK, wire.FlagCorrected)
			}
			if !bytes.Equal(payload, data) {
				t.Fatal("read over a corrected bit returned wrong bytes")
			}
			snap := s.Snapshot()
			if snap.Engine.CorrectedDataBits != 1 {
				t.Fatalf("engine corrected %d data bits, want 1", snap.Engine.CorrectedDataBits)
			}
			if inline := snap.Server.InlineServed; (inline == 0) != queued {
				t.Fatalf("inline_served = %d on the %s path", inline, name)
			}

			if err := flipAt(mem, adversary.Data, addr, 9); err != nil {
				t.Fatal(err)
			}
			c := loopbackClient(t, s, client.Options{})
			dst := make([]byte, wire.BlockBytes)
			info, err := c.Read(addr, dst)
			if err != nil || info.Status != wire.StatusOK || info.Flags&wire.FlagCorrected == 0 {
				t.Fatalf("client read over a corrected bit: %+v, %v; want StatusOK with FlagCorrected", info, err)
			}
			if !bytes.Equal(dst, data[:wire.BlockBytes]) {
				t.Fatal("client read over a corrected bit returned wrong bytes")
			}
		})
	}
}

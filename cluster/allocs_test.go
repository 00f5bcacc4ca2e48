package cluster_test

import (
	"bytes"
	"testing"

	"authmem/internal/wire"
)

// TestQuorumAllocs bounds what an R=2 quorum op allocates on a loopback
// cluster — both node clients and both servers included, since AllocsPerRun
// counts the whole process. A round trip allocates nothing (the client's
// TestPinnedRoundTripAllocs), so what is left is the quorum's own: the one
// object an op shares with its extra-voter goroutine, and that goroutine's
// closure. The replica tables are fixed arrays, the second voter's buffer is
// pooled and the owner set is read in place.
func TestQuorumAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled buffers are dropped at random under -race")
	}
	_, c := startCluster(t, "a", "b", "c")
	data := fill(0x3C, 4*wire.BlockBytes)
	dst := make([]byte, len(data))
	const addr = 5 * tStripeB * wire.BlockBytes
	if _, err := c.Write(addr, data); err != nil {
		t.Fatal(err)
	}
	read := testing.AllocsPerRun(200, func() {
		if _, err := c.Read(addr, dst); err != nil {
			t.Fatal(err)
		}
	})
	write := testing.AllocsPerRun(200, func() {
		if _, err := c.Write(addr, data); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(dst, data) {
		t.Fatal("quorum read returned wrong bytes")
	}
	if read > 4 || write > 4 {
		t.Errorf("R=2 quorum op allocates %.1f (read) / %.1f (write), want at most 4", read, write)
	}
	t.Logf("allocs per op: read %.1f, write %.1f", read, write)
}

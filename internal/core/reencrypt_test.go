package core

import (
	"bytes"
	"sync"
	"testing"

	"authmem/internal/ctr"
)

// TestReencryptSweepBanksCorrections plants one correctable flip in a group
// member, then forces a sweep over its group: the sweep's verify repairs the
// block before resealing it and banks exactly that one corrected bit — as
// CorrectedDataBits under MAC-in-ECC, SECDEDCorrected under the inline codec —
// and the block then reads back clean.
func TestReencryptSweepBanksCorrections(t *testing.T) {
	for _, scheme := range []ctr.Kind{ctr.Split, ctr.Delta, ctr.DualLength} {
		for _, placement := range []MACPlacement{MACInline, MACInECC} {
			t.Run(scheme.String()+"/"+placement.String(), func(t *testing.T) {
				e := newEngine(t, smallCfg(scheme, placement))
				victim := uint64(5) * BlockBytes // same group as block 0
				want := block(11)
				if err := e.Write(victim, want); err != nil {
					t.Fatal(err)
				}
				if err := flipAt(e.off, PlaneData, victim, 3); err != nil {
					t.Fatal(err)
				}
				before := e.Stats()
				hot := block(12)
				for i := 0; i < 200_000 && e.Stats().GroupReencrypts == before.GroupReencrypts; i++ {
					if err := e.Write(0, hot); err != nil {
						t.Fatal(err)
					}
				}
				after := e.Stats()
				if after.GroupReencrypts != before.GroupReencrypts+1 {
					t.Fatalf("sweeps %d -> %d, want exactly one", before.GroupReencrypts, after.GroupReencrypts)
				}
				data := after.CorrectedDataBits - before.CorrectedDataBits
				secded := after.SECDEDCorrected - before.SECDEDCorrected
				if placement == MACInECC && (data != 1 || secded != 0) {
					t.Fatalf("CorrectedDataBits +%d, SECDEDCorrected +%d; want +1, +0", data, secded)
				}
				if placement == MACInline && (data != 0 || secded != 1) {
					t.Fatalf("CorrectedDataBits +%d, SECDEDCorrected +%d; want +0, +1", data, secded)
				}
				goCold(e)
				dst := make([]byte, BlockBytes)
				info, err := e.Read(victim, dst)
				if err != nil {
					t.Fatal(err)
				}
				if info.CorrectedDataBits != 0 || info.CorrectedMACBits != 0 || !bytes.Equal(dst, want) {
					t.Fatalf("swept block reads back %+v / equal=%v, want clean", info, bytes.Equal(dst, want))
				}
			})
		}
	}
}

// TestReencryptMidSpanWrite covers the in-flight-write interaction:
// a WriteBlocks span whose counter touches overflow mid-chunk must leave the
// pending blocks to the incoming data, not the sweep.
func TestReencryptMidSpanWrite(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	e := newEngine(t, cfg)
	// Drive the group's counters near overflow with single writes, then
	// land a span over the whole group so the overflow fires mid-span.
	for i := 0; i < 1500; i++ {
		if err := e.Write(0, block(1)); err != nil {
			t.Fatal(err)
		}
	}
	span := make([]byte, ctr.GroupBlocks*BlockBytes)
	for i := range span {
		span[i] = byte(i * 31)
	}
	if err := e.WriteBlocks(0, span); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(span))
	if err := e.ReadBlocks(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, span) {
		t.Fatal("span data corrupted across a mid-span sweep")
	}
}

// TestConcurrentShardedReencrypt hammers every shard from its own goroutine
// so overflow sweeps run under the race detector against concurrent traffic
// in other shards.
func TestConcurrentShardedReencrypt(t *testing.T) {
	cfg := smallCfg(ctr.Split, MACInECC) // split overflows fastest
	s, err := NewShardedEngine(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	shardBytes := s.ShardBytes()
	var wg sync.WaitGroup
	errs := make([]error, s.Shards())
	for i := 0; i < s.Shards(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			base := uint64(i) * shardBytes
			d := block(int64(i))
			for j := uint64(1); j < 30; j++ {
				if err := s.Write(base+j*BlockBytes, block(int64(i)*100+int64(j))); err != nil {
					errs[i] = err
					return
				}
			}
			for k := 0; k < 400; k++ {
				if err := s.Write(base, d); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d worker: %v", i, err)
		}
	}
	if s.Stats().GroupReencrypts == 0 {
		t.Fatal("no sweeps under concurrent traffic")
	}
	dst := make([]byte, BlockBytes)
	for i := 0; i < s.Shards(); i++ {
		base := uint64(i) * shardBytes
		for j := uint64(1); j < 30; j++ {
			if _, err := s.Read(base+j*BlockBytes, dst); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst, block(int64(i)*100+int64(j))) {
				t.Fatalf("shard %d block %d corrupted by concurrent sweeps", i, j)
			}
		}
	}
}

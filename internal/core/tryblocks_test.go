package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"authmem/internal/ctr"
)

// persistBytes is the engine's whole stored state: ciphertext, ECC/MAC
// lanes, counter images and tree.
func persistBytes(t *testing.T, s *ShardedEngine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.Persist(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTryBlocksRefusalChangesNothing holds a shard's lock and checks that
// both Try calls refuse a span that needs it and leave the stored bits, the
// statistics and the dirty set exactly as they were, while a span in another
// shard and a fully warm span in the locked shard are served.
func TestTryBlocksRefusalChangesNothing(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := newSharded(t, smallCfg(ctr.Delta, MACInECC), shards)
			s.EnableDeltaTracking()
			span := make([]byte, 4*BlockBytes)
			rand.New(rand.NewSource(3)).Read(span)
			last := uint64(shards-1) * s.ShardBytes() // a span in the last shard
			for _, addr := range []uint64{0, 8192, last + 4096} {
				if err := s.WriteBlocks(addr, span); err != nil {
					t.Fatal(err)
				}
			}
			// Cold from 8192 on in shard 0; [0, 4 blocks) stays warm.
			s.WithShard(0, func(e *Engine) { e.bc.evict(8192 / BlockBytes) })
			image := persistBytes(t, s)
			stats, dirty := s.Stats(), s.DirtyGroups()

			dst := make([]byte, len(span))
			s.shards[0].mu.Lock()
			rdone, _, rerr := s.TryReadRecover(8192, dst)
			wdone, werr := s.TryWriteBlocks(8192, dst)
			warmDone, _, warmErr := s.TryReadRecover(0, dst)
			s.shards[0].mu.Unlock()

			if rdone || wdone || rerr != nil || werr != nil {
				t.Fatalf("with the shard lock held: read (%v, %v) write (%v, %v), want (false, nil) twice", rdone, rerr, wdone, werr)
			}
			if !warmDone || warmErr != nil || !bytes.Equal(dst, span) {
				t.Fatalf("warm span under a held lock: (%v, %v), want served lock-free", warmDone, warmErr)
			}
			want := stats
			want.Reads += 4 // the warm span, and nothing else
			want.LockFreeHits += 4
			want.DataCacheHits += 4
			if got := s.Stats(); got != want {
				t.Errorf("refused calls counted something:\n got %+v\nwant %+v", got, want)
			}
			if got := s.DirtyGroups(); got != dirty {
				t.Errorf("dirty groups %d -> %d across refused calls", dirty, got)
			}
			if !bytes.Equal(persistBytes(t, s), image) {
				t.Error("stored state changed across refused calls")
			}
			if shards > 1 {
				// Another shard's lock is free: served while shard 0's is held.
				s.shards[0].mu.Lock()
				done, err := s.TryWriteBlocks(last, span)
				s.shards[0].mu.Unlock()
				if !done || err != nil {
					t.Fatalf("write to a free shard: (%v, %v)", done, err)
				}
			}
		})
	}
}

// TestTryBlocksCrossShardSpanRefused: a span that needs more than one shard
// needs the fan-out, which waits.
func TestTryBlocksCrossShardSpanRefused(t *testing.T) {
	s := newSharded(t, smallCfg(ctr.Delta, MACInECC), 4)
	straddle := s.ShardBytes() - BlockBytes
	buf := make([]byte, 2*BlockBytes)
	stats := s.Stats()
	if done, err := s.TryWriteBlocks(straddle, buf); done || err != nil {
		t.Fatalf("straddling write: (%v, %v), want (false, nil)", done, err)
	}
	if done, _, err := s.TryReadRecover(straddle, buf); done || err != nil {
		t.Fatalf("straddling read: (%v, %v), want (false, nil)", done, err)
	}
	if got := s.Stats(); got != stats {
		t.Errorf("refused straddling calls counted something: %+v -> %+v", stats, got)
	}
	// Malformed spans are answered, not deferred: the blocking call would
	// say the same.
	if done, _, err := s.TryReadRecover(1, buf); !done || err == nil {
		t.Fatalf("unaligned read: (%v, %v), want (true, error)", done, err)
	}
	if done, err := s.TryWriteBlocks(s.Config().RegionBytes, buf); !done || err == nil {
		t.Fatalf("out-of-range write: (%v, %v), want (true, error)", done, err)
	}
}

// TestTryBlocksMatchBlockingCalls drives one seeded op stream through the
// Try calls (falling back to the blocking ones when refused) and through the
// blocking calls alone, against a shadow of the plaintext: same data, same
// errors, same statistics, same stored bits.
func TestTryBlocksMatchBlockingCalls(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := smallCfg(ctr.Delta, MACInECC)
			try, ref := newSharded(t, cfg, shards), newSharded(t, cfg, shards)
			shadow := make([]byte, cfg.RegionBytes)
			rng := rand.New(rand.NewSource(int64(40 + shards)))
			boundary := try.ShardBytes()
			refused := 0
			for i := 0; i < 4000; i++ {
				n := uint64(1+rng.Intn(8)) * BlockBytes
				addr := uint64(rng.Intn(int(cfg.RegionBytes-n)/BlockBytes)) * BlockBytes
				if i%16 == 0 { // straddle a shard boundary (the region's end at one shard)
					addr = boundary*uint64(1+rng.Intn(shards)) - BlockBytes
					n = min(n, cfg.RegionBytes-addr)
				}
				switch {
				case i%512 == 511: // make the next reads verify stored bits
					for sh := 0; sh < shards; sh++ {
						try.WithShard(sh, goCold)
						ref.WithShard(sh, goCold)
					}
				case i%64 == 63: // beyond correction: reads of it must fail alike
					for _, bit := range []int{3, 170, 401} {
						flipAt(try, PlaneData, addr, bit)
						flipAt(ref, PlaneData, addr, bit)
					}
					fallthrough
				case rng.Intn(3) > 0:
					got, want := make([]byte, n), make([]byte, n)
					done, _, err := try.TryReadRecover(addr, got)
					if !done {
						refused++
						_, err = try.ReadRecover(addr, got)
					}
					_, rerr := ref.ReadRecover(addr, want)
					var ie, rie *IntegrityError
					if errors.As(err, &ie) != errors.As(rerr, &rie) || (ie != nil && ie.Addr != rie.Addr) {
						t.Fatalf("op %d: read %#x+%d: try %v, blocking %v", i, addr, n, err, rerr)
					}
					if err == nil && (!bytes.Equal(got, want) || !bytes.Equal(got, shadow[addr:addr+n])) {
						t.Fatalf("op %d: read %#x+%d returned wrong bytes", i, addr, n)
					}
				default:
					src := make([]byte, n)
					rng.Read(src)
					done, err := try.TryWriteBlocks(addr, src)
					if !done {
						refused++
						err = try.WriteBlocks(addr, src)
					}
					if rerr := ref.WriteBlocks(addr, src); (err == nil) != (rerr == nil) {
						t.Fatalf("op %d: write %#x+%d: try %v, blocking %v", i, addr, n, err, rerr)
					}
					if err == nil {
						copy(shadow[addr:], src)
					}
				}
			}
			if shards > 1 && refused == 0 {
				t.Error("no straddling span was refused")
			}
			if st := try.Stats(); st.IntegrityFailures == 0 || st.SlowPathReads == 0 {
				t.Errorf("the stream never failed a read or never took the locked path: %+v", st)
			}
			if got, want := try.Stats(), ref.Stats(); got != want {
				t.Errorf("statistics differ:\n  try %+v\nblock %+v", got, want)
			}
			if !bytes.Equal(persistBytes(t, try), persistBytes(t, ref)) {
				t.Error("stored state differs from the blocking calls'")
			}
		})
	}
}

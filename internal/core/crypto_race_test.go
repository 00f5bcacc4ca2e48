package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"authmem/internal/ctr"
)

// TestCryptoSweepRace is the -race stress for group re-encryption against the
// lock-free read path: seqlock readers probe warm lines while writers hammer
// split-counter groups hard enough that the 7-bit minor counter overflows
// every 128 rewrites — each overflow re-encrypting a whole 64-block group
// through XORBlocks/TagBatch on the parallel re-encrypt pool's per-worker
// crypto contexts. Version-stamped blocks make the forbidden outcomes
// visible: a torn read (seqlock failure) or a stale read (trusted plaintext
// surviving a re-encryption that should have retired the line). Blocks the
// writer never touches must come back bit-identical after their group is
// swept — the direct check that the span kernels resealed them with the same
// bits the scalar path would have.
func TestCryptoSweepRace(t *testing.T) {
	cfg := smallCfg(ctr.Split, MACInECC)
	s := newSharded(t, cfg, 4)

	shardBlocks := s.ShardBytes() / BlockBytes
	writerOps, readerOps := 1200, 4000
	if testing.Short() {
		writerOps, readerOps = 600, 800
	}

	// One group per shard; the writer rewrites only a 4-block hot set
	// at the group's base — writerOps/4 rewrites per hot block, several
	// 7-bit minor-counter overflows each — so the other 60 blocks must
	// ride every sweep unchanged.
	const hotBlocks = 4
	groups := make([]uint64, 4)
	for i := range groups {
		groups[i] = (uint64(i)*shardBlocks + shardBlocks/2) / ctr.GroupBlocks * ctr.GroupBlocks
	}

	buf := make([]byte, BlockBytes)
	for _, g := range groups {
		for blk := g; blk < g+ctr.GroupBlocks; blk++ {
			stamp(buf, blk, 0)
			if err := s.Write(blk*BlockBytes, buf); err != nil {
				t.Fatal(err)
			}
		}
	}

	var (
		wg       sync.WaitGroup
		failed   atomic.Bool
		mu       sync.Mutex
		failures []string
	)
	fail := func(msg string) {
		failed.Store(true)
		mu.Lock()
		if len(failures) < 10 {
			failures = append(failures, msg)
		}
		mu.Unlock()
	}

	// Writers: each hammers its group's hot set. writerOps/hotBlocks
	// rewrites per block at 128 rewrites per overflow forces several
	// whole-group sweeps per writer through the span kernels.
	for w := 0; w < len(groups); w++ {
		wg.Add(1)
		go func(g uint64, seed uint64) {
			defer wg.Done()
			buf := make([]byte, BlockBytes)
			versions := make(map[uint64]uint64)
			x := seed
			for op := 0; op < writerOps && !failed.Load(); op++ {
				x = x*6364136223846793005 + 1442695040888963407
				blk := g + x>>33%hotBlocks
				versions[blk]++
				stamp(buf, blk, versions[blk])
				if err := s.Write(blk*BlockBytes, buf); err != nil {
					fail("writer: " + err.Error())
					return
				}
			}
		}(groups[w], uint64(w+1))
	}

	// Readers: mix of hot written blocks (torn/stale stamp checks) and
	// never-written blocks, which must stay bit-identical to their seed
	// image across every re-encryption.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			dst := make([]byte, BlockBytes)
			want := make([]byte, BlockBytes)
			lastSeen := make(map[uint64]uint64)
			x := seed
			for op := 0; op < readerOps && !failed.Load(); op++ {
				x = x*6364136223846793005 + 1442695040888963407
				g := groups[x>>60%4]
				blk := g + x>>33%ctr.GroupBlocks
				if _, err := s.Read(blk*BlockBytes, dst); err != nil {
					fail("reader: " + err.Error())
					return
				}
				gotBlk, v, torn := parseStamp(dst)
				if torn {
					fail("torn read under re-encryption")
					return
				}
				if gotBlk != blk {
					fail("read returned another block's stamp")
					return
				}
				if blk >= g+hotBlocks {
					// Untouched tail: every sweep reseals it through the
					// span kernels; the plaintext must never drift.
					stamp(want, blk, 0)
					if string(dst) != string(want) {
						fail("untouched block drifted across a group re-encryption")
						return
					}
					continue
				}
				if last, ok := lastSeen[blk]; ok && v < last {
					fail("stale read: version regressed")
					return
				}
				lastSeen[blk] = v
			}
		}(uint64(r + 77))
	}

	wg.Wait()
	for _, f := range failures {
		t.Error(f)
	}
	st := s.Stats()
	if st.LockFreeHits == 0 {
		t.Error("stress ran without a single lock-free hit; fast path never engaged")
	}
	if st.GroupReencrypts == 0 {
		t.Error("stress forced no group re-encryptions; the sweep never ran under contention")
	}
	t.Logf("lockFreeHits=%d groupReencrypts=%d seqlockRetries=%d",
		st.LockFreeHits, st.GroupReencrypts, st.SeqlockRetries)

	// Quiesce: every block in every group must still verify and carry
	// either its seed image or a stamp a writer legitimately produced.
	if err := s.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		for blk := g; blk < g+ctr.GroupBlocks; blk++ {
			if _, err := s.Read(blk*BlockBytes, buf); err != nil {
				t.Fatalf("final sweep blk %d: %v", blk, err)
			}
			gotBlk, _, torn := parseStamp(buf)
			if torn || gotBlk != blk {
				t.Fatalf("final sweep blk %d: corrupt stamp (torn=%v got=%d)", blk, torn, gotBlk)
			}
		}
	}
}

package core

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"

	"authmem/internal/ctr"
	"authmem/internal/tree"
)

// freshRoot is RootDigest as it was before the tree cached its top-level
// digest: flush, copy the level, hash it. The cached path must be
// byte-identical to it after any history.
func freshRoot(t testing.TB, e *Engine) RootDigest {
	t.Helper()
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(e.tr.TopLevel())
}

// TestRootDigestEqualsFreshHashAfterAnyHistory drives one engine per design
// point through a random sequence of everything that reaches the tree —
// single and span writes, cold reads (the single-leaf flush), hot-block
// hammering (group re-encryption), metadata repair (a full Rebuild),
// Persist/Resume (ReadFrom) and off-chip node flips — asking for the root
// after a random half of the steps so the digest cache is sometimes warm and
// sometimes stale when the next mutator lands. The pin must always equal a
// fresh hash of the top level, and, at the end, the root of a tree rebuilt
// from scratch.
func TestRootDigestEqualsFreshHashAfterAnyHistory(t *testing.T) {
	for _, cfg := range allDesignPoints() {
		t.Run(cfg.Scheme.String()+"/"+cfg.Placement.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(15))
			e := newEngine(t, cfg)
			blocks := cfg.DataBlocks()
			dst := make([]byte, BlockBytes)
			check := func(step int, what string) {
				t.Helper()
				got := e.RootDigest()
				if want := freshRoot(t, e); got != want {
					t.Fatalf("step %d after %s: RootDigest differs from a fresh hash of the top level", step, what)
				}
			}
			for step := 0; step < 200; step++ {
				var what string
				switch rng.Intn(8) {
				case 0, 1:
					what = "Write"
					if err := e.Write(uint64(rng.Int63n(int64(blocks)))*BlockBytes, block(rng.Int63())); err != nil {
						t.Fatal(err)
					}
				case 2:
					what = "WriteBlocks"
					n := 1 + rng.Intn(96)
					first := rng.Int63n(int64(blocks) - int64(n))
					src := make([]byte, n*BlockBytes)
					rng.Read(src)
					if err := e.WriteBlocks(uint64(first)*BlockBytes, src); err != nil {
						t.Fatal(err)
					}
				case 3:
					what = "cold Read"
					goCold(e)
					if _, err := e.Read(uint64(rng.Int63n(int64(blocks)))*BlockBytes, dst); err != nil {
						t.Fatal(err)
					}
				case 4:
					what = "hot-block hammering"
					if cfg.Scheme == ctr.Monolithic {
						continue // no groups, no re-encryption
					}
					addr := uint64(rng.Int63n(int64(blocks))) * BlockBytes
					before := e.SchemeStats().Reencryptions
					d := block(rng.Int63())
					for i := 0; i < 1<<14 && e.SchemeStats().Reencryptions == before; i++ {
						if err := e.Write(addr, d); err != nil {
							t.Fatal(err)
						}
					}
				case 5:
					what = "repairMetadata"
					if err := e.repairMetadata(); err != nil {
						t.Fatal(err)
					}
				case 6:
					what = "Persist/Resume"
					var img bytes.Buffer
					pin, err := e.persist(&img)
					if err != nil {
						t.Fatal(err)
					}
					// The pin rule holds the pin to a fresh hash of the
					// restored level (ReadFrom drops the cached digest): the
					// cross-check on the cached value.
					e, _, err = resumeOneShard(cfg, &img, nil, &pin)
					if err != nil {
						t.Fatalf("step %d: resume under the persisted pin: %v", step, err)
					}
					if got := e.RootDigest(); got != pin {
						t.Fatalf("step %d: resumed engine's root differs from the pin it resumed under", step)
					}
				case 7:
					what = "an off-chip node flip"
					// Off-chip only: the on-chip level is out of reach, so
					// the digest must not move. Flip it back so later cold
					// reads still verify.
					if e.tr.OffChipLevels() == 0 {
						continue
					}
					before := e.RootDigest()
					id := tree.NodeID{Level: 0, Index: uint64(rng.Int63n(int64(e.tr.NodesAtLevel(0))))}
					bit := rng.Intn(tree.NodeBytes * 8)
					for i := 0; i < 2; i++ {
						if err := flipNode(e.off, id, bit); err != nil {
							t.Fatal(err)
						}
					}
					if e.RootDigest() != before {
						t.Fatalf("step %d: an off-chip node flip moved the root", step)
					}
				}
				if rng.Intn(2) == 0 {
					check(step, what)
				}
			}
			check(200, "the whole sequence")
			if e.RootDigest() != rebuiltRoot(t, e) {
				t.Fatal("RootDigest differs from the root of a tree rebuilt from scratch")
			}
		})
	}
}

// TestRootDigestAfterIncrementalReplay covers the remaining tree writer:
// WAL replay installs leaves one UpdateLeafFast at a time into a tree that
// ReadFrom just restored. The recovered engine's cached pin must equal both
// a fresh hash and the root the last epoch sealed.
func TestRootDigestAfterIncrementalReplay(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	h := newDeltaHarness(t, cfg)
	var last DeltaStats
	for i := 0; i < 5; i++ {
		last = h.epoch(t, 30)
		if got := h.eng.RootDigest(); got != last.Root || got != freshRoot(t, h.eng) {
			t.Fatalf("epoch %d: live root, sealed root and fresh hash disagree", i)
		}
	}
	e, _, err := resumeOneShard(cfg, bytes.NewReader(h.base.Bytes()), bytes.NewReader(h.log.Bytes()), &last.Root)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.RootDigest(); got != last.Root || got != freshRoot(t, e) {
		t.Fatal("replayed engine's root differs from the sealed root or from a fresh hash")
	}
}

// freshShardedRoot combines per-shard roots hashed afresh under each shard's
// lock — what ShardedEngine.RootDigest computed before the cache.
func freshShardedRoot(t testing.TB, s *ShardedEngine) RootDigest {
	t.Helper()
	roots := make([][sha256.Size]byte, s.Shards())
	for i := range roots {
		s.WithShard(i, func(eng *Engine) { roots[i] = freshRoot(t, eng) })
	}
	return tree.CombineRoots(roots)
}

// TestShardedRootDigestEqualsCombinedFreshHashes is the same property one
// layer up, at 1, 4 and 16 shards (16 fills RootDigest's stack array): random
// single- and cross-shard writes, a pin after a random half of them, a
// Persist/ResumeShardedIncremental hop, and the combined root always equals
// CombineRoots over fresh per-shard hashes.
func TestShardedRootDigestEqualsCombinedFreshHashes(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		cfg := smallCfg(ctr.Delta, MACInECC)
		s := newSharded(t, cfg, shards)
		rng := rand.New(rand.NewSource(int64(shards)))
		blocks := cfg.DataBlocks()
		perShard := int64(blocks) / int64(shards)
		for step := 0; step < 200; step++ {
			n := 1 + rng.Intn(4)
			first := rng.Int63n(int64(blocks) - int64(n))
			if shards > 1 && rng.Intn(8) == 0 {
				// Straddle a shard boundary: two shards dirtied by one call.
				n = 2 + rng.Intn(30)
				first = (1+rng.Int63n(int64(shards)-1))*perShard - int64(1+rng.Intn(n-1))
			}
			src := make([]byte, n*BlockBytes)
			rng.Read(src)
			if err := s.WriteBlocks(uint64(first)*BlockBytes, src); err != nil {
				t.Fatal(err)
			}
			if step == 120 {
				var img bytes.Buffer
				pin, err := s.Persist(&img)
				if err != nil {
					t.Fatal(err)
				}
				if s, _, err = ResumeShardedIncremental(cfg, shards, &img, nil, &pin); err != nil {
					t.Fatalf("shards=%d: resume under the persisted pin: %v", shards, err)
				}
			}
			if rng.Intn(2) == 0 {
				if got, want := s.RootDigest(), freshShardedRoot(t, s); got != want {
					t.Fatalf("shards=%d step %d: RootDigest differs from CombineRoots over fresh shard hashes", shards, step)
				}
			}
		}
	}
}

// TestShardedRootDigestAllocatesNothing pins the cost model of a pinned
// response: on a quiescent engine the root is four cached digests and one
// small hash, assembled on the stack; after a one-span write it adds one
// shard's flush and one top-level hash, still without allocating.
func TestShardedRootDigestAllocatesNothing(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	cfg.RegionBytes = 4 << 20
	s := newSharded(t, cfg, 4)
	src := block(1)
	shardBytes := cfg.RegionBytes / 4
	for i := uint64(0); i < 4; i++ { // first touch of a block allocates its storage
		if err := s.Write(i*shardBytes, src); err != nil {
			t.Fatal(err)
		}
	}
	want := s.RootDigest()
	if a := testing.AllocsPerRun(200, func() {
		if s.RootDigest() != want {
			t.Fatal("quiescent root moved")
		}
	}); a != 0 {
		t.Errorf("quiescent RootDigest allocates %.1f per call, want 0", a)
	}
	addr := uint64(0)
	if a := testing.AllocsPerRun(200, func() {
		addr = (addr + shardBytes) % cfg.RegionBytes
		if err := s.Write(addr, src); err != nil {
			t.Fatal(err)
		}
		s.RootDigest()
	}); a != 0 {
		t.Errorf("write + RootDigest allocates %.1f per pair, want 0", a)
	}
}

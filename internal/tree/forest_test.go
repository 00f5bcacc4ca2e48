package tree

import (
	"crypto/sha256"
	"testing"

	"authmem/internal/crypto"
)

func forestKey(t *testing.T) *crypto.MAC {
	t.Helper()
	k, err := crypto.NewMAC([]byte("0123456789abcdefghijklmn"))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func buildForestTree(t *testing.T, key *crypto.MAC, leaves uint64) *Tree {
	t.Helper()
	tr, err := New(key, leaves, 3<<10)
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, NodeBytes)
	if err := tr.Rebuild(func(uint64) []byte { return zero }); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCombineRootsSingleShardPassthrough(t *testing.T) {
	key := forestKey(t)
	tr := buildForestTree(t, key, 64)
	shardRoot := sha256.Sum256(tr.TopLevel())
	if got := CombineRoots([][sha256.Size]byte{shardRoot}); got != shardRoot {
		t.Fatal("single-shard combined root must equal the shard root (v1 compatibility)")
	}
}

// combinedRoot is what the sharded engine exports: CombineRoots over each
// subtree's cached top-level digest.
func combinedRoot(trees []*Tree) [sha256.Size]byte {
	roots := make([][sha256.Size]byte, len(trees))
	for i, tr := range trees {
		roots[i] = tr.TopDigest()
	}
	return CombineRoots(roots)
}

func TestForestRootBindsEveryShard(t *testing.T) {
	key := forestKey(t)
	trees := []*Tree{buildForestTree(t, key, 64), buildForestTree(t, key, 64), buildForestTree(t, key, 64), buildForestTree(t, key, 64)}
	base := combinedRoot(trees)

	// A leaf update in any single shard must change the combined root —
	// through the shard's digest cache, which the update has to invalidate.
	img := make([]byte, NodeBytes)
	img[0] = 0xAB
	for i := range trees {
		if err := trees[i].UpdateLeafFast(uint64(i*3), img); err != nil {
			t.Fatal(err)
		}
		next := combinedRoot(trees)
		if next == base {
			t.Fatalf("shard %d update did not change the combined root", i)
		}
		base = next
	}
}

func TestForestRootDependsOnShardOrder(t *testing.T) {
	key := forestKey(t)
	a, b := buildForestTree(t, key, 64), buildForestTree(t, key, 128)
	if combinedRoot([]*Tree{a, b}) == combinedRoot([]*Tree{b, a}) {
		t.Fatal("swapping shard order must change the combined root")
	}
}

func TestForestMultiShardRootDiffersFromAnyShardRoot(t *testing.T) {
	key := forestKey(t)
	trees := []*Tree{buildForestTree(t, key, 64), buildForestTree(t, key, 64)}
	root := combinedRoot(trees)
	for i := range trees {
		if root == trees[i].TopDigest() {
			t.Fatalf("combined root collides with shard %d root (missing domain separation)", i)
		}
	}
}

// syntheticRoots builds n distinct, deterministic shard roots without the
// cost of real trees — CombineRoots only sees digests, so exercising it at
// cluster-scale shard counts needs nothing heavier.
func syntheticRoots(n int) [][sha256.Size]byte {
	roots := make([][sha256.Size]byte, n)
	for i := range roots {
		roots[i] = sha256.Sum256([]byte{byte(i), byte(i >> 8), 0x5A})
	}
	return roots
}

// TestCombineRootsShardCounts pins determinism and pairwise distinctness
// across awkward shard counts: non-powers-of-two, primes, and the 64+ range
// a cluster attestation combines (one root per node, nodes sharded 2-16
// ways). Counts must also be part of the digest — a prefix of a larger set
// can never combine to the same value as the full set.
func TestCombineRootsShardCounts(t *testing.T) {
	counts := []int{2, 3, 5, 7, 12, 31, 33, 64, 65, 100, 127, 257}
	seen := make(map[[sha256.Size]byte]int, len(counts))
	all := syntheticRoots(300)
	for _, n := range counts {
		roots := all[:n]
		got := CombineRoots(roots)
		if again := CombineRoots(roots); again != got {
			t.Fatalf("n=%d: CombineRoots is not deterministic", n)
		}
		if prev, dup := seen[got]; dup {
			t.Fatalf("n=%d combined root collides with n=%d (count not bound into digest)", n, prev)
		}
		seen[got] = n
		for i := 0; i < n; i++ {
			if got == roots[i] {
				t.Fatalf("n=%d: combined root equals shard %d root", n, i)
			}
		}
	}
}

// TestCombineRootsPerturbAnyShard is the property the cluster's combined
// attestation rests on: flipping any single bit of any single shard root
// changes the combined digest. Checked exhaustively over shards at a
// non-power-of-two count, one probe bit per byte.
func TestCombineRootsPerturbAnyShard(t *testing.T) {
	const n = 65 // 64+ and odd: past any accidental power-of-two alignment
	roots := syntheticRoots(n)
	base := CombineRoots(roots)
	for shard := 0; shard < n; shard++ {
		for byteIdx := 0; byteIdx < sha256.Size; byteIdx++ {
			roots[shard][byteIdx] ^= 1 << (byteIdx % 8)
			if CombineRoots(roots) == base {
				t.Fatalf("perturbing shard %d byte %d left the combined root unchanged", shard, byteIdx)
			}
			roots[shard][byteIdx] ^= 1 << (byteIdx % 8)
		}
		if CombineRoots(roots) != base {
			t.Fatalf("shard %d: perturbation cleanup failed", shard)
		}
	}
}

// TestCombineRootsOrderAt64Plus extends the order-dependence check to the
// counts a cluster actually combines.
func TestCombineRootsOrderAt64Plus(t *testing.T) {
	roots := syntheticRoots(96)
	base := CombineRoots(roots)
	swapped := append([][sha256.Size]byte(nil), roots...)
	swapped[0], swapped[95] = swapped[95], swapped[0]
	if CombineRoots(swapped) == base {
		t.Fatal("swapping shard roots 0 and 95 must change the combined digest")
	}
}

// TestCombineRootsMatchesStreamingHash pins the digest's construction —
// SHA-256 over domain || uint32-LE count || roots — independently of how
// CombineRoots assembles the message, on both sides of its stack buffer's
// 16-root capacity. Persisted manifests and cluster attestations carry this
// value, so it must never drift.
func TestCombineRootsMatchesStreamingHash(t *testing.T) {
	all := syntheticRoots(40)
	for n := 2; n <= len(all); n++ {
		h := sha256.New()
		h.Write([]byte("authmem/forest/v1\x00"))
		h.Write([]byte{byte(n), 0, 0, 0})
		for _, r := range all[:n] {
			h.Write(r[:])
		}
		var want [sha256.Size]byte
		h.Sum(want[:0])
		if got := CombineRoots(all[:n]); got != want {
			t.Fatalf("n=%d: CombineRoots = %x, streaming construction = %x", n, got, want)
		}
	}
}

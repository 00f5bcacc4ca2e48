package tree

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"authmem/internal/crypto"
)

func testKey(t testing.TB) *crypto.MAC {
	t.Helper()
	material := make([]byte, 24)
	for i := range material {
		material[i] = byte(i*13 + 1)
	}
	k, err := crypto.NewMAC(material)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func leafImg(i uint64) []byte {
	img := make([]byte, NodeBytes)
	rng := rand.New(rand.NewSource(int64(i) + 77))
	rng.Read(img)
	return img
}

func buildTree(t testing.TB, leaves uint64, onChip int) *Tree {
	t.Helper()
	tr, err := New(testKey(t), leaves, onChip)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Rebuild(leafImg); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	key := testKey(t)
	if _, err := New(nil, 8, 3<<10); err == nil {
		t.Fatal("nil key should fail")
	}
	if _, err := New(key, 0, 3<<10); err == nil {
		t.Fatal("zero leaves should fail")
	}
	if _, err := New(key, 8, 32); err == nil {
		t.Fatal("sub-node on-chip budget should fail")
	}
}

// TestPaperGeometry reproduces the §5.2 claim: with a 512MB protected
// region and a 3KB on-chip root, the baseline (monolithic counters, 8 per
// block) tree has 5 off-chip levels counting the counter-block read, and the
// delta-encoded tree (64 counters per block) has 4.
func TestPaperGeometry(t *testing.T) {
	key := testKey(t)
	const dataBlocks = 512 << 20 / 64 // 8M

	mono, err := New(key, dataBlocks/8, 3<<10) // 1M counter blocks
	if err != nil {
		t.Fatal(err)
	}
	if got := mono.OffChipLevels() + 1; got != 5 {
		t.Errorf("baseline off-chip read depth = %d, want 5", got)
	}

	delta, err := New(key, dataBlocks/64, 3<<10) // 128K counter blocks
	if err != nil {
		t.Fatal(err)
	}
	if got := delta.OffChipLevels() + 1; got != 4 {
		t.Errorf("delta off-chip read depth = %d, want 4", got)
	}

	// On-chip level must fit the 3KB budget.
	for _, tr := range []*Tree{mono, delta} {
		top := tr.NodesAtLevel(tr.Levels() - 1)
		if top*NodeBytes > 3<<10 {
			t.Errorf("on-chip level %d nodes = %dB > 3KB", top, top*NodeBytes)
		}
	}
}

func TestVerifyAfterRebuild(t *testing.T) {
	tr := buildTree(t, 1000, 3<<10)
	for _, i := range []uint64{0, 1, 7, 8, 63, 64, 511, 999} {
		read, err := tr.VerifyLeaf(i, leafImg(i))
		if err != nil {
			t.Fatalf("leaf %d: %v", i, err)
		}
		if len(read) != tr.OffChipLevels() {
			t.Fatalf("leaf %d: read %d nodes, want %d", i, len(read), tr.OffChipLevels())
		}
	}
}

func TestUpdateThenVerify(t *testing.T) {
	tr := buildTree(t, 500, 3<<10)
	img := make([]byte, NodeBytes)
	rand.New(rand.NewSource(5)).Read(img)
	touched, err := tr.UpdateLeaf(123, img)
	if err != nil {
		t.Fatal(err)
	}
	if len(touched) != tr.OffChipLevels() {
		t.Fatalf("touched %d nodes, want %d", len(touched), tr.OffChipLevels())
	}
	if _, err := tr.VerifyLeaf(123, img); err != nil {
		t.Fatalf("updated leaf fails: %v", err)
	}
	// The old image must no longer verify (freshness).
	if _, err := tr.VerifyLeaf(123, leafImg(123)); err == nil {
		t.Fatal("stale leaf image verified: replay possible")
	}
	// Sibling leaves are unaffected.
	if _, err := tr.VerifyLeaf(124, leafImg(124)); err != nil {
		t.Fatalf("sibling broken by update: %v", err)
	}
}

func TestTamperedLeafDetected(t *testing.T) {
	tr := buildTree(t, 100, 3<<10)
	img := leafImg(42)
	img[13] ^= 0x01
	_, err := tr.VerifyLeaf(42, img)
	var tampered *ErrTampered
	if !errors.As(err, &tampered) {
		t.Fatalf("want ErrTampered, got %v", err)
	}
	if tampered.Level != 0 {
		t.Fatalf("detected at level %d, want 0", tampered.Level)
	}
}

func TestTamperedNodeDetectedAtEveryLevel(t *testing.T) {
	tr := buildTree(t, 5000, 3<<10)
	leaf := uint64(4000)
	for lvl := 0; lvl < tr.OffChipLevels(); lvl++ {
		tr2 := buildTree(t, 5000, 3<<10)
		// Corrupt the node on leaf 4000's path at this level.
		idx := leaf
		for k := 0; k <= lvl; k++ {
			idx /= Arity
		}
		flipNode(t, tr2, NodeID{Level: lvl, Index: idx}, 17)
		if _, err := tr2.VerifyLeaf(leaf, leafImg(leaf)); err == nil {
			t.Fatalf("corruption at level %d undetected", lvl)
		}
	}
}

func TestNodeSwapDetected(t *testing.T) {
	// Swapping two valid leaf images must fail verification because node
	// MACs bind position.
	tr := buildTree(t, 64, 3<<10)
	if _, err := tr.VerifyLeaf(3, leafImg(5)); err == nil {
		t.Fatal("leaf 5's image verified as leaf 3")
	}
}

// flipNode flips one bit of an off-chip node image, the attacker's move.
func flipNode(t *testing.T, tr *Tree, id NodeID, bit int) {
	t.Helper()
	img, err := tr.OffChipNode(id)
	if err != nil {
		t.Fatal(err)
	}
	img[bit/8] ^= 1 << (bit % 8)
}

func TestOnChipNotAttackable(t *testing.T) {
	tr := buildTree(t, 5000, 3<<10)
	top := tr.Levels() - 1
	if _, err := tr.OffChipNode(NodeID{Level: top, Index: 0}); err == nil {
		t.Fatal("on-chip node should be rejected")
	}
}

func TestCorruptNodeValidation(t *testing.T) {
	tr := buildTree(t, 5000, 3<<10)
	for _, id := range []NodeID{{Level: 0, Index: 1 << 40}, {Level: -1}, {Level: tr.Levels()}} {
		if _, err := tr.OffChipNode(id); err == nil {
			t.Fatalf("node %+v should be rejected", id)
		}
	}
}

func TestLeafBounds(t *testing.T) {
	tr := buildTree(t, 10, 3<<10)
	img := make([]byte, NodeBytes)
	if _, err := tr.VerifyLeaf(10, img); err == nil {
		t.Fatal("out-of-range leaf should fail")
	}
	if _, err := tr.UpdateLeaf(10, img); err == nil {
		t.Fatal("out-of-range leaf should fail")
	}
	if _, err := tr.VerifyLeaf(0, img[:32]); err == nil {
		t.Fatal("short image should fail")
	}
	if _, err := tr.UpdateLeaf(0, img[:32]); err == nil {
		t.Fatal("short image should fail")
	}
}

func TestFlatIndexDense(t *testing.T) {
	tr := buildTree(t, 5000, 3<<10)
	seen := make(map[uint64]bool)
	for lvl := 0; lvl < tr.OffChipLevels(); lvl++ {
		for i := uint64(0); i < tr.NodesAtLevel(lvl); i++ {
			f := tr.FlatIndex(NodeID{Level: lvl, Index: i})
			if seen[f] {
				t.Fatalf("flat index %d duplicated", f)
			}
			if f >= tr.OffChipNodes() {
				t.Fatalf("flat index %d out of range %d", f, tr.OffChipNodes())
			}
			seen[f] = true
		}
	}
	if uint64(len(seen)) != tr.OffChipNodes() {
		t.Fatalf("flat index coverage %d of %d", len(seen), tr.OffChipNodes())
	}
}

func TestIncrementalMatchesRebuild(t *testing.T) {
	// Applying updates one leaf at a time must land in the same state as a
	// full rebuild over the final images.
	key := testKey(t)
	const leaves = 300
	images := make(map[uint64][]byte)
	final := func(i uint64) []byte {
		if img, ok := images[i]; ok {
			return img
		}
		return make([]byte, NodeBytes)
	}

	incr, err := New(key, leaves, 3<<10)
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, NodeBytes)
	if err := incr.Rebuild(func(uint64) []byte { return zero }); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for n := 0; n < 200; n++ {
		i := uint64(rng.Intn(leaves))
		img := make([]byte, NodeBytes)
		rng.Read(img)
		images[i] = img
		if _, err := incr.UpdateLeaf(i, img); err != nil {
			t.Fatal(err)
		}
	}

	for i := uint64(0); i < leaves; i++ {
		if _, err := incr.VerifyLeaf(i, final(i)); err != nil {
			t.Fatalf("leaf %d: %v", i, err)
		}
	}

	full, err := New(key, leaves, 3<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Rebuild(final); err != nil {
		t.Fatal(err)
	}
	for lvl := range incr.levels {
		for b := range incr.levels[lvl] {
			if incr.levels[lvl][b] != full.levels[lvl][b] {
				t.Fatalf("level %d byte %d differs from rebuild", lvl, b)
			}
		}
	}
}

func TestErrTamperedMessage(t *testing.T) {
	e := &ErrTampered{Level: 2, Index: 17}
	if e.Error() != "tree: integrity violation at level 2 node 17" {
		t.Fatalf("message %q", e.Error())
	}
}

func TestTotalOffChipBytes(t *testing.T) {
	// 4096 leaves -> levels of 512, 64, 8 (on-chip at 8 <= 48).
	s, err := NewShape(4096, 3<<10)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(512+64) * NodeBytes; s.OffChipBytes() != want {
		t.Fatalf("OffChipBytes = %d, want %d", s.OffChipBytes(), want)
	}
	if s.OffChipLevels() != 2 || s.OffChipNodes() != 512+64 {
		t.Fatalf("OffChipLevels = %d, OffChipNodes = %d, want 2 and 576", s.OffChipLevels(), s.OffChipNodes())
	}
	if _, err := NewShape(0, 3<<10); err == nil {
		t.Fatal("zero leaves should fail")
	}
	if _, err := NewShape(8, NodeBytes-1); err == nil {
		t.Fatal("sub-node on-chip budget should fail")
	}
}

// TestShapePathMatchesVerifyLeaf: a Shape alone names, for every leaf, the
// off-chip nodes the built tree reads to verify it.
func TestShapePathMatchesVerifyLeaf(t *testing.T) {
	for _, onChip := range []int{NodeBytes, 3 << 10} {
		tr := buildTree(t, 1000, onChip)
		s, err := NewShape(1000, onChip)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(s.counts, tr.counts) {
			t.Fatalf("on-chip %d: shape levels %v, tree levels %v", onChip, s.counts, tr.counts)
		}
		for leaf := uint64(0); leaf < s.Leaves(); leaf++ {
			read, err := tr.VerifyLeaf(leaf, leafImg(leaf))
			if err != nil {
				t.Fatal(err)
			}
			var want []uint64
			for _, id := range read {
				want = append(want, tr.FlatIndex(id))
			}
			if got := s.Path(leaf, nil); !slices.Equal(got, want) {
				t.Fatalf("on-chip %d leaf %d: path %v, tree read %v", onChip, leaf, got, want)
			}
		}
	}
}

func BenchmarkVerifyLeaf(b *testing.B) {
	tr := buildTree(b, 128<<10, 3<<10) // the paper's delta-tree scale
	img := leafImg(12345)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.VerifyLeaf(12345, img); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpdateLeaf(b *testing.B) {
	tr := buildTree(b, 128<<10, 3<<10)
	img := leafImg(777)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.UpdateLeaf(777, img); err != nil {
			b.Fatal(err)
		}
	}
}

package tree

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"testing"
)

// TestTopDigestTracksEveryMutator is the cache's whole contract: whatever
// sequence of level-writing functions ran, TopDigest equals a fresh hash of
// the top level. Each step asks for the digest with probability one half, so
// the cache is sometimes warm and sometimes stale when the next mutator
// lands; failed mutators (bad input, truncated streams, an update through a
// node an attacker flipped, which fails verification before it writes) are in
// the mix because they may have written part of a level before failing.
func TestTopDigestTracksEveryMutator(t *testing.T) {
	for _, geo := range []struct {
		leaves uint64
		onChip int
	}{{1, 3 << 10}, {9, NodeBytes}, {513, 3 << 10}, {4096, 2 * NodeBytes}} {
		rng := rand.New(rand.NewSource(int64(geo.leaves)))
		tr := buildTree(t, geo.leaves, geo.onChip)
		donor := buildTree(t, geo.leaves, geo.onChip)
		img := func() []byte {
			b := make([]byte, NodeBytes)
			rng.Read(b)
			return b
		}
		// corrupted is set while an off-chip node flip or a partial ReadFrom may
		// sit under the on-chip level; only then may an update fail with
		// *ErrTampered.
		corrupted := false
		updated := func(err error) {
			t.Helper()
			var te *ErrTampered
			if err != nil && !(corrupted && errors.As(err, &te)) {
				t.Fatal(err)
			}
		}
		check := func(step int, what string) {
			t.Helper()
			if got, want := tr.TopDigest(), sha256.Sum256(tr.TopLevel()); got != want {
				t.Fatalf("leaves=%d step %d after %s: TopDigest is stale", geo.leaves, step, what)
			}
		}
		check(0, "Rebuild")
		for step := 1; step <= 400; step++ {
			var what string
			switch rng.Intn(9) {
			case 0:
				what = "UpdateLeaf"
				_, err := tr.UpdateLeaf(uint64(rng.Int63n(int64(geo.leaves))), img())
				updated(err)
			case 1:
				what = "UpdateLeafFast"
				updated(tr.UpdateLeafFast(uint64(rng.Int63n(int64(geo.leaves))), img()))
			case 2:
				what = "UpdateLeaves"
				batch := make([]uint64, 1+rng.Intn(20))
				for i := range batch {
					batch[i] = uint64(rng.Int63n(int64(geo.leaves)))
				}
				one := img()
				updated(tr.UpdateLeaves(batch, func(uint64) []byte { return one }))
			case 3:
				what = "UpdateLeaves with a bad leaf"
				batch := []uint64{0, geo.leaves + 5, 0}
				one := img()
				if err := tr.UpdateLeaves(batch, func(uint64) []byte { return one }); err == nil {
					t.Fatal("out-of-range leaf accepted")
				}
			case 4:
				what = "Rebuild"
				salt := rng.Int63()
				err := tr.Rebuild(func(i uint64) []byte { return leafImg(i + uint64(salt)) })
				if err != nil {
					t.Fatal(err)
				}
				corrupted = false
			case 5:
				what = "ReadFrom"
				if err := donor.UpdateLeafFast(uint64(rng.Int63n(int64(geo.leaves))), img()); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if _, err := donor.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				if _, err := tr.ReadFrom(&buf); err != nil {
					t.Fatal(err)
				}
				if tr.TopDigest() != donor.TopDigest() {
					t.Fatalf("leaves=%d step %d: restored tree's digest differs from its source's", geo.leaves, step)
				}
				corrupted = false
			case 6:
				what = "truncated ReadFrom"
				if err := donor.UpdateLeafFast(uint64(rng.Int63n(int64(geo.leaves))), img()); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if _, err := donor.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				cut := buf.Bytes()[:buf.Len()-1-rng.Intn(NodeBytes)]
				if _, err := tr.ReadFrom(bytes.NewReader(cut)); err == nil {
					t.Fatal("truncated image accepted")
				}
				corrupted = true // a partial read leaves levels from two trees
			case 7:
				what = "OffChipNode"
				if tr.OffChipLevels() > 0 {
					id := NodeID{Level: rng.Intn(tr.OffChipLevels())}
					id.Index = uint64(rng.Int63n(int64(tr.NodesAtLevel(id.Level))))
					flipNode(t, tr, id, rng.Intn(NodeBytes*8))
					corrupted = true
				}
			case 8:
				what = "WriteTo"
				if _, err := tr.WriteTo(&bytes.Buffer{}); err != nil {
					t.Fatal(err)
				}
			}
			if rng.Intn(2) == 0 {
				check(step, what)
			}
		}
		check(401, "the whole sequence")
	}
}

// TestTopDigestCachedCallAllocatesNothing pins the cost model: a digest of
// an unchanged tree is a copy — no TopLevel() clone, no hash state.
func TestTopDigestCachedCallAllocatesNothing(t *testing.T) {
	tr := buildTree(t, 4096, 3<<10)
	want := tr.TopDigest()
	if a := testing.AllocsPerRun(100, func() {
		if tr.TopDigest() != want {
			t.Fatal("digest of an unchanged tree moved")
		}
	}); a != 0 {
		t.Fatalf("cached TopDigest allocates %.1f per call, want 0", a)
	}
	// Nor does the miss path: the hash runs over the level in place.
	leaf := leafImg(7)
	if a := testing.AllocsPerRun(100, func() {
		if err := tr.UpdateLeafFast(3, leaf); err != nil {
			t.Fatal(err)
		}
		tr.TopDigest()
	}); a != 0 {
		t.Fatalf("TopDigest after an update allocates %.1f per call, want 0", a)
	}
}

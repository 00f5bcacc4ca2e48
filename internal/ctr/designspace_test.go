package ctr

// §4.2's design space: "there are multiple block group and delta size
// combinations" that fit one metadata block. The paper evaluates 7-bit
// deltas over 64-block groups, and so do DeltaScheme and SplitScheme; the
// references (reference_test.go) take any width and group size, so these
// tests check the rule's invariants and trade-offs across that space and
// hold the production schemes to the references at the paper's point.

import (
	"math/rand"
	"testing"
)

func TestParamDeltaMatchesFixedDelta(t *testing.T) {
	// At width 7 and group 64 the reference must behave identically to
	// DeltaScheme.
	param := newRefDelta(false, DeltaBits, GroupBlocks)
	fixed := NewDelta()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300000; i++ {
		b := uint64(rng.Intn(512))
		po, fo := param.Touch(b), fixed.Touch(b)
		if po != fo {
			t.Fatalf("write %d to block %d: reference %+v, fixed %+v", i, b, po, fo)
		}
	}
	if param.Stats() != fixed.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", param.Stats(), fixed.Stats())
	}
	for b := uint64(0); b < 512; b++ {
		if param.Counter(b) != fixed.Counter(b) {
			t.Fatalf("block %d: counters diverged", b)
		}
	}
}

func TestParamSplitMatchesFixedSplit(t *testing.T) {
	param := newRefSplit(MinorBits, GroupBlocks)
	fixed := NewSplit()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 300000; i++ {
		b := uint64(rng.Intn(512))
		po, fo := param.Touch(b), fixed.Touch(b)
		if po != fo {
			t.Fatalf("write %d to block %d: reference %+v, fixed %+v", i, b, po, fo)
		}
	}
	if param.Stats() != fixed.Stats() {
		t.Fatalf("stats diverged")
	}
}

func TestParamDeltaNonceFreshness(t *testing.T) {
	// The nonce-freshness invariant must hold at every width.
	for _, w := range []uint{3, 5, 8} {
		g := 64
		if w == 8 {
			g = 56
		}
		s := newRefDelta(false, w, g)
		used := make(map[[2]uint64]bool)
		record := func(block, counter uint64) {
			k := [2]uint64{block, counter}
			if used[k] {
				t.Fatalf("width %d: nonce reuse on block %d counter %d", w, block, counter)
			}
			used[k] = true
		}
		s.hook = func(start uint64, old []uint64, newCounter uint64) {
			for j := range old {
				record(start+uint64(j), newCounter)
			}
		}
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < 50000; i++ {
			b := uint64(rng.Intn(g))
			out := s.Touch(b)
			if !out.Reencrypted {
				record(b, out.Counter)
			}
		}
	}
}

// TestWiderDeltasReencryptLess verifies the fundamental width trade-off the
// paper's §4.2 design choice sits on: more delta bits mean fewer overflows
// (but more storage).
func TestWiderDeltasReencryptLess(t *testing.T) {
	rates := map[uint]uint64{}
	for _, w := range []uint{5, 6, 7} {
		s := newRefDelta(false, w, 64)
		// Hot single block: Δmin stays 0, overflow every 2^w writes.
		for i := 0; i < 1<<14; i++ {
			s.Touch(0)
		}
		rates[w] = s.Stats().Reencryptions
	}
	if !(rates[5] > rates[6] && rates[6] > rates[7]) {
		t.Fatalf("re-encryptions not decreasing with width: %v", rates)
	}
	// Exact expectation: 2^14 writes, overflow period 2^w.
	for _, w := range []uint{5, 6, 7} {
		want := uint64(1) << (14 - w)
		// The first overflow needs 2^w - 1 increments, so allow +/-1.
		if diff := int64(rates[w]) - int64(want); diff < -1 || diff > 1 {
			t.Errorf("width %d: %d re-encryptions, want ~%d", w, rates[w], want)
		}
	}
}

// TestSmallerGroupsLocalizeReencryption checks the group-size trade-off:
// smaller groups re-encrypt fewer blocks per overflow.
func TestSmallerGroupsLocalizeReencryption(t *testing.T) {
	for _, g := range []int{16, 32, 64} {
		s := newRefDelta(false, 7, g)
		for i := 0; i < 128; i++ {
			s.Touch(0)
		}
		st := s.Stats()
		if st.Reencryptions != 1 {
			t.Fatalf("g=%d: %d re-encryptions", g, st.Reencryptions)
		}
		if st.ReencryptedBlocks != uint64(g) {
			t.Fatalf("g=%d: %d blocks re-encrypted", g, st.ReencryptedBlocks)
		}
	}
}

func TestParamSplitCounterConcatenation(t *testing.T) {
	s := newRefSplit(3, 32) // tiny minors: overflow every 7 writes
	for i := 0; i < 7; i++ {
		if out := s.Touch(0); out.Reencrypted {
			t.Fatalf("premature re-encryption at write %d", i)
		}
	}
	out := s.Touch(0)
	if !out.Reencrypted {
		t.Fatal("8th write should overflow a 3-bit minor")
	}
	// major 1, minor 1 -> counter 1<<3 | 1 = 9.
	if out.Counter != 9 {
		t.Fatalf("counter = %d, want 9", out.Counter)
	}
}

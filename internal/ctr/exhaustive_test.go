package ctr

import "testing"

// TestExhaustiveDeltaModelCheck model-checks the delta rule, as the
// reference refDeltaScheme (which lockstep holds DeltaScheme to), down-scaled
// to 2-bit deltas over 3-block groups, over EVERY write sequence of length 9 —
// 3^9 = 19,683 sequences, each replayed from a fresh scheme. The small
// delta width makes every interesting transition (reset, re-encode,
// re-encrypt) reachable within the horizon. Checked invariants:
//
//  1. No nonce reuse: every (block, counter) pair used for encryption —
//     write outcomes and re-encryption sweeps — is globally fresh within a
//     sequence.
//  2. Per-block counters never decrease and never fall behind the block's
//     write count (re-encryption may push them ahead, never behind).
//  3. The scheme's stats add up: every overflow resolves as exactly one of
//     re-encode or re-encrypt.
func TestExhaustiveDeltaModelCheck(t *testing.T) {
	const (
		blocks = 3
		depth  = 9
		width  = 2
	)
	total := 1
	for i := 0; i < depth; i++ {
		total *= blocks
	}

	seq := make([]uint64, depth)
	for n := 0; n < total; n++ {
		x := n
		for i := range seq {
			seq[i] = uint64(x % blocks)
			x /= blocks
		}
		checkDeltaSequence(t, width, blocks, seq)
	}
}

func checkDeltaSequence(t *testing.T, width uint, blocks int, seq []uint64) {
	t.Helper()
	s := newRefDelta(false, width, blocks)
	used := map[[2]uint64]bool{}
	record := func(block, counter uint64) {
		k := [2]uint64{block, counter}
		if used[k] {
			t.Fatalf("seq %v: nonce reuse on block %d counter %d", seq, block, counter)
		}
		used[k] = true
	}
	s.hook = func(start uint64, old []uint64, newCounter uint64) {
		for j, oc := range old {
			if oc >= newCounter {
				t.Fatalf("seq %v: re-encrypt counter %d not above old[%d]=%d",
					seq, newCounter, j, oc)
			}
			record(start+uint64(j), newCounter)
		}
	}

	writes := make([]uint64, blocks)
	last := make([]uint64, blocks)
	for _, b := range seq {
		out := s.Touch(b)
		writes[b]++
		if !out.Reencrypted {
			record(b, out.Counter)
		}
		if out.Counter <= last[b] && last[b] != 0 {
			t.Fatalf("seq %v: block %d counter went %d -> %d", seq, b, last[b], out.Counter)
		}
		last[b] = out.Counter
		// An outcome is at most one of the structural events.
		events := 0
		for _, e := range []bool{out.Reencoded, out.Reencrypted} {
			if e {
				events++
			}
		}
		if events > 1 {
			t.Fatalf("seq %v: outcome %+v claims multiple overflow resolutions", seq, out)
		}
		for blk := 0; blk < blocks; blk++ {
			if c := s.Counter(uint64(blk)); c < writes[blk] {
				t.Fatalf("seq %v: block %d counter %d behind %d writes",
					seq, blk, c, writes[blk])
			}
		}
	}
}

// TestExhaustiveSplitModelCheck applies the same model checking to the
// split-counter rule, as the reference refSplitScheme down-scaled to 2-bit
// minors over 3-block groups.
func TestExhaustiveSplitModelCheck(t *testing.T) {
	const (
		blocks = 3
		depth  = 9
	)
	total := 1
	for i := 0; i < depth; i++ {
		total *= blocks
	}
	seq := make([]uint64, depth)
	for n := 0; n < total; n++ {
		x := n
		for i := range seq {
			seq[i] = uint64(x % blocks)
			x /= blocks
		}

		s := newRefSplit(2, blocks)
		used := map[[2]uint64]bool{}
		record := func(block, counter uint64) {
			k := [2]uint64{block, counter}
			if used[k] {
				t.Fatalf("seq %v: nonce reuse on block %d counter %d", seq, block, counter)
			}
			used[k] = true
		}
		s.hook = func(start uint64, old []uint64, newCounter uint64) {
			for j := range old {
				record(start+uint64(j), newCounter)
			}
		}
		writes := make([]uint64, blocks)
		for _, b := range seq {
			out := s.Touch(b)
			writes[b]++
			if !out.Reencrypted {
				record(b, out.Counter)
			}
		}
		// Counter value semantics: major*4 + minor >= writes.
		for blk := 0; blk < blocks; blk++ {
			if c := s.Counter(uint64(blk)); c < writes[blk] {
				t.Fatalf("seq %v: block %d counter %d behind %d writes", seq, blk, c, writes[blk])
			}
		}
	}
}

package ctr

import (
	"math/rand"
	"testing"
)

func allSchemes() []Scheme {
	return []Scheme{NewMonolithic(), NewSplit(), NewDelta(), NewDualLength()}
}

func TestNewScheme(t *testing.T) {
	for _, k := range []Kind{Monolithic, Split, Delta, DualLength} {
		s, err := NewScheme(k)
		if err != nil {
			t.Fatalf("NewScheme(%v): %v", k, err)
		}
		if s.Name() != k.String() {
			t.Errorf("Name %q != Kind %q", s.Name(), k)
		}
	}
	if _, err := NewScheme(Kind(99)); err == nil {
		t.Fatal("unknown kind should fail")
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("Kind(99).String() = %q", got)
	}
}

func TestCountersStartAtZero(t *testing.T) {
	for _, s := range allSchemes() {
		for _, b := range []uint64{0, 1, 63, 64, 1000} {
			if c := s.Counter(b); c != 0 {
				t.Errorf("%s: fresh counter of block %d = %d", s.Name(), b, c)
			}
		}
	}
}

// TestCounterStrictlyIncreasesOnWrite checks the nonce-freshness invariant:
// each write to a block must advance that block's counter.
func TestCounterStrictlyIncreasesOnWrite(t *testing.T) {
	for _, s := range allSchemes() {
		rng := rand.New(rand.NewSource(1))
		last := make(map[uint64]uint64)
		for i := 0; i < 50000; i++ {
			b := uint64(rng.Intn(256)) // 4 groups' worth of blocks
			out := s.Touch(b)
			if prev, seen := last[b]; seen && out.Counter <= prev {
				t.Fatalf("%s: block %d counter went %d -> %d", s.Name(), b, prev, out.Counter)
			}
			last[b] = out.Counter
			if got := s.Counter(b); got != out.Counter {
				t.Fatalf("%s: Counter(%d)=%d after Touch returned %d", s.Name(), b, got, out.Counter)
			}
		}
	}
}

// TestNoNonceReuseAcrossGroupEvents hammers one group and asserts that no
// (block, counter) pair is ever used twice for an encryption: write counters
// and re-encryption counters all land on fresh values per block.
func TestNoNonceReuseAcrossGroupEvents(t *testing.T) {
	for _, s := range allSchemes() {
		used := make(map[[2]uint64]bool)
		record := func(block, counter uint64) {
			k := [2]uint64{block, counter}
			if used[k] {
				t.Fatalf("%s: nonce reuse on block %d counter %d", s.Name(), block, counter)
			}
			used[k] = true
		}
		s.OnReencrypt(func(start uint64, old []uint64, newCounter uint64) {
			for j := range old {
				record(start+uint64(j), newCounter)
			}
		})
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 30000; i++ {
			b := uint64(rng.Intn(GroupBlocks)) // a single group
			out := s.Touch(b)
			if !out.Reencrypted {
				record(b, out.Counter)
			}
			// On re-encryption the hook already recorded the shared
			// counter for every block, including the written one.
		}
	}
}

func TestReencryptHookCounters(t *testing.T) {
	// The hook must see pre-re-encryption counters and a strictly larger
	// shared new counter.
	for _, s := range []Scheme{NewSplit(), NewDelta(), NewDualLength()} {
		var calls int
		s.OnReencrypt(func(start uint64, old []uint64, newCounter uint64) {
			calls++
			if start%GroupBlocks != 0 {
				t.Fatalf("%s: group start %d not aligned", s.Name(), start)
			}
			if len(old) != GroupBlocks {
				t.Fatalf("%s: old counters length %d", s.Name(), len(old))
			}
			for j, c := range old {
				if c >= newCounter {
					t.Fatalf("%s: old[%d]=%d >= new %d", s.Name(), j, c, newCounter)
				}
			}
		})
		// Hammer block 0 only: delta/dual Δmin stays 0 (other blocks
		// never written), so overflow must re-encrypt.
		for i := 0; i < 5000; i++ {
			s.Touch(0)
		}
		if calls == 0 {
			t.Fatalf("%s: no re-encryption after 5000 writes to one block", s.Name())
		}
		if s.Stats().Reencryptions != uint64(calls) {
			t.Fatalf("%s: stats/hook mismatch", s.Name())
		}
	}
}

func TestMonolithicNeverReencrypts(t *testing.T) {
	s := NewMonolithic()
	s.OnReencrypt(func(uint64, []uint64, uint64) {
		t.Fatal("monolithic scheme invoked re-encryption")
	})
	for i := 0; i < 100000; i++ {
		s.Touch(5)
	}
	if s.Counter(5) != 100000 {
		t.Fatalf("counter = %d, want 100000", s.Counter(5))
	}
	if st := s.Stats(); st.Reencryptions != 0 || st.Writes != 100000 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSplitReencryptsEvery127Writes(t *testing.T) {
	// A 7-bit minor overflows after 127 increments; write 128 times.
	s := NewSplit()
	for i := 0; i < 127; i++ {
		if out := s.Touch(0); out.Reencrypted {
			t.Fatalf("premature re-encryption at write %d", i)
		}
	}
	if out := s.Touch(0); !out.Reencrypted {
		t.Fatal("write 128 should overflow the 7-bit minor")
	}
	if s.Stats().Reencryptions != 1 {
		t.Fatalf("stats %+v", s.Stats())
	}
}

func TestSplitCounterConcatenation(t *testing.T) {
	s := NewSplit()
	s.Touch(3)
	s.Touch(3)
	if c := s.Counter(3); c != 2 {
		t.Fatalf("counter = %d, want 2 (major 0, minor 2)", c)
	}
	// Force a group re-encryption via block 0 and check block 3's counter
	// jumped to major 1, minor 0.
	for i := 0; i < 128; i++ {
		s.Touch(0)
	}
	if c := s.Counter(3); c != 1<<MinorBits {
		t.Fatalf("after group re-encrypt, counter = %d, want %d", c, 1<<MinorBits)
	}
}

func TestDeltaResetOnConvergence(t *testing.T) {
	// Sequential sweeps: all deltas converge to the same value, which must
	// trigger resets and prevent re-encryption entirely (Figure 5b).
	s := NewDelta()
	for sweep := 0; sweep < 1000; sweep++ {
		for b := uint64(0); b < GroupBlocks; b++ {
			out := s.Touch(b)
			if b == GroupBlocks-1 && !out.Reset {
				t.Fatalf("sweep %d: last write should trigger reset", sweep)
			}
			if out.Reencrypted {
				t.Fatalf("sweep %d: sequential writes must never re-encrypt", sweep)
			}
		}
	}
	st := s.Stats()
	if st.Resets != 1000 || st.Reencryptions != 0 {
		t.Fatalf("stats %+v", st)
	}
	// Counters must equal the number of writes per block.
	for b := uint64(0); b < GroupBlocks; b++ {
		if c := s.Counter(b); c != 1000 {
			t.Fatalf("block %d counter = %d, want 1000", b, c)
		}
	}
}

func TestDeltaReencode(t *testing.T) {
	// Write every block once (deltas all 1 would reset; avoid by writing
	// block 0 twice first so deltas are unequal).
	s := NewDelta()
	s.Touch(0) // delta[0]=1
	s.Touch(0) // delta[0]=2
	for b := uint64(1); b < GroupBlocks; b++ {
		s.Touch(b) // deltas: [2,1,1,...,1]
	}
	// Now hammer block 0 to the 7-bit limit; Δmin = 1 > 0, so the first
	// overflow must re-encode, not re-encrypt.
	var sawReencode bool
	for i := 0; i < 126; i++ {
		out := s.Touch(0)
		if out.Reencrypted {
			t.Fatal("re-encryption despite Δmin > 0")
		}
		if out.Reencoded {
			sawReencode = true
		}
	}
	if !sawReencode {
		t.Fatal("expected a re-encode")
	}
	if s.Stats().Reencodes == 0 {
		t.Fatal("stats missed the re-encode")
	}
}

func TestDeltaReencodePreservesCounters(t *testing.T) {
	s := NewDelta()
	// Build unequal deltas with Δmin > 0.
	for b := uint64(0); b < GroupBlocks; b++ {
		s.Touch(b)
	}
	// All deltas now reset to 0 (they converged). Build again unevenly.
	s.Touch(0)
	s.Touch(0)
	for b := uint64(1); b < GroupBlocks; b++ {
		s.Touch(b)
	}
	want := make([]uint64, GroupBlocks)
	for b := range want {
		want[b] = s.Counter(uint64(b))
	}
	// Push block 0 to overflow → re-encode. Every other block's counter
	// must be unchanged. Block 0's delta overflows within deltaMax touches,
	// so a scheme that has not re-encoded by twice that never will.
	for touches := 0; s.Stats().Reencodes == 0; touches++ {
		if touches == 2*deltaMax {
			t.Fatalf("no re-encode after %d touches of block 0", touches)
		}
		s.Touch(0)
		want[0]++
	}
	for b := 1; b < GroupBlocks; b++ {
		if got := s.Counter(uint64(b)); got != want[b] {
			t.Fatalf("re-encode changed block %d counter %d -> %d", b, want[b], got)
		}
	}
	if got := s.Counter(0); got != want[0] {
		t.Fatalf("block 0 counter = %d, want %d", got, want[0])
	}
}

func TestDeltaReencryptWhenMinZero(t *testing.T) {
	// Only block 0 is ever written: Δmin stays 0, so overflow at 127
	// writes must re-encrypt with the overflowing counter as reference.
	s := NewDelta()
	var reenc int
	s.OnReencrypt(func(start uint64, old []uint64, newCounter uint64) {
		reenc++
		if newCounter != 128 {
			t.Fatalf("new counter = %d, want 128", newCounter)
		}
		if old[0] != 127 {
			t.Fatalf("old[0] = %d, want 127", old[0])
		}
		if old[1] != 0 {
			t.Fatalf("old[1] = %d, want 0", old[1])
		}
	})
	for i := 0; i < 127; i++ {
		if out := s.Touch(0); out.Reencrypted {
			t.Fatalf("premature re-encryption at write %d", i)
		}
	}
	out := s.Touch(0)
	if !out.Reencrypted || out.Counter != 128 {
		t.Fatalf("write 128: %+v", out)
	}
	if reenc != 1 {
		t.Fatalf("hook calls = %d", reenc)
	}
	// Untouched blocks jumped to the new reference.
	if c := s.Counter(1); c != 128 {
		t.Fatalf("block 1 counter = %d, want 128", c)
	}
}

func TestDeltaBeatsSplitOnSequentialWrites(t *testing.T) {
	// The headline property behind Table 2: spatially local writes cause
	// split-counter re-encryptions but zero delta re-encryptions.
	split, delta := NewSplit(), NewDelta()
	for sweep := 0; sweep < 200; sweep++ {
		for b := uint64(0); b < GroupBlocks; b++ {
			split.Touch(b)
			delta.Touch(b)
		}
	}
	if split.Stats().Reencryptions == 0 {
		t.Fatal("split counters should re-encrypt under 200 sweeps")
	}
	if delta.Stats().Reencryptions != 0 {
		t.Fatalf("delta re-encrypted %d times on sequential writes", delta.Stats().Reencryptions)
	}
}

func TestDualLengthExtension(t *testing.T) {
	s := NewDualLength()
	// 63 writes fill the 6-bit delta; the 64th must extend, not re-encrypt.
	for i := 0; i < shortMax; i++ {
		out := s.Touch(0)
		if out.Extended || out.Reencrypted {
			t.Fatalf("write %d: %+v", i, out)
		}
	}
	out := s.Touch(0)
	if !out.Extended || out.Reencrypted {
		t.Fatalf("write 64 should extend: %+v", out)
	}
	if s.Stats().Extensions != 1 {
		t.Fatalf("stats %+v", s.Stats())
	}
	// With 10-bit room, writes continue to 1023 before trouble.
	for i := shortMax + 1; i < longMax; i++ {
		out := s.Touch(0)
		if out.Reencrypted || out.Extended {
			t.Fatalf("write %d: %+v", i, out)
		}
	}
	out = s.Touch(0)
	if !out.Reencrypted {
		t.Fatal("10-bit overflow with Δmin=0 must re-encrypt")
	}
	if got := s.Counter(0); got != longMax+1 {
		t.Fatalf("counter = %d, want %d", got, longMax+1)
	}
}

func TestDualLengthSecondGroupOverflowReencrypts(t *testing.T) {
	// Fill block 0 (delta-group 0) past 6 bits -> extension assigned.
	// Then fill block 16 (delta-group 1) past 6 bits: reserve is spent and
	// Δmin = 0, so re-encryption is forced. This is the facesim pathology
	// the paper describes for Table 2.
	s := NewDualLength()
	for i := 0; i <= shortMax; i++ {
		s.Touch(0)
	}
	if s.Stats().Extensions != 1 {
		t.Fatal("extension not assigned")
	}
	for i := 0; i < shortMax; i++ {
		s.Touch(16)
	}
	// The group re-encrypts above block 0's extended delta.
	if out := s.Touch(16); !out.Reencrypted || out.Counter != shortMax+2 {
		t.Fatalf("second delta-group overflow: %+v, want a re-encryption at %d", out, shortMax+2)
	}
	// The re-encryption zeroes every delta, so like a reset it frees the
	// reserve: the next overflow, in delta-group 2, extends.
	for i := 0; i < shortMax; i++ {
		s.Touch(32)
	}
	if out := s.Touch(32); !out.Extended || out.Reencrypted {
		t.Fatalf("overflow after the re-encryption: %+v, want an extension", out)
	}
	if st := s.Stats(); st.Extensions != 2 || st.Reencryptions != 1 {
		t.Fatalf("stats %+v, want 2 extensions and 1 re-encryption", st)
	}
	if got, want := s.Counter(32), uint64(shortMax+2+shortMax+1); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
}

func TestDualLengthResetFreesReserve(t *testing.T) {
	s := NewDualLength()
	// Assign the reserve to delta-group 0 via block 0 (64 writes).
	for i := 0; i <= shortMax; i++ {
		s.Touch(0)
	}
	// Bring every other block to delta 63. Block 0 stays at 64, so no
	// all-equal reset can fire yet.
	for b := uint64(1); b < GroupBlocks; b++ {
		for i := 0; i < shortMax; i++ {
			s.Touch(b)
		}
	}
	// One more write to block 16 overflows its 6-bit slot; Δmin is 63, so
	// it re-encodes: deltas become [1, 0, ..., 0], then delta[16] = 1.
	if out := s.Touch(16); !out.Reencoded || out.Reencrypted {
		t.Fatalf("expected re-encode, got %+v", out)
	}
	// Touch every block except 0 and 16 once: all deltas converge to 1 and
	// the reset must fire, freeing the reserve.
	for b := uint64(1); b < GroupBlocks; b++ {
		if b == 16 {
			continue
		}
		s.Touch(b)
	}
	if s.Stats().Resets == 0 {
		t.Fatal("expected a reset")
	}
	// After the reset, a fresh overflow in delta-group 1 must get the
	// reserve instead of re-encrypting.
	before := s.Stats().Extensions
	for i := 0; i <= shortMax; i++ {
		if out := s.Touch(20); out.Reencrypted {
			t.Fatal("re-encrypted despite freed reserve")
		}
	}
	if s.Stats().Extensions != before+1 {
		t.Fatal("reset did not free the reserve")
	}
}

func TestMetadataGeometry(t *testing.T) {
	cases := []struct {
		s            Scheme
		bits         float64
		perImage     uint64 // data blocks per metadata block
		metaOf70     uint64
		blocksFor100 uint64
	}{
		{NewMonolithic(), 64, CountersPerMetadataBlock, 8, 13},
		{NewSplit(), 8, GroupBlocks, 1, 2},
		{NewDelta(), 7.875, GroupBlocks, 1, 2},
		{NewDualLength(), 8, GroupBlocks, 1, 2},
	}
	for _, c := range cases {
		if got := c.s.MetadataBits(); got != c.bits {
			t.Errorf("%s MetadataBits = %v, want %v", c.s.Name(), got, c.bits)
		}
		if c.s.MetadataBlock(c.perImage-1) != 0 || c.s.MetadataBlock(c.perImage) != 1 {
			t.Errorf("%s: metadata block 0 does not hold exactly blocks 0..%d", c.s.Name(), c.perImage-1)
		}
		if got := c.s.MetadataBlock(70); got != c.metaOf70 {
			t.Errorf("%s MetadataBlock(70) = %d, want %d", c.s.Name(), got, c.metaOf70)
		}
		if got := c.s.MetadataBlocks(100); got != c.blocksFor100 {
			t.Errorf("%s MetadataBlocks(100) = %d, want %d", c.s.Name(), got, c.blocksFor100)
		}
	}
}

func TestStatsWritesCount(t *testing.T) {
	for _, s := range allSchemes() {
		for i := 0; i < 1234; i++ {
			s.Touch(uint64(i % 100))
		}
		if w := s.Stats().Writes; w != 1234 {
			t.Errorf("%s: writes = %d", s.Name(), w)
		}
	}
}

// TestTouchAllocatesNothing pins the write path's counter step at zero
// allocations once a group exists — through every escalation a Touch can
// take (reset, re-encode, extension, re-encryption with a hook installed).
func TestTouchAllocatesNothing(t *testing.T) {
	for _, s := range allSchemes() {
		s.OnReencrypt(func(uint64, []uint64, uint64) {})
		round := func() {
			for b := uint64(0); b < GroupBlocks; b++ {
				s.Touch(b) // lockstep: every delta equal -> reset
			}
			for i := 0; i < 2*longMax; i++ {
				s.Touch(0) // the minimum is 0: extend, then re-encrypt
			}
			for b := uint64(1); b < GroupBlocks; b++ {
				s.Touch(b)
				s.Touch(b % 8) // uneven, minimum above 0
			}
			for i := 0; i < 2*longMax; i++ {
				s.Touch(1) // re-encode first, re-encrypt once the minimum is spent
			}
		}
		round() // creates the group
		if n := testing.AllocsPerRun(5, round); n != 0 {
			t.Errorf("%s: %v allocations per round of Touches, want 0", s.Name(), n)
		}
		st := s.Stats()
		grouped := s.MetadataBlock(GroupBlocks-1) == 0 // one image per group
		if grouped && st.Reencryptions == 0 {
			t.Errorf("%s: rounds never re-encrypted: %+v", s.Name(), st)
		}
		switch s.(type) {
		case *DeltaScheme:
			if st.Resets == 0 || st.Reencodes == 0 {
				t.Errorf("%s: rounds never reset or never re-encoded: %+v", s.Name(), st)
			}
		}
		if d, ok := s.(*DeltaScheme); ok && d.kind == DualLength && st.Extensions == 0 {
			t.Errorf("%s: rounds never extended: %+v", s.Name(), st)
		}
	}
}

func BenchmarkTouchDelta(b *testing.B) {
	s := NewDelta()
	for i := 0; i < b.N; i++ {
		s.Touch(uint64(i) % 4096)
	}
}

// BenchmarkTouchDeltaStride is stackbench's ctr.touch_ref kernel: a stride
// of 67 blocks over 65 536 walks groups and slots alike, so nearly every
// Touch lands in another group and none resets.
func BenchmarkTouchDeltaStride(b *testing.B) {
	s := NewDelta()
	for i := 0; i < b.N; i++ {
		s.Touch(uint64(i) * 67 % (1 << 16))
	}
}

func BenchmarkTouchSplit(b *testing.B) {
	s := NewSplit()
	for i := 0; i < b.N; i++ {
		s.Touch(uint64(i) % 4096)
	}
}

func BenchmarkTouchDualLength(b *testing.B) {
	s := NewDualLength()
	for i := 0; i < b.N; i++ {
		s.Touch(uint64(i) % 4096)
	}
}

package ctr

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Tests of the dense scheme state: each scheme keeps one slice of 64-byte
// metadata images (its embedded table) whose zero element is the initial
// state. Only Touch and LoadMetadata may grow it; a grow copies the slice,
// so any path that grew it while a caller held a pointer into it would
// strand that pointer's later writes.

// tableOf is a scheme's embedded image table.
func tableOf(t *testing.T, s Scheme) *table {
	t.Helper()
	switch s := s.(type) {
	case *MonolithicScheme:
		return &s.table
	case *SplitScheme:
		return &s.table
	case *DeltaScheme:
		return &s.table
	}
	t.Fatalf("no image table in %T", s)
	return nil
}

// stateLen is the length of a scheme's state slice.
func stateLen(t *testing.T, s Scheme) int {
	t.Helper()
	return len(tableOf(t, s).images)
}

// initialImage is a never-written metadata block's image in the layout of
// the scheme's state slice, from the bit-serial reference packers
// (reference_test.go).
func initialImage(t *testing.T, s Scheme) [MetadataBlockBytes]byte {
	t.Helper()
	var zeros [GroupBlocks]uint16
	var img [MetadataBlockBytes]byte
	var err error
	switch k := tableOf(t, s).kind; k {
	case Monolithic:
		// Eight zero counters in 64-bit slots.
	case Split:
		img = refPackSplit(0, &zeros)
	case Delta:
		img, err = refPackDelta(0, &zeros)
	case DualLength:
		img, err = refPackDualLength(0, &zeros, -1)
	default:
		t.Fatalf("no initial image for layout %v", k)
	}
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestReadPastEndNeitherGrowsNorAllocates: Counter and PackMetadata of a
// block or metadata block past the end of the state slice answer with the
// initial state, leave the slice as it is and allocate nothing — before
// any write, and after one.
func TestReadPastEndNeitherGrowsNorAllocates(t *testing.T) {
	for _, s := range allSchemes() {
		want := initialImage(t, s)
		for _, written := range []bool{false, true} {
			if written {
				s.Touch(3)
			}
			n := stateLen(t, s)
			for _, blk := range []uint64{(uint64(n) + 1) * GroupBlocks, 1 << 26, 1 << 46} {
				if got := s.Counter(blk); got != 0 {
					t.Errorf("%s: Counter(%d) past the end = %d, want 0", s.Name(), blk, got)
				}
				if got := s.PackMetadata(s.MetadataBlock(blk)); got != want {
					t.Errorf("%s: PackMetadata(%d) past the end = %x, want the initial image %x",
						s.Name(), s.MetadataBlock(blk), got, want)
				}
				allocs := testing.AllocsPerRun(10, func() {
					s.Counter(blk)
					s.PackMetadata(s.MetadataBlock(blk))
				})
				if allocs != 0 {
					t.Errorf("%s: %v allocations per past-the-end read, want 0", s.Name(), allocs)
				}
				if got := stateLen(t, s); got != n {
					t.Fatalf("%s: reads past the end grew the state from %d to %d", s.Name(), n, got)
				}
			}
		}
	}
}

// TestHookReadsFarGroupMidSweep: a re-encryption hook that reads the
// counter and metadata image of a far-away group in the middle of the
// sweep must leave the swept group's new state intact. The scheme holds a
// pointer into its state slice across the hook; a read that grew the slice
// would send the post-hook commit to a dead copy.
func TestHookReadsFarGroupMidSweep(t *testing.T) {
	// The monolithic scheme never re-encrypts, so it never calls a hook.
	for _, s := range []Scheme{NewSplit(), NewDelta(), NewDualLength()} {
		const far = 1 << 20
		var newCounter uint64
		s.OnReencrypt(func(_ uint64, _ []uint64, c uint64) {
			newCounter = c
			s.Counter(far*GroupBlocks + 7)
			s.PackMetadata(far)
		})
		s.Touch(9) // the group exists before the sweep
		n := stateLen(t, s)
		var out WriteOutcome
		for i := 0; !out.Reencrypted; i++ {
			if i > 5000 {
				t.Fatalf("%s: no re-encryption after 5000 writes to one block", s.Name())
			}
			out = s.Touch(5)
		}
		if got := stateLen(t, s); got != n {
			t.Fatalf("%s: the hook's reads grew the state from %d to %d", s.Name(), n, got)
		}
		for b := uint64(0); b < GroupBlocks; b++ {
			want := newCounter
			if b == 5 {
				want = out.Counter
			}
			if got := s.Counter(b); got != want {
				t.Fatalf("%s: after the sweep Counter(%d) = %d, want %d", s.Name(), b, got, want)
			}
		}
		// The next write continues from the committed state.
		if got := s.Touch(9).Counter; got != newCounter+1 {
			t.Fatalf("%s: first write after the sweep got counter %d, want %d", s.Name(), got, newCounter+1)
		}
	}
}

// TestFarTouchKeepsHistory: touching metadata block 0, then metadata block
// 1<<20 (a grow by far more than doubling), then block 0 again keeps
// metadata block 0's history.
func TestFarTouchKeepsHistory(t *testing.T) {
	for _, s := range allSchemes() {
		for i := 0; i < 40; i++ {
			s.Touch(uint64(i % 3))
		}
		before := s.PackMetadata(0)
		c0 := s.Counter(0)
		// GroupBlocks data blocks span GroupBlocks/perImage images.
		perImage := GroupBlocks / s.MetadataBlock(GroupBlocks)
		far := uint64(1<<20) * perImage
		if got := s.Touch(far).Counter; got != 1 {
			t.Fatalf("%s: first write to block %d got counter %d, want 1", s.Name(), far, got)
		}
		if got := stateLen(t, s); uint64(got) <= s.MetadataBlock(far) {
			t.Fatalf("%s: state length %d does not cover block %d", s.Name(), got, far)
		}
		if got := s.PackMetadata(0); got != before {
			t.Fatalf("%s: group 0's image changed across a far write:\n%x\nwant\n%x", s.Name(), got, before)
		}
		if got := s.Touch(0).Counter; got <= c0 {
			t.Fatalf("%s: block 0 counter %d after a far write, was %d", s.Name(), got, c0)
		}
		if got := s.Counter(far); got != 1 {
			t.Fatalf("%s: Counter(%d) = %d, want 1", s.Name(), far, got)
		}
	}
}

// FuzzSchemeStateMachine decodes bytes into a sequence of Touch steps on
// near and far groups and LoadMetadata steps, runs it on every scheme, and
// holds each to the shadow tracker's no-pad-reuse invariant
// (property_test.go) after every step; every Touch of a DeltaScheme or a
// SplitScheme is also held to the unpacked reference rule, image for image
// (lockstep). A LoadMetadata step reloads a group's own image in place
// (which must change nothing); at the end every touched metadata block must
// survive PackMetadata → LoadMetadata (into a fresh scheme) → PackMetadata
// bit for bit.
func FuzzSchemeStateMachine(f *testing.F) {
	f.Add(bytes.Repeat([]byte{0xF8, 5}, 10))                    // one hot block: re-encryptions
	f.Add(bytes.Repeat([]byte{0xF8, 3, 0xF9, 7, 3, 0}, 6))      // a hot pair, reloads
	f.Add(bytes.Repeat([]byte{0x78, 17, 0x7C, 2, 3, 129}, 8))   // near and far, reloads
	f.Add(bytes.Repeat([]byte{0xF8, 5, 0xF8, 20, 0xF8, 40}, 6)) // three delta-groups
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		for _, kind := range kindsUnderTest {
			runStateMachine(t, kind, data)
		}
	})
}

func runStateMachine(t *testing.T, kind Kind, data []byte) {
	s, err := NewScheme(kind)
	if err != nil {
		t.Fatal(err)
	}
	shadow := newShadow(t)
	s.OnReencrypt(shadow.hook)
	touch := s.Touch
	if kind != Monolithic {
		// Every write is also held to the unpacked reference rule.
		touch = newLockstep(t, s, shadow.hook).touch
	}
	touched := map[uint64]bool{} // metadata blocks
	for i := 0; i+1 < len(data); i += 2 {
		// Step: op bits 0-1 pick Touch (0-2) or a reload (3), bit 2 a
		// far group, bits 3-7 the Touch's repeat count minus one; arg
		// picks the block. Near steps stay in the first two groups,
		// where overflows happen; far steps land 1024+ groups out.
		op, arg := data[i], uint64(data[i+1])
		group := arg >> 6 & 1
		if op&4 != 0 {
			group = 1024 + arg
		}
		blk := group*GroupBlocks + arg%GroupBlocks
		m := s.MetadataBlock(blk)
		touched[m] = true
		switch op & 3 {
		case 0, 1, 2:
			for n := op>>3 + 1; n > 0; n-- {
				shadow.pending, shadow.hasPending = blk, true
				out := touch(blk)
				shadow.hasPending = false
				shadow.encrypt(blk, out.Counter)
				if got := s.Counter(blk); got != out.Counter {
					t.Fatalf("%s: Counter(%d) = %d after Touch returned %d", s.Name(), blk, got, out.Counter)
				}
			}
		case 3:
			img := s.PackMetadata(m)
			if err := s.LoadMetadata(m, img); err != nil {
				t.Fatalf("%s: LoadMetadata of its own image: %v", s.Name(), err)
			}
			if got := s.PackMetadata(m); got != img {
				t.Fatalf("%s: reloading metadata block %d changed its image", s.Name(), m)
			}
		}
	}
	for blk, want := range shadow.counter {
		if got := s.Counter(blk); got != want {
			t.Fatalf("%s: final Counter(%d) = %d, shadow says %d", s.Name(), blk, got, want)
		}
	}
	fresh, _ := NewScheme(kind)
	for m := range touched {
		img := s.PackMetadata(m)
		if err := fresh.LoadMetadata(m, img); err != nil {
			t.Fatalf("%s: LoadMetadata(%d) rejected a packed image: %v", s.Name(), m, err)
		}
		if got := fresh.PackMetadata(m); got != img {
			t.Fatalf("%s: metadata block %d does not round-trip through LoadMetadata", s.Name(), m)
		}
	}
	for blk, want := range shadow.counter {
		if got := fresh.Counter(blk); got != want {
			t.Fatalf("%s: restored Counter(%d) = %d, want %d", s.Name(), blk, got, want)
		}
	}
}

// TestPackedTouchMatchesReference holds the in-place Touch of DeltaScheme
// (both layouts) and of SplitScheme to the unpacked reference rule
// (reference_test.go): after every write the whole group image, the
// outcome, the stats and every re-encryption hook's arguments must match.
// Each case names the events its writes must provoke, so a case that stops
// reaching its path fails.
func TestPackedTouchMatchesReference(t *testing.T) {
	repeat := func(block uint64, n int) []uint64 {
		w := make([]uint64, n)
		for j := range w {
			w[j] = block
		}
		return w
	}
	// sweep writes n rounds of blocks from..63 of the group at base,
	// skipping skip.
	sweep := func(base, from uint64, n int, skip uint64) []uint64 {
		var w []uint64
		for r := 0; r < n; r++ {
			for b := from; b < GroupBlocks; b++ {
				if b != skip {
					w = append(w, base+b)
				}
			}
		}
		return w
	}
	far := uint64(1000 * GroupBlocks)
	type refCase struct {
		name   string
		kind   Kind
		writes []uint64
		want   func(Stats) bool // the events the writes must reach
	}
	cases := []refCase{
		{"delta-7 reset", Delta, slices.Concat(sweep(0, 0, 3, GroupBlocks), sweep(far, 0, 2, GroupBlocks)),
			func(st Stats) bool { return st.Resets == 5 }},
		{"delta-7 re-encode, then re-encryption", Delta,
			slices.Concat(repeat(0, 2), sweep(0, 1, 1, GroupBlocks), repeat(0, 3*deltaMax)),
			func(st Stats) bool { return st.Reencodes > 0 && st.Reencryptions > 0 }},
		{"delta-7 re-encryption of a far group", Delta, repeat(far+9, 3*deltaMax),
			func(st Stats) bool { return st.Reencryptions == 2 }},
		{"dual reserve assignment", DualLength, repeat(3, shortMax+1),
			func(st Stats) bool { return st.Extensions == 1 }},
		{"dual extended-slot overflow", DualLength, repeat(far+50, 2*(longMax+1)),
			func(st Stats) bool { return st.Extensions == 2 && st.Reencryptions == 2 }},
		{"dual extended-slot re-encode", DualLength,
			slices.Concat(repeat(0, 2), sweep(0, 1, 1, GroupBlocks), repeat(0, 2*longMax)),
			func(st Stats) bool { return st.Extensions > 0 && st.Reencodes > 0 && st.Reencryptions > 0 }},
		{"dual re-encode and reset with the reserve held", DualLength,
			slices.Concat(repeat(0, shortMax+1), sweep(0, 1, shortMax, GroupBlocks), repeat(16, 1), sweep(0, 1, 1, 16), repeat(20, shortMax+1)),
			func(st Stats) bool { return st.Extensions == 2 && st.Reencodes == 1 && st.Resets == 1 }},
		{"dual second delta-group overflow", DualLength, slices.Concat(repeat(0, shortMax+1), repeat(16, shortMax+1)),
			func(st Stats) bool { return st.Extensions == 1 && st.Reencryptions == 1 }},
		// Split counters have no reset: the delta-7 reset run only raises
		// every minor.
		{"split-7 reset-free run", Split, slices.Concat(sweep(0, 0, 3, GroupBlocks), sweep(far, 0, 2, GroupBlocks)),
			func(st Stats) bool { return st.Writes == 5*GroupBlocks && st.Reencryptions == 0 }},
		// Minors 55 and 56 sit on either side of the last word, whose
		// access is pulled back to byte 56; minor 63 ends the image.
		{"split-7 overflow of a near group", Split,
			slices.Concat(sweep(0, 1, 1, GroupBlocks), repeat(55, minorMax), repeat(56, minorMax+1), repeat(GroupBlocks-1, 2*(minorMax+1))),
			func(st Stats) bool { return st.Reencryptions == 4 }},
		{"split-7 overflow of a far group", Split, slices.Concat(repeat(far+9, 3*(minorMax+1)), repeat(far, 2)),
			func(st Stats) bool { return st.Reencryptions == 3 }},
	}
	// Two skewed random mixes reach every event together: half the writes
	// scatter over group 0, whose two hot blocks overflow into re-encodes
	// or, when the scatter missed a block, re-encryptions; group 1 has
	// only a hot block.
	skewed := func(hot ...uint64) []uint64 {
		rng := rand.New(rand.NewSource(47))
		var w []uint64
		for range 40000 {
			if rng.Intn(2) == 0 {
				w = append(w, uint64(rng.Intn(GroupBlocks)))
			} else {
				w = append(w, hot[rng.Intn(len(hot))])
			}
		}
		return w
	}
	for _, kind := range []Kind{Delta, DualLength} {
		dual := kind == DualLength
		cases = append(cases, refCase{fmt.Sprintf("skewed mix (dual %v)", dual), kind, skewed(3, DeltasPerGroup+2, GroupBlocks+7),
			func(st Stats) bool { return st.Reencodes > 0 && st.Reencryptions > 0 && (!dual || st.Extensions > 0) }})
	}
	// The split mix adds a hot minor in the last word.
	cases = append(cases, refCase{"split-7 skewed mix", Split, skewed(3, DeltasPerGroup+2, GroupBlocks-2, GroupBlocks+7),
		func(st Stats) bool { return st.Reencryptions > 0 }})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := NewScheme(c.kind)
			if err != nil {
				t.Fatal(err)
			}
			l := newLockstep(t, s, nil)
			for _, b := range c.writes {
				l.touch(b)
			}
			if st := s.Stats(); !c.want(st) {
				t.Fatalf("the writes did not reach the case's events: %+v", st)
			}
		})
	}
}

package ctr

import (
	"math/rand"
	"testing"
)

// The word-level codec in pack.go against the bit-serial reference in
// reference_test.go: same bytes out of every packer, same values and same
// verdict out of every unpacker, same counter out of every single-slot
// decoder — on canonical states, on out-of-range states and on arbitrary
// (non-canonical, attacker-shaped) images. The fuzz targets run the same
// image checks on whatever the fuzzer finds.

func sameError(t *testing.T, what string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("%s: error %v, reference %v", what, got, want)
	}
}

// slotDecoders pairs each layout's single-slot decoder with its reference.
var slotDecoders = map[Kind]struct {
	prod func(*[MetadataBlockBytes]byte, int) (uint64, error)
	ref  func([MetadataBlockBytes]byte, int) (uint64, error)
}{
	Monolithic: {DecodeMonolithicCounter, refDecodeMonolithicCounter},
	Split:      {DecodeSplitCounter, refDecodeSplitCounter},
	Delta:      {DecodeCounter, refDecodeCounter},
	DualLength: {DecodeDualCounter, refDecodeDualCounter},
}

// checkSlot compares layout k's decode of slot i — in range or not — of an
// arbitrary image.
func checkSlot(t *testing.T, k Kind, img [MetadataBlockBytes]byte, i int) {
	t.Helper()
	got, err := slotDecoders[k].prod(&img, i)
	want, wantErr := slotDecoders[k].ref(img, i)
	sameError(t, k.String()+" decode", err, wantErr)
	if got != want {
		t.Fatalf("%s decode of slot %d of %x = %#x, reference %#x", k, i, img, got, want)
	}
}

// checkLayout compares layout k's unpack, and its decode of every slot, of
// an arbitrary image.
func checkLayout(t *testing.T, k Kind, img [MetadataBlockBytes]byte) {
	t.Helper()
	switch k {
	case Delta:
		ref, deltas, err := UnpackDelta(img)
		wantRef, wantDeltas, wantErr := refUnpackDelta(img)
		sameError(t, "UnpackDelta", err, wantErr)
		if ref != wantRef || deltas != wantDeltas {
			t.Fatalf("UnpackDelta(%x) = %#x %v, reference %#x %v", img, ref, deltas, wantRef, wantDeltas)
		}
	case DualLength:
		ref, deltas, ext, err := UnpackDualLength(img)
		wantRef, wantDeltas, wantExt, wantErr := refUnpackDualLength(img)
		sameError(t, "UnpackDualLength", err, wantErr)
		if ref != wantRef || deltas != wantDeltas || ext != wantExt {
			t.Fatalf("UnpackDualLength(%x) = %#x %v %d, reference %#x %v %d", img, ref, deltas, ext, wantRef, wantDeltas, wantExt)
		}
	case Split:
		major, minors := UnpackSplit(img)
		if wantMajor, wantMinors := refUnpackSplit(img); major != wantMajor || minors != wantMinors {
			t.Fatalf("UnpackSplit(%x) = %#x %v, reference %#x %v", img, major, minors, wantMajor, wantMinors)
		}
	case Monolithic:
		for i, c := range UnpackMonolithic(img) {
			if want, _ := refDecodeMonolithicCounter(img, i); c != want {
				t.Fatalf("UnpackMonolithic(%x)[%d] = %#x, reference %#x", img, i, c, want)
			}
		}
	}
	for i := -1; i <= GroupBlocks; i++ {
		checkSlot(t, k, img, i)
	}
}

// checkImage reads an arbitrary image as each of the four layouts.
func checkImage(t *testing.T, img [MetadataBlockBytes]byte) {
	t.Helper()
	for k := range slotDecoders {
		checkLayout(t, k, img)
	}
}

// checkLoadedCounters restores a canonical image into a fresh scheme and
// holds every slot's single-counter decode to Scheme.Counter.
func checkLoadedCounters(t *testing.T, k Kind, img [MetadataBlockBytes]byte) {
	t.Helper()
	s, _ := NewScheme(k)
	if err := s.(MetadataLoader).LoadMetadata(0, img); err != nil {
		t.Fatalf("%s: canonical image %x rejected: %v", k, img, err)
	}
	if back := s.(MetadataPacker).PackMetadata(0); back != img {
		t.Fatalf("%s: LoadMetadata/PackMetadata changed the image:\n got %x\nwant %x", k, back, img)
	}
	slots := GroupBlocks
	if k == Monolithic {
		slots = CountersPerMetadataBlock
	}
	for i := 0; i < slots; i++ {
		got, err := slotDecoders[k].prod(&img, i)
		if err != nil {
			t.Fatal(err)
		}
		if want := s.Counter(uint64(i)); got != want {
			t.Fatalf("%s slot %d: decode %#x, Scheme.Counter %#x", k, i, got, want)
		}
	}
}

func checkDeltaState(t *testing.T, ref uint64, deltas [GroupBlocks]uint16) {
	t.Helper()
	img, err := PackDelta(ref, &deltas)
	want, wantErr := refPackDelta(ref, &deltas)
	sameError(t, "PackDelta", err, wantErr)
	if err != nil {
		return
	}
	if img != want {
		t.Fatalf("PackDelta(%#x, %v):\n got %x\nwant %x", ref, deltas, img, want)
	}
	checkLayout(t, Delta, img)
	checkLoadedCounters(t, Delta, img)
}

func checkDualState(t *testing.T, ref uint64, deltas [GroupBlocks]uint16, extended int8) {
	t.Helper()
	img, err := PackDualLength(ref, &deltas, extended)
	want, wantErr := refPackDualLength(ref, &deltas, extended)
	sameError(t, "PackDualLength", err, wantErr)
	if err != nil {
		return
	}
	if img != want {
		t.Fatalf("PackDualLength(%#x, %v, %d):\n got %x\nwant %x", ref, deltas, extended, img, want)
	}
	checkLayout(t, DualLength, img)
	checkLoadedCounters(t, DualLength, img)
}

func checkSplitState(t *testing.T, major uint64, minors [GroupBlocks]uint16) {
	t.Helper()
	img := PackSplit(major, &minors)
	if want := refPackSplit(major, &minors); img != want {
		t.Fatalf("PackSplit(%#x, %v):\n got %x\nwant %x", major, minors, img, want)
	}
	checkLayout(t, Split, img)
	checkLoadedCounters(t, Split, img)
}

func checkMonolithicState(t *testing.T, counters [CountersPerMetadataBlock]uint64) {
	t.Helper()
	img := PackMonolithic(&counters)
	var want bitString
	for i, c := range counters {
		want.put(64*i, 64, c)
	}
	if img != want.b {
		t.Fatalf("PackMonolithic(%v):\n got %x\nwant %x", counters, img, want.b)
	}
	checkLayout(t, Monolithic, img)
	checkLoadedCounters(t, Monolithic, img)
}

// fieldStates yields the boundary and random field arrays for a layout whose
// slot i may hold at most limit(i): all-zero, all-max, each field max beside
// zero neighbours, each field zero beside max neighbours, one past the limit
// in each slot (and in two, so the first offender is the one reported),
// and random fills.
func fieldStates(rng *rand.Rand, limit func(i int) uint16, visit func([GroupBlocks]uint16)) {
	var zero, max [GroupBlocks]uint16
	for i := range max {
		max[i] = limit(i)
	}
	visit(zero)
	visit(max)
	for i := 0; i < GroupBlocks; i++ {
		one, hole, over := zero, max, zero
		one[i], hole[i], over[i] = limit(i), 0, limit(i)+1
		visit(one)
		visit(hole)
		visit(over)
		over[(i+17)%GroupBlocks] = 0xFFFF
		visit(over)
	}
	for n := 0; n < 200; n++ {
		var f [GroupBlocks]uint16
		for i := range f {
			f[i] = uint16(rng.Intn(int(limit(i)) + 1))
		}
		visit(f)
	}
}

func TestCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	refs := []uint64{0, 1, 0x00AB_CDEF_0123_45, 1<<RefBits - 1, 1 << RefBits, ^uint64(0)}

	t.Run("delta-7", func(t *testing.T) {
		fieldStates(rng, func(int) uint16 { return deltaMax }, func(d [GroupBlocks]uint16) {
			for _, ref := range refs {
				checkDeltaState(t, ref, d)
			}
			checkDeltaState(t, rng.Uint64()&refMask, d)
		})
	})

	t.Run("dual-length", func(t *testing.T) {
		for extended := int8(-2); extended <= DeltaGroups; extended++ {
			limit := func(i int) uint16 {
				if extended == int8(i/DeltasPerGroup) {
					return longMax
				}
				return shortMax
			}
			fieldStates(rng, limit, func(d [GroupBlocks]uint16) {
				for _, ref := range refs {
					checkDualState(t, ref, d, extended)
				}
				checkDualState(t, rng.Uint64()&refMask, d, extended)
			})
			// A long delta outside the group that holds the reserve.
			var d [GroupBlocks]uint16
			d[(int(extended)+1+DeltaGroups)%DeltaGroups*DeltasPerGroup] = longMax
			checkDualState(t, 7, d, extended)
		}
	})

	t.Run("split-7", func(t *testing.T) {
		// PackSplit has no range error: it stores the low 7 bits, so the
		// one-past-the-limit states check the masking.
		fieldStates(rng, func(int) uint16 { return minorMax }, func(m [GroupBlocks]uint16) {
			for _, major := range []uint64{0, 1, 0xDEADBEEF, 1<<57 - 1, ^uint64(0), rng.Uint64()} {
				checkSplitState(t, major, m)
			}
		})
	})

	t.Run("monolithic-56", func(t *testing.T) {
		checkMonolithicState(t, [CountersPerMetadataBlock]uint64{})
		for n := 0; n < 200; n++ {
			var c [CountersPerMetadataBlock]uint64
			for i := range c {
				c[i] = rng.Uint64() >> uint(rng.Intn(64))
			}
			c[n%CountersPerMetadataBlock] = ^uint64(0)
			checkMonolithicState(t, c)
		}
	})

	// Arbitrary images: the verdict on non-canonical ones (nonzero pad,
	// spare bits, extension fields set with the flag clear) must match too.
	// Every single-bit image, its complement, and random bytes.
	t.Run("images", func(t *testing.T) {
		for bit := 0; bit < MetadataBlockBytes*8; bit++ {
			var img [MetadataBlockBytes]byte
			img[bit/8] = 1 << uint(bit%8)
			checkImage(t, img)
			for i := range img {
				img[i] = ^img[i]
			}
			checkImage(t, img)
		}
		for n := 0; n < 2000; n++ {
			var img [MetadataBlockBytes]byte
			rng.Read(img[:])
			if n%2 == 0 {
				img[dualTailByte] &^= 1 // flag clear over a random tail
			}
			checkImage(t, img)
		}
	})
}

// Sinks keep the measured calls' results alive.
var (
	sinkImage   [MetadataBlockBytes]byte
	sinkFields  [GroupBlocks]uint16
	sinkCounter uint64
)

func TestCodecAllocatesNothing(t *testing.T) {
	var fields [GroupBlocks]uint16
	for i := range fields {
		fields[i] = uint16(i % (shortMax + 1))
	}
	long := fields
	long[16] = longMax // legal only in dual-length's extended group
	counters := [CountersPerMetadataBlock]uint64{1, 2, 3, 4, 5, 6, 7, 8}
	delta, err := PackDelta(99, &fields)
	if err != nil {
		t.Fatal(err)
	}
	dual, err := PackDualLength(99, &long, 1)
	if err != nil {
		t.Fatal(err)
	}
	split := PackSplit(99, &fields)
	mono := PackMonolithic(&counters)

	cases := map[string]func(){
		"PackDelta":               func() { sinkImage, _ = PackDelta(99, &fields) },
		"PackDualLength":          func() { sinkImage, _ = PackDualLength(99, &long, 1) },
		"PackSplit":               func() { sinkImage = PackSplit(99, &fields) },
		"PackMonolithic":          func() { sinkImage = PackMonolithic(&counters) },
		"UnpackDelta":             func() { sinkCounter, sinkFields, _ = UnpackDelta(delta) },
		"UnpackDualLength":        func() { sinkCounter, sinkFields, _, _ = UnpackDualLength(dual) },
		"UnpackSplit":             func() { sinkCounter, sinkFields = UnpackSplit(split) },
		"UnpackMonolithic":        func() { sinkCounter = UnpackMonolithic(mono)[3] },
		"DecodeCounter":           func() { sinkCounter, _ = DecodeCounter(&delta, 63) },
		"DecodeDualCounter":       func() { sinkCounter, _ = DecodeDualCounter(&dual, 16) },
		"DecodeSplitCounter":      func() { sinkCounter, _ = DecodeSplitCounter(&split, 63) },
		"DecodeMonolithicCounter": func() { sinkCounter, _ = DecodeMonolithicCounter(&mono, 7) },
	}
	for _, k := range []Kind{Monolithic, Split, Delta, DualLength} {
		s, _ := NewScheme(k)
		for i := 0; i < 5000; i++ {
			s.Touch(uint64(i % 7))
		}
		p := s.(MetadataPacker)
		cases["PackMetadata/"+k.String()] = func() { sinkImage = p.PackMetadata(0) }
	}
	for name, fn := range cases {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
}

package ctr

import (
	"math/rand"
	"slices"
	"testing"
)

// The word-level codec in pack.go against the bit-serial reference in
// reference_test.go: same bytes out of every packer, same values and same
// verdict out of every unpacker, same counter out of every single-slot
// decoder — on canonical states, on out-of-range states and on arbitrary
// (non-canonical, attacker-shaped) images. The split and monolithic layouts
// have no whole-block codec: their scheme is their packer and unpacker
// (LoadMetadata then Counter, and PackMetadata after Touch). The fuzz
// targets run the same image checks on whatever the fuzzer finds.

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
		checkLoadVerdict(t, k, img, wantErr)
	case DualLength:
		ref, deltas, ext, err := UnpackDualLength(img)
		wantRef, wantDeltas, wantExt, wantErr := refUnpackDualLength(img)
		sameError(t, "UnpackDualLength", err, wantErr)
		if ref != wantRef || deltas != wantDeltas || ext != wantExt {
			t.Fatalf("UnpackDualLength(%x) = %#x %v %d, reference %#x %v %d", img, ref, deltas, ext, wantRef, wantDeltas, wantExt)
		}
		checkLoadVerdict(t, k, img, wantErr)
	case Split, Monolithic:
		checkSchemeImage(t, k, img)
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
// holds every slot's single-counter decode, and the scheme's StoredCounter,
// to Scheme.Counter.
func checkLoadedCounters(t *testing.T, k Kind, img [MetadataBlockBytes]byte) {
	t.Helper()
	s, _ := NewScheme(k)
	if err := s.LoadMetadata(0, img); err != nil {
		t.Fatalf("%s: canonical image %x rejected: %v", k, img, err)
	}
	if back := s.PackMetadata(0); back != img {
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
		if stored, err := s.StoredCounter(&img, uint64(i)); err != nil || stored != got {
			t.Fatalf("%s slot %d: StoredCounter %#x (%v), decode %#x", k, i, stored, err, got)
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

// checkLoadVerdict holds a delta layout's LoadMetadata of an arbitrary
// image to the reference unpacker's verdict: a rejected image leaves the
// scheme's state as it was, an accepted one (canonical, so its repack is
// itself) reads back as it is.
func checkLoadVerdict(t *testing.T, k Kind, img [MetadataBlockBytes]byte, wantErr error) {
	t.Helper()
	s, _ := NewScheme(k)
	err := s.LoadMetadata(0, img)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: LoadMetadata(%x) error %v, reference %v", k, img, err, wantErr)
	}
	if err != nil && stateLen(t, s) != 0 {
		t.Fatalf("%s: a rejected image grew the state", k)
	}
	if err == nil && s.PackMetadata(0) != img {
		t.Fatalf("%s: LoadMetadata/PackMetadata changed the accepted image %x", k, img)
	}
}

// checkSchemeImage holds a split or monolithic scheme's image to the
// bit-serial reference. Loaded into a fresh scheme, an arbitrary image must
// be taken as it is (neither layout has a pad or spare bit) and read back
// slot for slot as the reference decodes it. One Touch of each probed slot,
// each from the loaded image, must then leave the image and the outcome the
// reference rule gives: for split, refSplitScheme loaded with the
// reference unpack (lockstep, which also compares the stats and the hook's
// arguments); for monolithic, the slot's 64 bits plus one.
func checkSchemeImage(t *testing.T, k Kind, img [MetadataBlockBytes]byte) {
	t.Helper()
	load := func() Scheme {
		s, _ := NewScheme(k)
		if err := s.LoadMetadata(0, img); err != nil {
			t.Fatalf("%s: image %x rejected: %v", k, img, err)
		}
		return s
	}
	slots := GroupBlocks
	// Split probes the first minor, the end of the word before the last,
	// and both ends of the last word, whose access is pulled back to byte
	// 56.
	probes := []int{0, 55, 56, 63}
	if k == Monolithic {
		slots, probes = CountersPerMetadataBlock, []int{0, 1, 2, 3, 4, 5, 6, 7}
	}
	s := load()
	if back := s.PackMetadata(0); back != img {
		t.Fatalf("%s: LoadMetadata/PackMetadata changed the image:\n got %x\nwant %x", k, back, img)
	}
	major, minors := refUnpackSplit(img)
	for i := 0; i < slots; i++ {
		want := major<<MinorBits | uint64(minors[i])
		if k == Monolithic {
			want = (&bitString{b: img}).get(64*i, 64)
		}
		if got := s.Counter(uint64(i)); got != want {
			t.Fatalf("%s: Counter(%d) of loaded image %x = %#x, reference %#x", k, i, img, got, want)
		}
	}
	for _, i := range probes {
		s := load()
		if k == Split {
			l := newLockstep(t, s, nil)
			g := &refSplitGroup{major: major, minors: slices.Clone(minors[:])}
			l.ref.(*refSplitScheme).groups[0] = g
			l.touch(uint64(i))
			continue
		}
		want := bitString{b: img}
		c := want.get(64*i, 64) + 1
		want.put(64*i, 64, c)
		if got := s.Touch(uint64(i)); got != (WriteOutcome{Counter: c}) {
			t.Fatalf("%s: Touch(%d) of image %x = %+v, want counter %#x", k, i, img, got, c)
		}
		if got := s.PackMetadata(0); got != want.b {
			t.Fatalf("%s: after Touch(%d) of image %x:\n got %x\nwant %x", k, i, img, got, want.b)
		}
	}
}

// checkSplitState holds the split scheme to the reference on the image the
// bit-serial packer makes of a state (its minors' low 7 bits).
func checkSplitState(t *testing.T, major uint64, minors [GroupBlocks]uint16) {
	t.Helper()
	img := refPackSplit(major, &minors)
	checkLayout(t, Split, img)
	checkLoadedCounters(t, Split, img)
}

// checkMonolithicState does the same for eight monolithic counters.
func checkMonolithicState(t *testing.T, counters [CountersPerMetadataBlock]uint64) {
	t.Helper()
	var img bitString
	for i, c := range counters {
		img.put(64*i, 64, c)
	}
	checkLayout(t, Monolithic, img.b)
	checkLoadedCounters(t, Monolithic, img.b)
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
		// The reference packer stores the low 7 bits, so the
		// one-past-the-limit states are images whose minors wrapped.
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
	sinkErr     error
)

func TestCodecAllocatesNothing(t *testing.T) {
	var fields [GroupBlocks]uint16
	for i := range fields {
		fields[i] = uint16(i % (shortMax + 1))
	}
	long := fields
	long[16] = longMax // legal only in dual-length's extended group
	delta, err := PackDelta(99, &fields)
	if err != nil {
		t.Fatal(err)
	}
	dual, err := PackDualLength(99, &long, 1)
	if err != nil {
		t.Fatal(err)
	}
	split := refPackSplit(99, &fields)
	var mono [MetadataBlockBytes]byte
	mono[8] = 1

	cases := map[string]func(){
		"PackDelta":               func() { sinkImage, _ = PackDelta(99, &fields) },
		"PackDualLength":          func() { sinkImage, _ = PackDualLength(99, &long, 1) },
		"UnpackDelta":             func() { sinkCounter, sinkFields, _ = UnpackDelta(delta) },
		"UnpackDualLength":        func() { sinkCounter, sinkFields, _, _ = UnpackDualLength(dual) },
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
		img := s.PackMetadata(0)
		cases["PackMetadata/"+k.String()] = func() { sinkImage = s.PackMetadata(0) }
		cases["LoadMetadata/"+k.String()] = func() { sinkErr = s.LoadMetadata(0, img) }
	}
	for name, fn := range cases {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
}

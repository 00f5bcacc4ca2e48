package ctr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPackSplitRoundTrip(t *testing.T) {
	f := func(major uint64, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var minors [GroupBlocks]uint16
		for i := range minors {
			minors[i] = uint16(rng.Intn(minorMax + 1))
		}
		blk := PackSplit(major, &minors)
		gotMajor, gotMinors := UnpackSplit(blk)
		return gotMajor == major && gotMinors == minors
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPackDeltaRoundTrip(t *testing.T) {
	f := func(refSeed uint64, seed int64) bool {
		ref := refSeed & ((1 << RefBits) - 1)
		rng := rand.New(rand.NewSource(seed))
		var deltas [GroupBlocks]uint16
		for i := range deltas {
			deltas[i] = uint16(rng.Intn(deltaMax + 1))
		}
		blk, err := PackDelta(ref, &deltas)
		if err != nil {
			return false
		}
		gotRef, gotDeltas, err := UnpackDelta(blk)
		return err == nil && gotRef == ref && gotDeltas == deltas
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPackDeltaRejectsOutOfRange(t *testing.T) {
	var deltas [GroupBlocks]uint16
	if _, err := PackDelta(1<<RefBits, &deltas); err == nil {
		t.Fatal("57-bit reference should fail")
	}
	deltas[3] = deltaMax + 1
	if _, err := PackDelta(0, &deltas); err == nil {
		t.Fatal("8-bit delta should fail")
	}
}

func TestUnpackDeltaDetectsPadCorruption(t *testing.T) {
	var deltas [GroupBlocks]uint16
	blk, err := PackDelta(42, &deltas)
	if err != nil {
		t.Fatal(err)
	}
	blk[63] ^= 0x80 // bit 511 lives in the 8-bit pad
	if _, _, err := UnpackDelta(blk); err != ErrCorruptMetadata {
		t.Fatalf("want ErrCorruptMetadata, got %v", err)
	}
}

func TestPackDualLengthRoundTrip(t *testing.T) {
	f := func(refSeed uint64, seed int64, extSel uint8) bool {
		ref := refSeed & ((1 << RefBits) - 1)
		extended := int8(extSel%5) - 1 // -1..3
		rng := rand.New(rand.NewSource(seed))
		var deltas [GroupBlocks]uint16
		for i := range deltas {
			if extended == int8(i/DeltasPerGroup) {
				deltas[i] = uint16(rng.Intn(longMax + 1))
			} else {
				deltas[i] = uint16(rng.Intn(shortMax + 1))
			}
		}
		blk, err := PackDualLength(ref, &deltas, extended)
		if err != nil {
			return false
		}
		gotRef, gotDeltas, gotExt, err := UnpackDualLength(blk)
		return err == nil && gotRef == ref && gotDeltas == deltas && gotExt == extended
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPackDualLengthRejectsOutOfRange(t *testing.T) {
	var deltas [GroupBlocks]uint16
	if _, err := PackDualLength(1<<RefBits, &deltas, -1); err == nil {
		t.Fatal("57-bit reference should fail")
	}
	if _, err := PackDualLength(0, &deltas, 4); err == nil {
		t.Fatal("extended group 4 should fail")
	}
	if _, err := PackDualLength(0, &deltas, -2); err == nil {
		t.Fatal("extended group -2 should fail")
	}
	deltas[0] = shortMax + 1
	if _, err := PackDualLength(0, &deltas, -1); err == nil {
		t.Fatal("7-bit delta without extension should fail")
	}
	// The same value packs fine when the delta's group holds the reserve.
	if _, err := PackDualLength(0, &deltas, 0); err != nil {
		t.Fatalf("extended delta rejected: %v", err)
	}
	deltas[0] = longMax + 1
	if _, err := PackDualLength(0, &deltas, 0); err == nil {
		t.Fatal("11-bit delta should fail even with extension")
	}
}

func TestUnpackDualLengthDetectsSpareCorruption(t *testing.T) {
	var deltas [GroupBlocks]uint16
	blk, err := PackDualLength(7, &deltas, -1)
	if err != nil {
		t.Fatal(err)
	}
	blk[63] ^= 0x80 // bit 511 is spare
	if _, _, _, err := UnpackDualLength(blk); err != ErrCorruptMetadata {
		t.Fatalf("want ErrCorruptMetadata, got %v", err)
	}
	// Nonzero extension nibble with reserve unassigned is also corrupt.
	blk2, err := PackDualLength(7, &deltas, -1)
	if err != nil {
		t.Fatal(err)
	}
	blk2[dualExtFields/8] |= 1 << uint(dualExtFields%8)
	if _, _, _, err := UnpackDualLength(blk2); err != ErrCorruptMetadata {
		t.Fatalf("want ErrCorruptMetadata, got %v", err)
	}
}

func TestPackMonolithicRoundTrip(t *testing.T) {
	f := func(a, b, c, d, e, f2, g, h uint64) bool {
		in := [CountersPerMetadataBlock]uint64{a, b, c, d, e, f2, g, h}
		return UnpackMonolithic(PackMonolithic(&in)) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeCounterMatchesScheme(t *testing.T) {
	// Drive a DeltaScheme with random writes; the hardware decode path
	// over the packed image must agree with the scheme's Counter().
	s := NewDelta()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		s.Touch(uint64(rng.Intn(GroupBlocks)))
	}
	blk := s.PackMetadata(0)
	for i := 0; i < GroupBlocks; i++ {
		got, err := DecodeCounter(&blk, i)
		if err != nil {
			t.Fatal(err)
		}
		if want := s.Counter(uint64(i)); got != want {
			t.Fatalf("block %d: decode %d, scheme %d", i, got, want)
		}
	}
}

func TestDecodeDualCounterMatchesScheme(t *testing.T) {
	s := NewDualLength()
	rng := rand.New(rand.NewSource(10))
	// Skewed writes to exercise the extension path.
	for i := 0; i < 20000; i++ {
		b := uint64(rng.Intn(GroupBlocks))
		if rng.Intn(3) != 0 {
			b = uint64(rng.Intn(4)) // hot blocks in delta-group 0
		}
		s.Touch(b)
	}
	blk := s.PackMetadata(0)
	for i := 0; i < GroupBlocks; i++ {
		got, err := DecodeDualCounter(&blk, i)
		if err != nil {
			t.Fatal(err)
		}
		if want := s.Counter(uint64(i)); got != want {
			t.Fatalf("block %d: decode %d, scheme %d", i, got, want)
		}
	}
}

func TestDecodeCounterBounds(t *testing.T) {
	var blk [MetadataBlockBytes]byte
	if _, err := DecodeCounter(&blk, -1); err == nil {
		t.Fatal("negative index should fail")
	}
	if _, err := DecodeCounter(&blk, GroupBlocks); err == nil {
		t.Fatal("index 64 should fail")
	}
	if _, err := DecodeDualCounter(&blk, GroupBlocks); err == nil {
		t.Fatal("index 64 should fail")
	}
}

func TestPackMetadataFreshBlocks(t *testing.T) {
	// Metadata images of never-written groups must be all-zero except for
	// structural bits (which are zero for all four layouts).
	var zero [MetadataBlockBytes]byte
	for _, s := range []MetadataPacker{NewMonolithic(), NewSplit(), NewDelta(), NewDualLength()} {
		if s.PackMetadata(12345) != zero {
			t.Errorf("%T: fresh metadata block not zero", s)
		}
	}
}

func TestPackMetadataChangesOnWrite(t *testing.T) {
	for _, k := range []Kind{Monolithic, Split, Delta, DualLength} {
		s, _ := NewScheme(k)
		p := s.(MetadataPacker)
		before := p.PackMetadata(0)
		s.Touch(0)
		if p.PackMetadata(0) == before {
			t.Errorf("%s: metadata image unchanged by a write", s.Name())
		}
	}
}

func TestSplitPackMetadataMatchesState(t *testing.T) {
	s := NewSplit()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30000; i++ {
		s.Touch(uint64(rng.Intn(GroupBlocks)))
	}
	major, minors := UnpackSplit(s.PackMetadata(0))
	for i := 0; i < GroupBlocks; i++ {
		want := s.Counter(uint64(i))
		got := major<<MinorBits | uint64(minors[i])
		if got != want {
			t.Fatalf("block %d: packed %d, scheme %d", i, got, want)
		}
	}
}

func BenchmarkPackMetadata(b *testing.B) {
	for _, k := range []Kind{Monolithic, Split, Delta, DualLength} {
		s, _ := NewScheme(k)
		for i := 0; i < 5000; i++ {
			s.Touch(uint64(i % 61 % GroupBlocks))
		}
		p := s.(MetadataPacker)
		b.Run(k.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkImage = p.PackMetadata(0)
			}
		})
	}
}

func BenchmarkDecodeCounter(b *testing.B) {
	s := NewDelta()
	for i := 0; i < 5000; i++ {
		s.Touch(uint64(i % GroupBlocks))
	}
	blk := s.PackMetadata(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeCounter(&blk, i%GroupBlocks); err != nil {
			b.Fatal(err)
		}
	}
}

package ctr

import (
	"testing"
)

// Fuzz targets: metadata blocks arrive from attacker-controlled DRAM, so
// the unpackers must behave on arbitrary bytes — no panics, and anything
// accepted must re-pack to the same image (canonical encodings only). Every
// target also holds the production codec to the bit-serial reference
// (reference_test.go) on the fuzzed image: same values, same verdict on
// non-canonical bytes, same counter from every slot.

func to64(b []byte) (out [MetadataBlockBytes]byte) {
	copy(out[:], b)
	return out
}

func FuzzUnpackDelta(f *testing.F) {
	var deltas [GroupBlocks]uint16
	deltas[0], deltas[63] = 1, deltaMax
	seed, _ := PackDelta(123456, &deltas)
	f.Add(seed[:])
	f.Add(make([]byte, MetadataBlockBytes))
	f.Fuzz(func(t *testing.T, data []byte) {
		blk := to64(data)
		checkImage(t, blk)
		ref, d, err := UnpackDelta(blk)
		if err != nil {
			return
		}
		back, err := PackDelta(ref, &d)
		if err != nil {
			t.Fatalf("accepted image failed to re-pack: %v", err)
		}
		if back != blk {
			t.Fatal("unpack/pack not canonical")
		}
	})
}

func FuzzUnpackDualLength(f *testing.F) {
	var deltas [GroupBlocks]uint16
	deltas[5] = shortMax
	deltas[17] = longMax
	seed, _ := PackDualLength(99, &deltas, 1)
	f.Add(seed[:])
	f.Add(make([]byte, MetadataBlockBytes))
	f.Fuzz(func(t *testing.T, data []byte) {
		blk := to64(data)
		checkImage(t, blk)
		ref, d, ext, err := UnpackDualLength(blk)
		if err != nil {
			return
		}
		back, err := PackDualLength(ref, &d, ext)
		if err != nil {
			t.Fatalf("accepted image failed to re-pack: %v", err)
		}
		if back != blk {
			t.Fatal("unpack/pack not canonical")
		}
	})
}

// FuzzUnpackSplit: the split scheme takes any image as it is, reads every
// slot as the reference decodes it and touches probed slots as the
// reference rule does (checkImage's split row, checkSchemeImage).
func FuzzUnpackSplit(f *testing.F) {
	var minors [GroupBlocks]uint16
	minors[3] = minorMax
	seed := refPackSplit(7, &minors)
	f.Add(seed[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		checkImage(t, to64(data))
	})
}

func FuzzDecodeCounter(f *testing.F) {
	f.Add(make([]byte, MetadataBlockBytes), 0)
	f.Add(make([]byte, MetadataBlockBytes), 63)
	f.Fuzz(func(t *testing.T, data []byte, idx int) {
		blk := to64(data)
		// Must never panic, whatever the index.
		_, err1 := DecodeCounter(&blk, idx)
		_, err2 := DecodeDualCounter(&blk, idx)
		if (err1 == nil) != (err2 == nil) {
			t.Fatal("decoders disagree on index validity")
		}
		for k := range slotDecoders {
			checkSlot(t, k, blk, idx)
		}
	})
}

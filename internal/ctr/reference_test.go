package ctr

import "fmt"

// The bit-serial reference codec: one loop iteration per stored bit, written
// straight from the layout table in pack.go. It was the production codec
// until the word-level one replaced it; it stays here, test-only, as the
// definition the production codec is held bit-equal to (codec_test.go and the
// fuzz targets) — the same arrangement internal/keystream has with
// internal/crypto.

// bitString provides LSB-first bit field access over a 64-byte block.
type bitString struct {
	b [MetadataBlockBytes]byte
}

func (s *bitString) put(off, width int, v uint64) {
	for i := 0; i < width; i++ {
		bit := (v >> uint(i)) & 1
		pos := off + i
		if bit == 1 {
			s.b[pos/8] |= 1 << uint(pos%8)
		} else {
			s.b[pos/8] &^= 1 << uint(pos%8)
		}
	}
}

func (s *bitString) get(off, width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		pos := off + i
		v |= uint64(s.b[pos/8]>>uint(pos%8)&1) << uint(i)
	}
	return v
}

func refPackSplit(major uint64, minors *[GroupBlocks]uint16) [MetadataBlockBytes]byte {
	var s bitString
	s.put(0, 64, major)
	for i, m := range minors {
		s.put(64+i*MinorBits, MinorBits, uint64(m))
	}
	return s.b
}

func refUnpackSplit(blk [MetadataBlockBytes]byte) (major uint64, minors [GroupBlocks]uint16) {
	s := bitString{b: blk}
	major = s.get(0, 64)
	for i := range minors {
		minors[i] = uint16(s.get(64+i*MinorBits, MinorBits))
	}
	return major, minors
}

func refPackDelta(ref uint64, deltas *[GroupBlocks]uint16) ([MetadataBlockBytes]byte, error) {
	var s bitString
	if ref >= 1<<RefBits {
		return s.b, fmt.Errorf("ctr: reference %#x exceeds %d bits", ref, RefBits)
	}
	s.put(0, RefBits, ref)
	for i, d := range deltas {
		if d > deltaMax {
			return s.b, fmt.Errorf("ctr: delta[%d]=%d exceeds %d bits", i, d, DeltaBits)
		}
		s.put(RefBits+i*DeltaBits, DeltaBits, uint64(d))
	}
	return s.b, nil
}

func refUnpackDelta(blk [MetadataBlockBytes]byte) (ref uint64, deltas [GroupBlocks]uint16, err error) {
	s := bitString{b: blk}
	ref = s.get(0, RefBits)
	for i := range deltas {
		deltas[i] = uint16(s.get(RefBits+i*DeltaBits, DeltaBits))
	}
	if pad := s.get(RefBits+GroupBlocks*DeltaBits, 8); pad != 0 {
		return 0, deltas, ErrCorruptMetadata
	}
	return ref, deltas, nil
}

func refPackDualLength(ref uint64, deltas *[GroupBlocks]uint16, extended int8) ([MetadataBlockBytes]byte, error) {
	var s bitString
	if ref >= 1<<RefBits {
		return s.b, fmt.Errorf("ctr: reference %#x exceeds %d bits", ref, RefBits)
	}
	if extended < -1 || extended >= DeltaGroups {
		return s.b, fmt.Errorf("ctr: extended group %d out of range", extended)
	}
	s.put(0, RefBits, ref)
	for i, d := range deltas {
		lim := uint16(shortMax)
		if extended == int8(i/DeltasPerGroup) {
			lim = longMax
		}
		if d > lim {
			return s.b, fmt.Errorf("ctr: delta[%d]=%d exceeds limit %d", i, d, lim)
		}
		// Low 6 bits in the dense delta array.
		s.put(dualDeltaOff+i*ShortDeltaBits, ShortDeltaBits, uint64(d&shortMax))
		// High 4 bits in the extension nibble when this group owns it.
		if extended == int8(i/DeltasPerGroup) {
			s.put(dualExtFields+(i%DeltasPerGroup)*ExtensionBits, ExtensionBits,
				uint64(d>>ShortDeltaBits))
		}
	}
	if extended >= 0 {
		s.put(dualExtInUse, 1, 1)
		s.put(dualExtGroup, 2, uint64(extended))
	}
	return s.b, nil
}

func refUnpackDualLength(blk [MetadataBlockBytes]byte) (ref uint64, deltas [GroupBlocks]uint16, extended int8, err error) {
	s := bitString{b: blk}
	ref = s.get(0, RefBits)
	extended = -1
	if s.get(dualExtInUse, 1) == 1 {
		extended = int8(s.get(dualExtGroup, 2))
	}
	for i := range deltas {
		d := uint16(s.get(dualDeltaOff+i*ShortDeltaBits, ShortDeltaBits))
		if extended == int8(i/DeltasPerGroup) {
			hi := uint16(s.get(dualExtFields+(i%DeltasPerGroup)*ExtensionBits, ExtensionBits))
			d |= hi << ShortDeltaBits
		}
		deltas[i] = d
	}
	if extended < 0 {
		// Group-index and extension fields must be zero when the
		// reserve is unassigned (canonical encoding).
		if s.get(dualExtGroup, 2) != 0 {
			return 0, deltas, -1, ErrCorruptMetadata
		}
		for i := 0; i < DeltasPerGroup; i++ {
			if s.get(dualExtFields+i*ExtensionBits, ExtensionBits) != 0 {
				return 0, deltas, -1, ErrCorruptMetadata
			}
		}
	}
	if s.get(dualSpare, MetadataBlockBytes*8-dualSpare) != 0 {
		return 0, deltas, -1, ErrCorruptMetadata
	}
	return ref, deltas, extended, nil
}

func refDecodeCounter(blk [MetadataBlockBytes]byte, i int) (uint64, error) {
	if i < 0 || i >= GroupBlocks {
		return 0, fmt.Errorf("ctr: block index %d out of group range", i)
	}
	s := bitString{b: blk}
	ref := s.get(0, RefBits)
	d := s.get(RefBits+i*DeltaBits, DeltaBits)
	return ref + d, nil
}

func refDecodeDualCounter(blk [MetadataBlockBytes]byte, i int) (uint64, error) {
	if i < 0 || i >= GroupBlocks {
		return 0, fmt.Errorf("ctr: block index %d out of group range", i)
	}
	s := bitString{b: blk}
	ref := s.get(0, RefBits)
	d := s.get(dualDeltaOff+i*ShortDeltaBits, ShortDeltaBits)
	if s.get(dualExtInUse, 1) == 1 && s.get(dualExtGroup, 2) == uint64(i/DeltasPerGroup) {
		hi := s.get(dualExtFields+(i%DeltasPerGroup)*ExtensionBits, ExtensionBits)
		d |= hi << ShortDeltaBits
	}
	return ref + d, nil
}

// refDecodeSplitCounter and refDecodeMonolithicCounter are what
// core.decodeCounter computed before the single-slot decoders existed: a
// whole-block unpack, then one slot of it.
func refDecodeSplitCounter(blk [MetadataBlockBytes]byte, i int) (uint64, error) {
	if i < 0 || i >= GroupBlocks {
		return 0, fmt.Errorf("ctr: block index %d out of group range", i)
	}
	major, minors := refUnpackSplit(blk)
	return major<<MinorBits | uint64(minors[i]), nil
}

func refDecodeMonolithicCounter(blk [MetadataBlockBytes]byte, i int) (uint64, error) {
	if i < 0 || i >= CountersPerMetadataBlock {
		return 0, fmt.Errorf("ctr: block index %d out of group range", i)
	}
	s := bitString{b: blk}
	return s.get(64*i, 64), nil
}

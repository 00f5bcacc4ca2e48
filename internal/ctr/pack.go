package ctr

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file implements the exact bit-level storage layouts of the counter
// metadata blocks. The layouts matter for two reasons: (1) the integrity
// tree MACs counter *blocks*, so the engine needs a canonical byte image of
// each group's state, and (2) the decode path (reference + bit-extracted
// delta) is the hardware the paper synthesized; reproducing it bit-exactly
// lets tests validate the decode unit against the scheme state.
//
// Layouts (bit offsets, little-endian bit order within the 512-bit block):
//
//	split-7:      [ 0..63] major, [64..511] 64×7-bit minors
//	delta-7:      [ 0..55] ref,   [56..503] 64×7-bit deltas, [504..511] pad
//	dual-length:  [ 0..55] ref,   [56..439] 64×6-bit deltas,
//	              [440] ext-in-use, [441..442] ext group index,
//	              [443..506] 16×4-bit extension nibbles, [507..511] spare
//	monolithic:   8×64-bit counter slots (one of 8 blocks per 64 counters)
//
// Every layout is byte-structured, and the codec below works on that
// structure with unaligned little-endian 64-bit loads and stores instead of
// single bits: eight w-bit fields are exactly w bytes, so the delta-7 image
// is ref = bytes 0..6 followed by eight 7-byte words (byte 63 the pad), the
// split image is major = bytes 0..7 followed by eight 7-byte words (ending
// exactly at byte 63), and the dual-length image is ref = bytes 0..6, eight
// 6-byte words, then flag / group index / 16 nibbles / spare as one tail in
// bytes 55..63. A packer is a run of overlapping 8-byte stores in ascending
// order, each overwriting the zero top byte(s) of the one before; an
// unpacker is the mirror; a single-slot decode is two loads, a shift, a mask
// and an add. reference_test.go holds the bit-serial codec these are tested
// bit-equal to.

// ErrCorruptMetadata is returned when unpacking detects an impossible
// encoding (e.g. a nonzero pad).
var ErrCorruptMetadata = errors.New("ctr: corrupt metadata block")

const refMask = 1<<RefBits - 1

func load64(b *[MetadataBlockBytes]byte, byteOff int) uint64 {
	return binary.LittleEndian.Uint64(b[byteOff : byteOff+8])
}

func store64(b *[MetadataBlockBytes]byte, byteOff int, v uint64) {
	binary.LittleEndian.PutUint64(b[byteOff:byteOff+8], v)
}

// field extracts the width-bit field at bit offset off (width <= 8). The
// 8-byte load is pulled back to byte 56 for fields near the end of the
// block, so it never runs past byte 63.
func field(b *[MetadataBlockBytes]byte, off, width int) uint64 {
	byteOff := min(off>>3, MetadataBlockBytes-8)
	return load64(b, byteOff) >> uint(off-byteOff<<3) & (1<<uint(width) - 1)
}

// pack8x7 and pack8x6 concatenate the low 7 (6) bits of eight fields, lowest
// first, into one 7-byte (6-byte) word. They are straight-line on purpose:
// the eight shifts are independent, where a loop over the fields chains
// them, and every write packs its group twice. union is the OR of the whole
// fields, for the callers' range checks: every limit is 2^k-1, so some field
// exceeds it iff the OR of all does.
func pack8x7(f *[8]uint16) (w uint64, union uint16) {
	const m = 1<<7 - 1
	w = uint64(f[0]&m) | uint64(f[1]&m)<<7 | uint64(f[2]&m)<<14 | uint64(f[3]&m)<<21 |
		uint64(f[4]&m)<<28 | uint64(f[5]&m)<<35 | uint64(f[6]&m)<<42 | uint64(f[7]&m)<<49
	return w, f[0] | f[1] | f[2] | f[3] | f[4] | f[5] | f[6] | f[7]
}

func pack8x6(f *[8]uint16) (w uint64, union uint16) {
	const m = 1<<6 - 1
	w = uint64(f[0]&m) | uint64(f[1]&m)<<6 | uint64(f[2]&m)<<12 | uint64(f[3]&m)<<18 |
		uint64(f[4]&m)<<24 | uint64(f[5]&m)<<30 | uint64(f[6]&m)<<36 | uint64(f[7]&m)<<42
	return w, f[0] | f[1] | f[2] | f[3] | f[4] | f[5] | f[6] | f[7]
}

// unpack8 splits a word into eight width-bit fields, lowest first (the
// inverse of pack8x7 and pack8x6; unpacking runs only on resume).
func unpack8(f []uint16, w uint64, width uint) {
	m := uint64(1)<<width - 1
	for k := range f[:8] {
		f[k] = uint16(w & m)
		w >>= width
	}
}

// splitMinorOff is the byte the minors start at; the last 7-byte word of
// minors starts at byte 57, so its 8-byte access is pulled back to byte 56.
const splitMinorOff = 8

// PackSplit serializes a split-counter group (major, 64 minors) into a
// 64-byte metadata block. Only the low 7 bits of each minor are stored.
func PackSplit(major uint64, minors *[GroupBlocks]uint16) (blk [MetadataBlockBytes]byte) {
	store64(&blk, 0, major)
	var w uint64
	for g := 0; g < 7; g++ {
		w, _ = pack8x7((*[8]uint16)(minors[8*g:]))
		store64(&blk, splitMinorOff+MinorBits*g, w)
	}
	// The last word shares its 8-byte store with word 6's top byte.
	last, _ := pack8x7((*[8]uint16)(minors[56:]))
	store64(&blk, MetadataBlockBytes-8, last<<8|w>>48)
	return blk
}

// UnpackSplit deserializes a split-counter metadata block.
func UnpackSplit(blk [MetadataBlockBytes]byte) (major uint64, minors [GroupBlocks]uint16) {
	major = load64(&blk, 0)
	for g := 0; g < 7; g++ {
		unpack8(minors[8*g:], load64(&blk, splitMinorOff+MinorBits*g), MinorBits)
	}
	unpack8(minors[56:], load64(&blk, MetadataBlockBytes-8)>>8, MinorBits)
	return major, minors
}

// deltaOff is the byte the delta words start at in both delta layouts: the
// 56-bit reference fills bytes 0..6.
const deltaOff = RefBits / 8

// PackDelta serializes a 7-bit delta group (56-bit ref, 64 deltas) into a
// 64-byte metadata block. Deltas must fit in 7 bits and ref in 56.
func PackDelta(ref uint64, deltas *[GroupBlocks]uint16) (blk [MetadataBlockBytes]byte, err error) {
	if ref >= 1<<RefBits {
		return blk, fmt.Errorf("ctr: reference %#x exceeds %d bits", ref, RefBits)
	}
	// Nine ascending stores; the last one's top byte is the zero pad.
	store64(&blk, 0, ref)
	var union uint16
	for g := 0; g < GroupBlocks/8; g++ {
		w, u := pack8x7((*[8]uint16)(deltas[8*g:]))
		store64(&blk, deltaOff+DeltaBits*g, w)
		union |= u
	}
	if union > deltaMax {
		for i, d := range deltas {
			if d > deltaMax {
				return [MetadataBlockBytes]byte{}, fmt.Errorf("ctr: delta[%d]=%d exceeds %d bits", i, d, DeltaBits)
			}
		}
	}
	return blk, nil
}

// UnpackDelta deserializes a 7-bit delta metadata block.
func UnpackDelta(blk [MetadataBlockBytes]byte) (ref uint64, deltas [GroupBlocks]uint16, err error) {
	for g := 0; g < GroupBlocks/8; g++ {
		unpack8(deltas[8*g:], load64(&blk, deltaOff+DeltaBits*g), DeltaBits)
	}
	if blk[MetadataBlockBytes-1] != 0 { // the 8-bit pad
		return 0, deltas, ErrCorruptMetadata
	}
	return load64(&blk, 0) & refMask, deltas, nil
}

// Dual-length layout offsets.
const (
	dualDeltaOff  = RefBits
	dualExtInUse  = dualDeltaOff + GroupBlocks*ShortDeltaBits // bit 440
	dualExtGroup  = dualExtInUse + 1                          // bits 441..442
	dualExtFields = dualExtGroup + 2                          // bits 443..506
	dualSpare     = dualExtFields + DeltasPerGroup*ExtensionBits

	// The tail starts on a byte boundary, one byte before the block's last
	// 8-byte word: byte 55 holds the flag, the group index and the low 5
	// nibble bits; bytes 56..63 hold the other 59 nibble bits and the spare.
	dualTailByte = dualExtInUse / 8
	dualNibShift = dualExtFields - dualExtInUse // nibble bit 0 within the tail byte
	dualNibLow   = 8 - dualNibShift             // nibble bits in the tail byte
)

// PackDualLength serializes a dual-length group. extended is the delta-group
// index holding the reserve bits, or -1. Deltas in the extended group may use
// 10 bits; all others must fit in 6.
func PackDualLength(ref uint64, deltas *[GroupBlocks]uint16, extended int8) (blk [MetadataBlockBytes]byte, err error) {
	if ref >= 1<<RefBits {
		return blk, fmt.Errorf("ctr: reference %#x exceeds %d bits", ref, RefBits)
	}
	if extended < -1 || extended >= DeltaGroups {
		return blk, fmt.Errorf("ctr: extended group %d out of range", extended)
	}
	// Low 6 bits of every delta in the dense array: eight 6-byte words,
	// each store's two zero top bytes overwritten by the next.
	store64(&blk, 0, ref)
	for g := 0; g < GroupBlocks/8; g++ {
		w, union := pack8x6((*[8]uint16)(deltas[8*g:]))
		store64(&blk, deltaOff+ShortDeltaBits*g, w)
		lim := uint16(shortMax)
		if extended == int8(8*g/DeltasPerGroup) {
			lim = longMax
		}
		if union > lim {
			for i, d := range deltas[8*g : 8*g+8] {
				if d > lim {
					return [MetadataBlockBytes]byte{}, fmt.Errorf("ctr: delta[%d]=%d exceeds limit %d", 8*g+i, d, lim)
				}
			}
		}
	}
	if extended < 0 {
		return blk, nil // the whole tail is zero, as word 7's top bytes left it
	}
	// High 4 bits of the extended group's deltas in the nibble array.
	var nib uint64
	for k, d := range deltas[int(extended)*DeltasPerGroup : (int(extended)+1)*DeltasPerGroup] {
		nib |= uint64(d>>ShortDeltaBits) << (ExtensionBits * uint(k))
	}
	blk[dualTailByte] = byte(1 | uint64(extended)<<1 | nib<<dualNibShift)
	store64(&blk, MetadataBlockBytes-8, nib>>dualNibLow)
	return blk, nil
}

// UnpackDualLength deserializes a dual-length metadata block, reassembling
// extended deltas by concatenating their 4-bit extension with the 6-bit base
// (the concatenation the paper's 2-cycle decode unit performs).
func UnpackDualLength(blk [MetadataBlockBytes]byte) (ref uint64, deltas [GroupBlocks]uint16, extended int8, err error) {
	for g := 0; g < GroupBlocks/8; g++ {
		unpack8(deltas[8*g:], load64(&blk, deltaOff+ShortDeltaBits*g), ShortDeltaBits)
	}
	tail, high := blk[dualTailByte], load64(&blk, MetadataBlockBytes-8)
	group := int8(tail >> 1 & (DeltaGroups - 1))
	nib := uint64(tail>>dualNibShift) | high<<dualNibLow
	extended = -1
	if tail&1 == 1 {
		extended = group
		for k := 0; k < DeltasPerGroup; k++ {
			deltas[int(group)*DeltasPerGroup+k] |= uint16(nib>>(ExtensionBits*uint(k))&(1<<ExtensionBits-1)) << ShortDeltaBits
		}
	} else if group != 0 || nib != 0 {
		// Group-index and extension fields must be zero when the
		// reserve is unassigned (canonical encoding).
		return 0, deltas, -1, ErrCorruptMetadata
	}
	if high>>(dualSpare-8*(MetadataBlockBytes-8)) != 0 { // spare bits
		return 0, deltas, -1, ErrCorruptMetadata
	}
	return load64(&blk, 0) & refMask, deltas, extended, nil
}

// PackMonolithic serializes 8 consecutive 64-bit counters into one metadata
// block (the SGX-style layout: one counter per aligned 8-byte slot).
func PackMonolithic(counters *[CountersPerMetadataBlock]uint64) [MetadataBlockBytes]byte {
	var b [MetadataBlockBytes]byte
	for i, c := range counters {
		store64(&b, 8*i, c)
	}
	return b
}

// UnpackMonolithic deserializes a monolithic counter metadata block.
func UnpackMonolithic(blk [MetadataBlockBytes]byte) (counters [CountersPerMetadataBlock]uint64) {
	for i := range counters {
		counters[i] = load64(&blk, 8*i)
	}
	return counters
}

// The single-slot decoders below are the read path's counter fetch: the
// bit-extraction + addition the paper's decode unit does in 2 cycles. They
// read the image in place (by pointer) and never validate it — the image
// has been authenticated by the integrity tree, and a pad or spare bit has
// no bearing on any counter.

func slotError(i int) error {
	return fmt.Errorf("ctr: block index %d out of group range", i)
}

// DecodeCounter extracts block index i's full counter from a packed delta-7
// metadata block.
func DecodeCounter(blk *[MetadataBlockBytes]byte, i int) (uint64, error) {
	if uint(i) >= GroupBlocks {
		return 0, slotError(i)
	}
	return load64(blk, 0)&refMask + field(blk, RefBits+i*DeltaBits, DeltaBits), nil
}

// DecodeDualCounter extracts block index i's full counter from a packed
// dual-length metadata block.
func DecodeDualCounter(blk *[MetadataBlockBytes]byte, i int) (uint64, error) {
	if uint(i) >= GroupBlocks {
		return 0, slotError(i)
	}
	d := field(blk, dualDeltaOff+i*ShortDeltaBits, ShortDeltaBits)
	if tail := blk[dualTailByte]; tail&1 == 1 && int(tail>>1&(DeltaGroups-1)) == i/DeltasPerGroup {
		d |= field(blk, dualExtFields+(i%DeltasPerGroup)*ExtensionBits, ExtensionBits) << ShortDeltaBits
	}
	return load64(blk, 0)&refMask + d, nil
}

// DecodeSplitCounter extracts block index i's full counter (major || minor)
// from a packed split-counter metadata block.
func DecodeSplitCounter(blk *[MetadataBlockBytes]byte, i int) (uint64, error) {
	if uint(i) >= GroupBlocks {
		return 0, slotError(i)
	}
	return load64(blk, 0)<<MinorBits | field(blk, 64+i*MinorBits, MinorBits), nil
}

// DecodeMonolithicCounter extracts counter slot i from a packed monolithic
// metadata block.
func DecodeMonolithicCounter(blk *[MetadataBlockBytes]byte, i int) (uint64, error) {
	if uint(i) >= CountersPerMetadataBlock {
		return 0, slotError(i)
	}
	return load64(blk, 8*i), nil
}

package ctr

import (
	"encoding/hex"
	"testing"
)

// Golden images pin the metadata storage formats: the integrity tree MACs
// these bytes and the persistence format embeds them, so any layout change
// silently breaks stored images. If one of these tests fails, the format
// changed — bump the persistence magic and write a migration, don't update
// the golden value casually.

func TestGoldenDeltaLayout(t *testing.T) {
	var deltas [GroupBlocks]uint16
	for i := range deltas {
		deltas[i] = uint16(i % (deltaMax + 1))
	}
	blk, err := PackDelta(0x00AB_CDEF_0123_45, &deltas)
	if err != nil {
		t.Fatal(err)
	}
	const want = "452301efcdab008080604028180e888462c168381e90886442a9582e988c66c3" +
		"e9783ea09068442a994ea8946ac56ab95eb0986c46abd96eb89c6ec7ebf97e00"
	if got := hex.EncodeToString(blk[:]); got != want {
		t.Fatalf("delta-7 layout changed:\n got %s\nwant %s", got, want)
	}
}

func TestGoldenDualLengthLayout(t *testing.T) {
	var deltas [GroupBlocks]uint16
	for i := range deltas {
		deltas[i] = uint16(i % (shortMax + 1))
	}
	deltas[16] = longMax // in extended group 1
	if _, err := PackDualLength(0x7F, &deltas, -1); err == nil {
		t.Fatal("10-bit delta must not pack without the extension assigned")
	}
	blk, err := PackDualLength(0x7F, &deltas, 1)
	if err != nil {
		t.Fatal(err)
	}
	const want = "7f00000000000040200c44611c48a22c4ce33c7f244d54655d58a66d5ce77d60" +
		"288e64699e68aaae6cebbe702ccf746ddf78aeef7cefff7b0000000000000000"
	if got := hex.EncodeToString(blk[:]); got != want {
		t.Fatalf("dual-length layout changed:\n got %s\nwant %s", got, want)
	}
}

// TestGoldenDualLengthTail pins the part of the dual-length image the vector
// above leaves zero: all sixteen extension nibbles in use, so the flag, the
// group index and the nibble array cross from byte 55 into the last word.
// The value was taken from the bit-serial codec at 3420972.
func TestGoldenDualLengthTail(t *testing.T) {
	var deltas [GroupBlocks]uint16
	for i := range deltas {
		deltas[i] = uint16((i * 5) % (shortMax + 1))
	}
	for k := 0; k < DeltasPerGroup; k++ {
		deltas[3*DeltasPerGroup+k] = uint16(longMax - 61*k)
	}
	blk, err := PackDualLength(1<<RefBits-2, &deltas, 3)
	if err != nil {
		t.Fatal(err)
	}
	const want = "feffffffffffff40a13c54e68d682bdf7c602c50a57d64eace782f1c4c646d60" +
		"a9be74ee0f48235d5c68aebf50208b135197d681a399b2fff7e6d5c4b3a29100"
	if got := hex.EncodeToString(blk[:]); got != want {
		t.Fatalf("dual-length tail layout changed:\n got %s\nwant %s", got, want)
	}
}

func TestGoldenSplitLayout(t *testing.T) {
	var minors [GroupBlocks]uint16
	for i := range minors {
		minors[i] = uint16((i * 3) % (minorMax + 1))
	}
	blk := refPackSplit(0xDEADBEEF, &minors)
	const want = "efbeadde00000000808121c178482a988d27443aa95ab0992dc7fb098bc8a533" +
		"4abd6abbe0b139cd7ecbebf8bd3f4038281a908925c3f9884aa8952b46bbe97a"
	if got := hex.EncodeToString(blk[:]); got != want {
		t.Fatalf("split layout changed:\n got %s\nwant %s", got, want)
	}
	// The scheme's state is this image: it reads it back, and a write
	// edits its minor in place.
	s := NewSplit()
	if err := s.LoadMetadata(0, blk); err != nil {
		t.Fatal(err)
	}
	for i, m := range minors {
		if got := s.Counter(uint64(i)); got != 0xDEADBEEF<<MinorBits|uint64(m) {
			t.Fatalf("split block %d: Counter %#x from the golden image", i, got)
		}
	}
	s.Touch(GroupBlocks - 1)
	minors[GroupBlocks-1]++
	if got := s.PackMetadata(0); got != refPackSplit(0xDEADBEEF, &minors) {
		t.Fatalf("split write to the last minor:\n got %x\nwant %x", got, refPackSplit(0xDEADBEEF, &minors))
	}
}

package ctr

import (
	"fmt"
	"slices"
)

// DeltaScheme implements §4's frame-of-reference delta encoding: each 4KB
// block-group stores one 56-bit reference counter and a small delta per
// block; a block's encryption counter is reference + delta.
//
// Three mechanisms keep small deltas from forcing re-encryptions:
//
//  1. Reset (Figure 5b): after every increment, if all 64 deltas hold the
//     same nonzero value d, fold d into the reference and zero the deltas.
//     No counter value changes, so no re-encryption is needed. This
//     exploits spatially local write streams whose deltas grow in lockstep.
//  2. Re-encode (Figure 5c): on overflow, subtract the group's minimum
//     delta Δmin from every delta and add it to the reference. Again no
//     counter changes. Effective only when Δmin > 0.
//  3. Re-encrypt (Figure 5a): when Δmin = 0, re-encrypt the whole group
//     under max(counter)+1, make it the new reference, and zero all deltas.
//
// The scheme has two layouts of one 64-byte metadata block:
//
//   - delta-7 (NewDelta): 7-bit deltas, 56 + 64*7 = 504 bits per group —
//     the same footprint as split counters but with far fewer
//     re-encryptions (Table 2). The overflowing delta is the group maximum,
//     so max+1 is the paper's "overflowing counter's next value".
//   - dual-length (NewDualLength, §4.3 and Figure 6): 6-bit deltas in four
//     delta-groups of 16. The 72 bits saved relative to 7-bit deltas are a
//     reserve: the first overflow in a block-group assigns it to that
//     overflow's delta-group, whose 16 deltas gain 4 bits each (6 → 10),
//     instead of re-encoding. The reserve is assigned once; a later
//     overflow in another delta-group — or of a 10-bit extended delta —
//     takes the re-encode / re-encrypt path. An extended delta can exceed
//     the overflowing short one, which is why re-encryption uses the group
//     maximum. The reserve is freed whenever all deltas return to zero
//     (after a reset or a re-encryption). Layout: 56-bit reference +
//     64×6-bit deltas = 440 bits, leaving 72: 64 extension bits + 2
//     group-index bits + 1 in-use bit + 5 spare.
type DeltaScheme struct {
	// Each group is its image in the scheme's layout (pack.go), edited in
	// place by Touch. The zero image is Figure 5a's initial state under
	// both layouts: reference 0, every delta 0, the reserve unassigned.
	table
}

// DeltaBits is the delta width evaluated in the paper.
const DeltaBits = 7

// deltaMax is the largest representable 7-bit delta.
const deltaMax = (1 << DeltaBits) - 1

// RefBits is the reference-counter width; like SGX's 56-bit counters it
// cannot realistically overflow within a machine's lifetime.
const RefBits = 56

// ShortDeltaBits is the default dual-length delta width.
const ShortDeltaBits = 6

// ExtensionBits is the per-delta widening granted to the extended group.
const ExtensionBits = 4

// DeltaGroups is the number of logical delta-groups per block-group.
const DeltaGroups = 4

// DeltasPerGroup is the number of deltas per delta-group.
const DeltasPerGroup = GroupBlocks / DeltaGroups

// shortMax is the largest 6-bit delta.
const shortMax = (1 << ShortDeltaBits) - 1

// longMax is the largest extended (6+4 = 10-bit) delta.
const longMax = (1 << (ShortDeltaBits + ExtensionBits)) - 1

// NewDelta creates a delta-7 counter store with all counters zero
// (reference = 0, deltas = 0, as in Figure 5a's initial state).
func NewDelta() *DeltaScheme {
	return &DeltaScheme{table{kind: Delta}}
}

// NewDualLength creates a dual-length delta counter store with all counters
// zero and the reserve unassigned.
func NewDualLength() *DeltaScheme {
	return &DeltaScheme{table{kind: DualLength}}
}

// No slot's limit is below shortMax, which Touch's fast path relies on;
// these stop compiling if one drops under it.
const (
	_ uint = deltaMax - shortMax
	_ uint = longMax - shortMax
)

// layout returns the width of a slot in the dense delta array, whose
// eight-slot words start at byte deltaOff + width*(i/8), and lanes, which
// has bit 0 of every slot of a word set: a delta times lanes is that delta
// in all eight slots.
func (s *DeltaScheme) layout() (width uint, lanes uint64) {
	if s.kind == DualLength {
		return ShortDeltaBits, 0x0000041041041041
	}
	return DeltaBits, 0x0002040810204081
}

// extended returns the delta-group holding the dual-length reserve, or -1
// (always, under delta-7, where the tail byte holds deltas).
func (s *DeltaScheme) extended(img *[MetadataBlockBytes]byte) int {
	if s.kind != DualLength || img[dualTailByte]&1 == 0 {
		return -1
	}
	return int(img[dualTailByte] >> 1 & (DeltaGroups - 1))
}

// nibbles returns the dual-length image's sixteen extension nibbles, slot
// k's in bits 4k..4k+3; setNibbles stores them back, keeping the tail
// byte's flag and group index and the zero spare bits.
func nibbles(img *[MetadataBlockBytes]byte) uint64 {
	return uint64(img[dualTailByte]>>dualNibShift) | load64(img, MetadataBlockBytes-8)<<dualNibLow
}

func setNibbles(img *[MetadataBlockBytes]byte, nib uint64) {
	img[dualTailByte] = img[dualTailByte]&(1<<dualNibShift-1) | byte(nib<<dualNibShift)
	store64(img, MetadataBlockBytes-8, nib>>dualNibLow)
}

// high returns slot i's extension nibble shifted above its 6-bit field when
// its delta-group holds the reserve, else 0. Touch's fast path calls it on
// every dual-length write, so it must stay within the inliner's budget: a
// call there spills the fast path's registers.
func (s *DeltaScheme) high(img *[MetadataBlockBytes]byte, i uint) uint16 {
	if s.extended(img) != int(i/DeltasPerGroup) {
		return 0
	}
	return uint16(nibbles(img)>>(ExtensionBits*(i%DeltasPerGroup))&(1<<ExtensionBits-1)) << ShortDeltaBits
}

// setHigh stores the bits of d above the 6-bit field in slot i's nibble when
// its delta-group holds the reserve.
func (s *DeltaScheme) setHigh(img *[MetadataBlockBytes]byte, i uint, d uint16) {
	if s.extended(img) == int(i/DeltasPerGroup) {
		k := ExtensionBits * (i % DeltasPerGroup)
		setNibbles(img, nibbles(img)&^((1<<ExtensionBits-1)<<k)|uint64(d>>ShortDeltaBits)<<k)
	}
}

// limit returns the current capacity of slot i.
func (s *DeltaScheme) limit(img *[MetadataBlockBytes]byte, i uint) uint16 {
	switch {
	case s.kind != DualLength:
		return deltaMax
	case s.extended(img) == int(i/DeltasPerGroup):
		return longMax
	default:
		return shortMax
	}
}

// converged finishes the all-equal reset check once slot i's own word holds
// d in all eight lanes: it reports whether every other word of the dense
// array does too, at one compare per eight slots, and no reserve nibble is
// set.
func (s *DeltaScheme) converged(img *[MetadataBlockBytes]byte, i uint, d uint16) bool {
	w, lanes := s.layout()
	m := uint64(1)<<w - 1
	for g := uint(0); g < GroupBlocks/8; g++ {
		if g != i/8 && load64(img, deltaOff+int(w*g))&(m*lanes) != uint64(d)*lanes {
			return false
		}
	}
	return s.extended(img) < 0 || nibbles(img) == 0
}

// clearGroup sets the image to reference ref with every delta zero and the
// reserve free: the state a reset and a re-encryption leave.
func clearGroup(img *[MetadataBlockBytes]byte, ref uint64) {
	if ref > refMask {
		panic(fmt.Sprintf("ctr: reference %#x exceeds %d bits", ref, RefBits))
	}
	*img = [MetadataBlockBytes]byte{}
	store64(img, 0, ref)
}

// Touch implements Scheme. It follows the hardware flow of Figure 7: the
// increment-and-reset unit checks for overflow before incrementing, applies
// the increment, then checks for an all-equal reset; the re-encode/
// re-encrypt unit handles overflows. The common write reads and writes one
// slot of the group's image; only an overflow unpacks the group.
func (s *DeltaScheme) Touch(block uint64) WriteOutcome {
	gid := block / GroupBlocks
	img, i := s.image(gid), uint(block%GroupBlocks)
	s.stats.Writes++
	var extended, reencoded bool

	// Slot i's field sits in the width-byte word at off; a dual-length
	// slot whose delta-group holds the reserve has its nibble above it.
	w, lanes := s.layout()
	off, shift, m := deltaOff+int(w*(i/8)), w*(i%8), uint64(1)<<w-1
	word := load64(img, off)
	d := uint16(word >> shift & m)
	if s.kind == DualLength {
		d |= s.high(img, i)
	}

	// A delta below shortMax is below every slot's limit under either
	// layout, so the common write skips limit and its layout checks.
	if d >= shortMax && d == s.limit(img, i) {
		if s.kind == DualLength && s.extended(img) < 0 {
			// First overflow in a dual-length block-group: hand the
			// reserve bits to this delta-group (Figure 6). Its
			// nibbles are zero while the reserve is unassigned.
			img[dualTailByte] |= 1 | byte(i/DeltasPerGroup)<<1
			s.stats.Extensions++
			extended = true
		} else {
			ref, deltas, ext, err := s.decode(img)
			if err != nil {
				panic(err) // the scheme only ever stores packed images
			}
			if dmin := slices.Min(deltas[:]); dmin > 0 {
				// The cheap fix: re-encode with a larger reference
				// (Figure 5c).
				for j := range deltas {
					deltas[j] -= dmin
				}
				*img = s.encode(ref+uint64(dmin), &deltas, ext)
				d -= dmin
				s.stats.Reencodes++
				reencoded = true
			} else {
				// Δmin = 0: re-encryption is unavoidable (Figure 5a).
				// The group's next counter becomes the shared new
				// counter and the new reference.
				newRef := ref + uint64(slices.Max(deltas[:])) + 1
				if s.hook != nil {
					for j, dj := range deltas {
						s.old[j] = ref + uint64(dj)
					}
					s.hook(gid*GroupBlocks, s.old[:], newRef)
				}
				clearGroup(img, newRef)
				s.stats.Reencryptions++
				s.stats.ReencryptedBlocks += GroupBlocks
				return WriteOutcome{Counter: newRef, Reencrypted: true}
			}
		}
		word = load64(img, off) // the word may share bytes with the tail
	}

	d++
	ref := load64(img, 0) & refMask
	word = word&^(m<<shift) | uint64(d)&m<<shift

	// Reset check (Figure 5b): fires on the increment path, as done by the
	// increment-and-reset unit, and is made before the store so that no
	// load follows a store it overlaps. A dual-length delta above the
	// short field is held by an extended slot only. All-zero deltas free
	// the reserve.
	if uint64(d) <= m && word&(m*lanes) == uint64(d)*lanes && s.converged(img, i, d) {
		clearGroup(img, ref+uint64(d))
		s.stats.Resets++
		return WriteOutcome{Counter: ref + uint64(d), Reset: true, Extended: extended, Reencoded: reencoded}
	}
	store64(img, off, word)
	if s.kind == DualLength {
		s.setHigh(img, i, d)
	}
	return WriteOutcome{Counter: ref + uint64(d), Extended: extended, Reencoded: reencoded}
}

// MetadataBits implements Scheme: (56 + 64*7)/64 = 7.875 bits per block
// under delta-7; dual-length commits the full 512-bit metadata block
// (reference + short deltas + reserve), 8 bits per block.
func (s *DeltaScheme) MetadataBits() float64 {
	if s.kind == DualLength {
		return float64(MetadataBlockBytes*8) / GroupBlocks
	}
	return float64(RefBits+GroupBlocks*DeltaBits) / GroupBlocks
}

package ctr

import (
	"fmt"
	"slices"
	"testing"
)

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

// refDeltaScheme is DeltaScheme's rule on an unpacked group: a reference,
// 64 uint16 deltas and the delta-group holding the dual-length reserve. It
// was the production state until the scheme came to keep the packed image
// and edit it in place; it stays here, test-only, as the definition the
// packed Touch is held to image for image (TestPackedTouchMatchesReference
// and FuzzSchemeStateMachine). Its images come from the bit-serial packers
// above.
type refDeltaScheme struct {
	groups map[uint64]*deltaGroup
	dual   bool
	stats  Stats
	hook   ReencryptFunc
}

type deltaGroup struct {
	ref    uint64
	deltas [GroupBlocks]uint16
	// reserve is the delta-group holding the dual-length reserve plus
	// one, 0 if unassigned (always, under delta-7).
	reserve uint8
}

func newRefDelta(dual bool) *refDeltaScheme {
	return &refDeltaScheme{groups: map[uint64]*deltaGroup{}, dual: dual}
}

func (s *refDeltaScheme) group(gid uint64) *deltaGroup {
	g := s.groups[gid]
	if g == nil {
		g = &deltaGroup{}
		s.groups[gid] = g
	}
	return g
}

func (s *refDeltaScheme) limit(g *deltaGroup, i int) uint16 {
	switch {
	case !s.dual:
		return deltaMax
	case g.reserve == uint8(i/DeltasPerGroup)+1:
		return longMax
	default:
		return shortMax
	}
}

func (s *refDeltaScheme) Counter(block uint64) uint64 {
	g := s.group(block / GroupBlocks)
	return g.ref + uint64(g.deltas[block%GroupBlocks])
}

// Touch is Figure 7's flow: overflow check, increment, all-equal reset.
func (s *refDeltaScheme) Touch(block uint64) WriteOutcome {
	gid, i := block/GroupBlocks, int(block%GroupBlocks)
	g := s.group(gid)
	s.stats.Writes++
	var out WriteOutcome
	if g.deltas[i] == s.limit(g, i) {
		if s.dual && g.reserve == 0 {
			g.reserve = uint8(i/DeltasPerGroup) + 1
			s.stats.Extensions++
			out.Extended = true
		} else if dmin := g.minDelta(); dmin > 0 {
			g.reencode(dmin)
			s.stats.Reencodes++
			out.Reencoded = true
		} else {
			newRef := g.ref + uint64(g.maxDelta()) + 1
			if s.hook != nil {
				old := make([]uint64, GroupBlocks)
				for j, d := range g.deltas {
					old[j] = g.ref + uint64(d)
				}
				s.hook(gid*GroupBlocks, old, newRef)
			}
			*g = deltaGroup{ref: newRef}
			s.stats.Reencryptions++
			s.stats.ReencryptedBlocks += GroupBlocks
			out.Reencrypted = true
			out.Counter = newRef
			return out
		}
	}
	g.deltas[i]++
	out.Counter = g.ref + uint64(g.deltas[i])
	if d := g.allEqual(); d > 0 {
		*g = deltaGroup{ref: g.ref + uint64(d)} // all-zero deltas free the reserve
		s.stats.Resets++
		out.Reset = true
	}
	return out
}

func (g *deltaGroup) minDelta() uint16 {
	m := g.deltas[0]
	for _, d := range g.deltas[1:] {
		m = min(m, d)
	}
	return m
}

func (g *deltaGroup) maxDelta() uint16 {
	m := g.deltas[0]
	for _, d := range g.deltas[1:] {
		m = max(m, d)
	}
	return m
}

// allEqual returns the common delta when every delta of the group is the
// same nonzero value, else 0.
func (g *deltaGroup) allEqual() uint16 {
	for _, d := range g.deltas[1:] {
		if d != g.deltas[0] {
			return 0
		}
	}
	return g.deltas[0]
}

func (g *deltaGroup) reencode(dmin uint16) {
	g.ref += uint64(dmin)
	for j := range g.deltas {
		g.deltas[j] -= dmin
	}
}

// image packs group m with the bit-serial reference packer of its layout.
func (s *refDeltaScheme) image(t *testing.T, m uint64) [MetadataBlockBytes]byte {
	t.Helper()
	g := s.group(m)
	var img [MetadataBlockBytes]byte
	var err error
	if s.dual {
		img, err = refPackDualLength(g.ref, &g.deltas, int8(g.reserve)-1)
	} else {
		img, err = refPackDelta(g.ref, &g.deltas)
	}
	if err != nil {
		t.Fatalf("reference group %d does not pack: %v", m, err)
	}
	return img
}

// hookCall is one re-encryption hook invocation, its slice copied.
type hookCall struct {
	start uint64
	old   []uint64
	next  uint64
}

// lockstep drives a DeltaScheme and the reference with the same writes
// and fails on the first difference in the outcome, the stats, the touched
// block's counter, its group's whole image or a re-encryption hook's
// arguments.
type lockstep struct {
	t         *testing.T
	s         *DeltaScheme
	ref       *refDeltaScheme
	got, want []hookCall
}

// newLockstep sets both schemes' hooks; extra, if set, also sees every
// hook call of s.
func newLockstep(t *testing.T, s *DeltaScheme, extra ReencryptFunc) *lockstep {
	l := &lockstep{t: t, s: s, ref: newRefDelta(s.dual)}
	record := func(calls *[]hookCall) ReencryptFunc {
		return func(start uint64, old []uint64, next uint64) {
			*calls = append(*calls, hookCall{start, slices.Clone(old), next})
		}
	}
	gotHook := record(&l.got)
	s.OnReencrypt(func(start uint64, old []uint64, next uint64) {
		gotHook(start, old, next)
		if extra != nil {
			extra(start, old, next)
		}
	})
	l.ref.hook = record(&l.want)
	return l
}

func (l *lockstep) touch(block uint64) WriteOutcome {
	l.t.Helper()
	got, want := l.s.Touch(block), l.ref.Touch(block)
	if got != want {
		l.t.Fatalf("%s: Touch(%d) = %+v, reference %+v", l.s.Name(), block, got, want)
	}
	if got, want := l.s.Stats(), l.ref.stats; got != want {
		l.t.Fatalf("%s: after Touch(%d) stats %+v, reference %+v", l.s.Name(), block, got, want)
	}
	if got, want := l.s.Counter(block), l.ref.Counter(block); got != want {
		l.t.Fatalf("%s: after Touch(%d) Counter = %d, reference %d", l.s.Name(), block, got, want)
	}
	m := block / GroupBlocks
	if got, want := l.s.PackMetadata(m), l.ref.image(l.t, m); got != want {
		l.t.Fatalf("%s: after Touch(%d) image of group %d\n%x\nreference\n%x", l.s.Name(), block, m, got, want)
	}
	if !slices.EqualFunc(l.got, l.want, func(a, b hookCall) bool {
		return a.start == b.start && a.next == b.next && slices.Equal(a.old, b.old)
	}) {
		l.t.Fatalf("%s: after Touch(%d) hook calls %v, reference %v", l.s.Name(), block, l.got, l.want)
	}
	l.got, l.want = l.got[:0], l.want[:0]
	return got
}

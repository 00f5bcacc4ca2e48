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
// fuzz targets) — the same arrangement refPad and refTag have with
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
// one uint16 delta per block and the delta-group holding the dual-length
// reserve. It was the production state until the scheme came to keep the
// packed image and edit it in place; it stays here, test-only, as the one
// second copy of the delta rule. At the paper's geometry (7-bit deltas or
// the dual-length layout, 64-block groups) the packed Touch is held to it
// image for image (lockstep: TestPackedTouchMatchesReference and
// FuzzSchemeStateMachine), its images coming from the bit-serial packers
// above. Its width and group size are free, which is how
// TestExhaustiveDeltaModelCheck reaches every transition at 2-bit deltas
// over 3-block groups and the width ablations sweep §4.2's design space.
type refDeltaScheme struct {
	width  uint // delta bits, when not dual
	group  int  // blocks per group
	groups map[uint64]*deltaGroup
	dual   bool
	stats  Stats
	hook   ReencryptFunc
}

type deltaGroup struct {
	ref    uint64
	deltas []uint16
	// reserve is the delta-group holding the dual-length reserve plus
	// one, 0 if unassigned (always, when not dual).
	reserve uint8
}

// newRefDelta is the reference over group-block groups of width-bit deltas,
// or of the dual-length layout when dual is set (width is then unused).
func newRefDelta(dual bool, width uint, group int) *refDeltaScheme {
	return &refDeltaScheme{width: width, group: group, groups: map[uint64]*deltaGroup{}, dual: dual}
}

func (s *refDeltaScheme) groupOf(gid uint64) *deltaGroup {
	g := s.groups[gid]
	if g == nil {
		g = &deltaGroup{deltas: make([]uint16, s.group)}
		s.groups[gid] = g
	}
	return g
}

func (s *refDeltaScheme) limit(g *deltaGroup, i int) uint16 {
	switch {
	case !s.dual:
		return uint16(1)<<s.width - 1
	case g.reserve == uint8(i/DeltasPerGroup)+1:
		return longMax
	default:
		return shortMax
	}
}

func (s *refDeltaScheme) Counter(block uint64) uint64 {
	g := s.groupOf(block / uint64(s.group))
	return g.ref + uint64(g.deltas[block%uint64(s.group)])
}

func (s *refDeltaScheme) Stats() Stats { return s.stats }

// Touch is Figure 7's flow: overflow check, increment, all-equal reset.
func (s *refDeltaScheme) Touch(block uint64) WriteOutcome {
	gid, i := block/uint64(s.group), int(block%uint64(s.group))
	g := s.groupOf(gid)
	s.stats.Writes++
	var out WriteOutcome
	if g.deltas[i] == s.limit(g, i) {
		if s.dual && g.reserve == 0 {
			g.reserve = uint8(i/DeltasPerGroup) + 1
			s.stats.Extensions++
			out.Extended = true
		} else if dmin := slices.Min(g.deltas); dmin > 0 {
			g.ref += uint64(dmin)
			for j := range g.deltas {
				g.deltas[j] -= dmin
			}
			s.stats.Reencodes++
			out.Reencoded = true
		} else {
			newRef := g.ref + uint64(slices.Max(g.deltas)) + 1
			if s.hook != nil {
				old := make([]uint64, s.group)
				for j, d := range g.deltas {
					old[j] = g.ref + uint64(d)
				}
				s.hook(gid*uint64(s.group), old, newRef)
			}
			g.rebase(newRef)
			s.stats.Reencryptions++
			s.stats.ReencryptedBlocks += uint64(s.group)
			out.Reencrypted = true
			out.Counter = newRef
			return out
		}
	}
	g.deltas[i]++
	out.Counter = g.ref + uint64(g.deltas[i])
	if d := g.deltas[0]; d > 0 && !slices.ContainsFunc(g.deltas, func(v uint16) bool { return v != d }) {
		g.rebase(g.ref + uint64(d)) // all-zero deltas free the reserve
		s.stats.Resets++
		out.Reset = true
	}
	return out
}

// rebase gives the group a new reference, every delta zero and no reserve.
func (g *deltaGroup) rebase(ref uint64) {
	g.ref = ref
	clear(g.deltas)
	g.reserve = 0
}

// image packs group m with the bit-serial reference packer of its layout.
func (s *refDeltaScheme) image(t *testing.T, m uint64) [MetadataBlockBytes]byte {
	t.Helper()
	g := s.groupOf(m)
	deltas := (*[GroupBlocks]uint16)(g.deltas)
	var img [MetadataBlockBytes]byte
	var err error
	if s.dual {
		img, err = refPackDualLength(g.ref, deltas, int8(g.reserve)-1)
	} else {
		img, err = refPackDelta(g.ref, deltas)
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

// refScheme is a reference rule the lockstep can drive: refDeltaScheme or
// refSplitScheme at the paper's geometry.
type refScheme interface {
	Touch(block uint64) WriteOutcome
	Counter(block uint64) uint64
	Stats() Stats
	image(t *testing.T, m uint64) [MetadataBlockBytes]byte
}

// lockstep drives a DeltaScheme or a SplitScheme and its reference rule with
// the same writes and fails on the first difference in the outcome, the
// stats, the touched block's counter, its group's whole image or a
// re-encryption hook's arguments.
type lockstep struct {
	t         *testing.T
	s         Scheme
	ref       refScheme
	got, want []hookCall
}

// newLockstep sets both schemes' hooks; extra, if set, also sees every
// hook call of s.
func newLockstep(t *testing.T, s Scheme, extra ReencryptFunc) *lockstep {
	l := &lockstep{t: t, s: s}
	record := func(calls *[]hookCall) ReencryptFunc {
		return func(start uint64, old []uint64, next uint64) {
			*calls = append(*calls, hookCall{start, slices.Clone(old), next})
		}
	}
	switch s := s.(type) {
	case *DeltaScheme:
		ref := newRefDelta(s.kind == DualLength, DeltaBits, GroupBlocks)
		ref.hook = record(&l.want)
		l.ref = ref
	case *SplitScheme:
		ref := newRefSplit(MinorBits, GroupBlocks)
		ref.hook = record(&l.want)
		l.ref = ref
	default:
		t.Fatalf("no reference rule for %s", s.Name())
	}
	gotHook := record(&l.got)
	s.OnReencrypt(func(start uint64, old []uint64, next uint64) {
		gotHook(start, old, next)
		if extra != nil {
			extra(start, old, next)
		}
	})
	return l
}

func (l *lockstep) touch(block uint64) WriteOutcome {
	l.t.Helper()
	got, want := l.s.Touch(block), l.ref.Touch(block)
	if got != want {
		l.t.Fatalf("%s: Touch(%d) = %+v, reference %+v", l.s.Name(), block, got, want)
	}
	if got, want := l.s.Stats(), l.ref.Stats(); got != want {
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

// refSplitScheme is the split-counter rule (split.go) over width-bit minors
// and group-block groups, on a map of unpacked groups: the test-only second
// copy of that rule. At the paper's 7/64 SplitScheme's in-place Touch is
// held to it image for image (lockstep: TestPackedTouchMatchesReference and
// FuzzSchemeStateMachine), its images coming from the bit-serial packer
// above, and TestExhaustiveSplitModelCheck model-checks it at 2-bit minors
// over 3-block groups.
type refSplitScheme struct {
	width  uint // minor bits
	group  int  // blocks per group
	groups map[uint64]*refSplitGroup
	stats  Stats
	hook   ReencryptFunc
}

type refSplitGroup struct {
	major  uint64
	minors []uint16
}

func newRefSplit(width uint, group int) *refSplitScheme {
	return &refSplitScheme{width: width, group: group, groups: map[uint64]*refSplitGroup{}}
}

func (s *refSplitScheme) groupOf(gid uint64) *refSplitGroup {
	g := s.groups[gid]
	if g == nil {
		g = &refSplitGroup{minors: make([]uint16, s.group)}
		s.groups[gid] = g
	}
	return g
}

// counterOf is the concatenation major‖minor.
func (s *refSplitScheme) counterOf(g *refSplitGroup, i int) uint64 {
	return g.major<<s.width | uint64(g.minors[i])
}

func (s *refSplitScheme) Counter(block uint64) uint64 {
	return s.counterOf(s.groupOf(block/uint64(s.group)), int(block%uint64(s.group)))
}

func (s *refSplitScheme) Stats() Stats { return s.stats }

// Touch increments the block's minor; a minor at its maximum instead moves
// the group to major+1 with every minor 0, re-encrypts it, and then counts
// the write as the block's first under the new major.
func (s *refSplitScheme) Touch(block uint64) WriteOutcome {
	gid, i := block/uint64(s.group), int(block%uint64(s.group))
	g := s.groupOf(gid)
	s.stats.Writes++
	if g.minors[i] < uint16(1)<<s.width-1 {
		g.minors[i]++
		return WriteOutcome{Counter: s.counterOf(g, i)}
	}
	newMajor := g.major + 1
	if s.hook != nil {
		old := make([]uint64, s.group)
		for j := range old {
			old[j] = s.counterOf(g, j)
		}
		s.hook(gid*uint64(s.group), old, newMajor<<s.width)
	}
	g.major = newMajor
	clear(g.minors)
	g.minors[i] = 1
	s.stats.Reencryptions++
	s.stats.ReencryptedBlocks += uint64(s.group)
	return WriteOutcome{Counter: s.counterOf(g, i), Reencrypted: true}
}

// image packs group m with the bit-serial reference packer (7-bit minors,
// 64-block groups only).
func (s *refSplitScheme) image(t *testing.T, m uint64) [MetadataBlockBytes]byte {
	t.Helper()
	g := s.groupOf(m)
	if s.width != MinorBits || s.group != GroupBlocks {
		t.Fatalf("reference split group %d is not in the split-7 layout", m)
	}
	return refPackSplit(g.major, (*[GroupBlocks]uint16)(g.minors))
}

package ctr

// DualLengthScheme implements the dual-length delta encoding of §4.3 and
// Figure 6. Deltas start at 6 bits; the 72 bits saved relative to 7-bit
// deltas are held in reserve. The 64 deltas form four delta-groups of 16.
// The first time a delta overflows its 6-bit storage, the reserve is
// assigned to that delta-group: each of its 16 deltas gains 4 bits (6 → 10).
// The reserve can be assigned only once; a later overflow in any other
// group — or of a 10-bit extended delta — falls back to the re-encode /
// re-encrypt machinery shared with the plain delta scheme.
//
// The reserve assignment is cleared whenever all deltas return to zero
// (after a reset or a re-encryption), making the bits available again.
//
// Layout check (Figure 6): 56-bit reference + 64×6-bit deltas = 440 bits,
// leaving 72 reserved bits: 64 extension bits + 2 group-index bits +
// 1 in-use bit + 5 spare = 512 bits total, one metadata block.
type DualLengthScheme struct {
	groups []dualGroup // indexed by group; the zero group is all counters 0, reserve unassigned
	stats  Stats
	hook   ReencryptFunc
	old    [GroupBlocks]uint64 // the hook's oldCounters argument
}

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

type dualGroup struct {
	ref    uint64
	deltas [GroupBlocks]uint16
	// reserve is the index of the delta-group holding the reserve, plus
	// one: 0 means unassigned, so the zero group is the initial state.
	reserve uint8
}

// extended returns the delta-group holding the reserve, or -1 (the
// exported codec's form).
func (g *dualGroup) extended() int8 { return int8(g.reserve) - 1 }

// NewDualLength creates a dual-length delta counter store with all counters
// zero and the reserve unassigned.
func NewDualLength() *DualLengthScheme {
	return &DualLengthScheme{}
}

// Name implements Scheme.
func (s *DualLengthScheme) Name() string { return "dual-length" }

// GroupSize implements Scheme.
func (s *DualLengthScheme) GroupSize() int { return GroupBlocks }

func (s *DualLengthScheme) group(block uint64) (*dualGroup, uint64, int) {
	gid := block / GroupBlocks
	if gid >= uint64(len(s.groups)) {
		s.groups = grow(s.groups, gid)
	}
	return &s.groups[gid], gid, int(block % GroupBlocks)
}

// limit returns the current capacity of delta slot i.
func (g *dualGroup) limit(i int) uint16 {
	if g.reserve == uint8(i/DeltasPerGroup)+1 {
		return longMax
	}
	return shortMax
}

// Counter implements Scheme.
func (s *DualLengthScheme) Counter(block uint64) uint64 {
	if gid := block / GroupBlocks; gid < uint64(len(s.groups)) {
		g := &s.groups[gid]
		return g.ref + uint64(g.deltas[block%GroupBlocks])
	}
	return 0
}

// Touch implements Scheme.
func (s *DualLengthScheme) Touch(block uint64) WriteOutcome {
	g, gid, i := s.group(block)
	s.stats.Writes++
	var out WriteOutcome

	if g.deltas[i] == g.limit(i) {
		switch {
		case g.reserve == 0:
			// First overflow in the block-group: hand the reserve
			// bits to this delta-group (Figure 6).
			g.reserve = uint8(i/DeltasPerGroup) + 1
			s.stats.Extensions++
			out.Extended = true
		default:
			// Reserve already spent (or this is the extended group
			// hitting 10 bits): re-encode if possible, else
			// re-encrypt.
			if dmin := g.minDelta(); dmin > 0 {
				g.reencode(dmin)
				s.stats.Reencodes++
				out.Reencoded = true
			} else {
				// Unlike the uniform-width delta scheme, the
				// overflowing short delta need not be the group
				// maximum — an extended 10-bit delta can exceed
				// it. Re-encrypt under max+1 to keep every nonce
				// fresh.
				newRef := g.ref + uint64(g.maxDelta()) + 1
				s.reencrypt(gid, g, newRef)
				out.Reencrypted = true
				out.Counter = newRef
				return out
			}
		}
	}

	g.deltas[i]++
	out.Counter = g.ref + uint64(g.deltas[i])

	if d := g.allEqual(); d > 0 {
		g.ref += uint64(d)
		clear(g.deltas[:])
		g.reserve = 0 // all-zero deltas free the reserve
		s.stats.Resets++
		out.Reset = true
	}
	return out
}

func (g *dualGroup) minDelta() uint16 {
	m := g.deltas[0]
	for _, d := range g.deltas[1:] {
		if d < m {
			m = d
		}
	}
	return m
}

func (g *dualGroup) maxDelta() uint16 {
	m := g.deltas[0]
	for _, d := range g.deltas[1:] {
		if d > m {
			m = d
		}
	}
	return m
}

func (g *dualGroup) allEqual() uint16 {
	d := g.deltas[0]
	if d == 0 {
		return 0
	}
	for _, v := range g.deltas[1:] {
		if v != d {
			return 0
		}
	}
	return d
}

func (g *dualGroup) reencode(dmin uint16) {
	g.ref += uint64(dmin)
	for j := range g.deltas {
		g.deltas[j] -= dmin
	}
}

func (s *DualLengthScheme) reencrypt(gid uint64, g *dualGroup, newRef uint64) {
	if s.hook != nil {
		for j := range s.old {
			s.old[j] = g.ref + uint64(g.deltas[j])
		}
		s.hook(gid*GroupBlocks, s.old[:], newRef)
	}
	g.ref = newRef
	clear(g.deltas[:])
	g.reserve = 0
	s.stats.Reencryptions++
	s.stats.ReencryptedBlocks += GroupBlocks
}

// MetadataBits implements Scheme: the full 512-bit metadata block is
// committed (reference + short deltas + reserve), i.e. 8 bits per block.
func (s *DualLengthScheme) MetadataBits() float64 {
	return float64(MetadataBlockBytes*8) / GroupBlocks
}

// MetadataBlock implements Scheme.
func (s *DualLengthScheme) MetadataBlock(block uint64) uint64 { return block / GroupBlocks }

// MetadataBlocks implements Scheme.
func (s *DualLengthScheme) MetadataBlocks(n uint64) uint64 {
	return (n + GroupBlocks - 1) / GroupBlocks
}

// Stats implements Scheme.
func (s *DualLengthScheme) Stats() Stats { return s.stats }

// OnReencrypt implements Scheme.
func (s *DualLengthScheme) OnReencrypt(f ReencryptFunc) { s.hook = f }

package ctr

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
	groups []deltaGroup // indexed by group; the zero group is Figure 5a's initial state
	// reserve is, per group, the delta-group holding the dual-length
	// reserve plus one, 0 if unassigned (always, under delta-7). Kept out
	// of deltaGroup: a 144-byte group slowed stackbench's embed-cold 2-10 %.
	reserve []uint8
	dual    bool // the dual-length layout
	stats   Stats
	hook    ReencryptFunc
	old     [GroupBlocks]uint64 // the hook's oldCounters argument
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

type deltaGroup struct {
	ref    uint64
	deltas [GroupBlocks]uint16
}

// NewDelta creates a delta-7 counter store with all counters zero
// (reference = 0, deltas = 0, as in Figure 5a's initial state).
func NewDelta() *DeltaScheme {
	return &DeltaScheme{}
}

// NewDualLength creates a dual-length delta counter store with all counters
// zero and the reserve unassigned.
func NewDualLength() *DeltaScheme {
	return &DeltaScheme{dual: true}
}

// Name implements Scheme.
func (s *DeltaScheme) Name() string {
	if s.dual {
		return "dual-length"
	}
	return "delta-7"
}

// GroupSize implements Scheme.
func (s *DeltaScheme) GroupSize() int { return GroupBlocks }

func (s *DeltaScheme) group(block uint64) (*deltaGroup, uint64, int) {
	gid := block / GroupBlocks
	if gid >= uint64(len(s.groups)) {
		s.extend(gid)
	}
	return &s.groups[gid], gid, int(block % GroupBlocks)
}

// extend grows groups and reserve, in step, to hold group gid.
func (s *DeltaScheme) extend(gid uint64) {
	s.groups = grow(s.groups, gid)
	s.reserve = grow(s.reserve, gid)
}

// No slot's limit is below shortMax, which Touch's fast path relies on;
// these stop compiling if one drops under it.
const (
	_ uint = deltaMax - shortMax
	_ uint = longMax - shortMax
)

// limit returns the current capacity of delta slot i of group gid.
func (s *DeltaScheme) limit(gid uint64, i int) uint16 {
	switch {
	case !s.dual:
		return deltaMax
	case s.reserve[gid] == uint8(i/DeltasPerGroup)+1:
		return longMax
	default:
		return shortMax
	}
}

// Counter implements Scheme.
func (s *DeltaScheme) Counter(block uint64) uint64 {
	if gid := block / GroupBlocks; gid < uint64(len(s.groups)) {
		g := &s.groups[gid]
		return g.ref + uint64(g.deltas[block%GroupBlocks])
	}
	return 0
}

// Touch implements Scheme. It follows the hardware flow of Figure 7: the
// increment-and-reset unit checks for overflow before incrementing, applies
// the increment, then checks for an all-equal reset; the re-encode/
// re-encrypt unit handles overflows.
func (s *DeltaScheme) Touch(block uint64) WriteOutcome {
	g, gid, i := s.group(block)
	s.stats.Writes++
	var out WriteOutcome

	// A delta below shortMax is below every slot's limit under either
	// layout, so the common write skips limit and its layout checks.
	if d := g.deltas[i]; d >= shortMax && d == s.limit(gid, i) {
		if s.dual && s.reserve[gid] == 0 {
			// First overflow in a dual-length block-group: hand the
			// reserve bits to this delta-group (Figure 6).
			s.reserve[gid] = uint8(i/DeltasPerGroup) + 1
			s.stats.Extensions++
			out.Extended = true
		} else if dmin := g.minDelta(); dmin > 0 {
			// The cheap fix: re-encode with a larger reference
			// (Figure 5c).
			g.reencode(dmin)
			s.stats.Reencodes++
			out.Reencoded = true
		} else {
			// Δmin = 0: re-encryption is unavoidable (Figure 5a).
			// The group's next counter becomes the shared new
			// counter and the new reference.
			newRef := g.ref + uint64(g.maxDelta()) + 1
			s.reencrypt(gid, g, newRef)
			out.Reencrypted = true
			out.Counter = newRef
			return out
		}
	}

	g.deltas[i]++
	out.Counter = g.ref + uint64(g.deltas[i])

	// Reset check (Figure 5b): fires on the increment path, after the
	// write, as done by the increment-and-reset unit.
	if d := g.allEqual(); d > 0 {
		g.ref += uint64(d)
		clear(g.deltas[:])
		s.reserve[gid] = 0 // all-zero deltas free the reserve
		s.stats.Resets++
		out.Reset = true
	}
	return out
}

func (g *deltaGroup) minDelta() uint16 {
	m := g.deltas[0]
	for _, d := range g.deltas[1:] {
		if d < m {
			m = d
		}
	}
	return m
}

func (g *deltaGroup) maxDelta() uint16 {
	m := g.deltas[0]
	for _, d := range g.deltas[1:] {
		if d > m {
			m = d
		}
	}
	return m
}

// allEqual returns the common delta value when every delta in the group is
// identical and nonzero, else 0.
func (g *deltaGroup) allEqual() uint16 {
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

func (g *deltaGroup) reencode(dmin uint16) {
	g.ref += uint64(dmin)
	for j := range g.deltas {
		g.deltas[j] -= dmin
	}
}

func (s *DeltaScheme) reencrypt(gid uint64, g *deltaGroup, newRef uint64) {
	if s.hook != nil {
		for j := range s.old {
			s.old[j] = g.ref + uint64(g.deltas[j])
		}
		s.hook(gid*GroupBlocks, s.old[:], newRef)
	}
	g.ref = newRef
	clear(g.deltas[:])
	s.reserve[gid] = 0
	s.stats.Reencryptions++
	s.stats.ReencryptedBlocks += GroupBlocks
}

// MetadataBits implements Scheme: (56 + 64*7)/64 = 7.875 bits per block
// under delta-7; dual-length commits the full 512-bit metadata block
// (reference + short deltas + reserve), 8 bits per block.
func (s *DeltaScheme) MetadataBits() float64 {
	if s.dual {
		return float64(MetadataBlockBytes*8) / GroupBlocks
	}
	return float64(RefBits+GroupBlocks*DeltaBits) / GroupBlocks
}

// MetadataBlock implements Scheme.
func (s *DeltaScheme) MetadataBlock(block uint64) uint64 { return block / GroupBlocks }

// MetadataBlocks implements Scheme.
func (s *DeltaScheme) MetadataBlocks(n uint64) uint64 {
	return (n + GroupBlocks - 1) / GroupBlocks
}

// Stats implements Scheme.
func (s *DeltaScheme) Stats() Stats { return s.stats }

// OnReencrypt implements Scheme.
func (s *DeltaScheme) OnReencrypt(f ReencryptFunc) { s.hook = f }

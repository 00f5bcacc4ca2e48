package ctr

// DeltaScheme implements §4's frame-of-reference delta encoding: each 4KB
// block-group stores one 56-bit reference counter and a 7-bit delta per
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
//     under the overflowing counter's next value, make it the new
//     reference, and zero all deltas.
//
// Storage: 56 + 64*7 = 504 bits per group, padded to one 64-byte metadata
// block — the same footprint as split counters but with far fewer
// re-encryptions (Table 2).
type DeltaScheme struct {
	groups []deltaGroup // indexed by group; the zero group is Figure 5a's initial state
	stats  Stats
	hook   ReencryptFunc
	old    [GroupBlocks]uint64 // the hook's oldCounters argument
}

// DeltaBits is the delta width evaluated in the paper.
const DeltaBits = 7

// deltaMax is the largest representable 7-bit delta.
const deltaMax = (1 << DeltaBits) - 1

// RefBits is the reference-counter width; like SGX's 56-bit counters it
// cannot realistically overflow within a machine's lifetime.
const RefBits = 56

type deltaGroup struct {
	ref    uint64
	deltas [GroupBlocks]uint16
}

// NewDelta creates a delta-encoded counter store with all counters zero
// (reference = 0, deltas = 0, as in Figure 5a's initial state).
func NewDelta() *DeltaScheme {
	return &DeltaScheme{}
}

// Name implements Scheme.
func (s *DeltaScheme) Name() string { return "delta-7" }

// GroupSize implements Scheme.
func (s *DeltaScheme) GroupSize() int { return GroupBlocks }

func (s *DeltaScheme) group(block uint64) (*deltaGroup, uint64, int) {
	gid := block / GroupBlocks
	if gid >= uint64(len(s.groups)) {
		s.groups = grow(s.groups, gid)
	}
	return &s.groups[gid], gid, int(block % GroupBlocks)
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

	if g.deltas[i] == deltaMax {
		// Overflow. Try the cheap fix first: re-encode with a larger
		// reference (Figure 5c).
		if dmin := g.minDelta(); dmin > 0 {
			g.reencode(dmin)
			s.stats.Reencodes++
			out.Reencoded = true
		} else {
			// Δmin = 0: re-encryption is unavoidable (Figure 5a).
			// The overflowing counter is the largest in the group;
			// its next value becomes the shared new counter and the
			// new reference.
			newRef := g.ref + deltaMax + 1
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
	s.stats.Reencryptions++
	s.stats.ReencryptedBlocks += GroupBlocks
}

// MetadataBits implements Scheme: (56 + 64*7)/64 = 7.875 bits per block.
func (s *DeltaScheme) MetadataBits() float64 {
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

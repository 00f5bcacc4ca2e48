package ctr

// SplitScheme implements the split-counter baseline of Yan et al. (ISCA'06):
// each 4KB block-group shares a 64-bit major counter M, and each block keeps
// a 7-bit minor counter m. A block's encryption counter is the concatenation
// M||m. When a minor counter overflows, the major counter is incremented,
// every minor counter resets to zero, and the entire group must be
// re-encrypted under the new counters.
//
// Storage: 64 + 64*7 = 512 bits per group — exactly one 64-byte metadata
// block, an 8x reduction over 64-bit-per-block counters. The paper's Table 2
// uses this scheme (with 7-bit minors) as the re-encryption-rate baseline.
type SplitScheme struct {
	groups []splitGroup // indexed by group; the zero group is all counters 0
	stats  Stats
	hook   ReencryptFunc
	old    [GroupBlocks]uint64 // the hook's oldCounters argument
}

// MinorBits is the minor-counter width evaluated in the paper.
const MinorBits = 7

// minorMax is the largest representable minor counter value.
const minorMax = (1 << MinorBits) - 1

type splitGroup struct {
	major  uint64
	minors [GroupBlocks]uint16
}

// NewSplit creates a split-counter store with all counters zero.
func NewSplit() *SplitScheme {
	return &SplitScheme{}
}

// Name implements Scheme.
func (s *SplitScheme) Name() string { return "split-7" }

// GroupSize implements Scheme.
func (s *SplitScheme) GroupSize() int { return GroupBlocks }

func (s *SplitScheme) group(block uint64) (*splitGroup, uint64, int) {
	gid := block / GroupBlocks
	if gid >= uint64(len(s.groups)) {
		s.groups = grow(s.groups, gid)
	}
	return &s.groups[gid], gid, int(block % GroupBlocks)
}

// counterOf assembles the full counter M||m for one slot.
func (g *splitGroup) counterOf(i int) uint64 {
	return g.major<<MinorBits | uint64(g.minors[i])
}

// Counter implements Scheme.
func (s *SplitScheme) Counter(block uint64) uint64 {
	if gid := block / GroupBlocks; gid < uint64(len(s.groups)) {
		return s.groups[gid].counterOf(int(block % GroupBlocks))
	}
	return 0
}

// Touch implements Scheme.
func (s *SplitScheme) Touch(block uint64) WriteOutcome {
	g, gid, i := s.group(block)
	s.stats.Writes++
	if g.minors[i] < minorMax {
		g.minors[i]++
		return WriteOutcome{Counter: g.counterOf(i)}
	}
	// Minor overflow: re-encrypt the whole group under major+1, minors 0.
	newMajor := g.major + 1
	newCounter := newMajor << MinorBits
	if s.hook != nil {
		for j := range s.old {
			s.old[j] = g.counterOf(j)
		}
		s.hook(gid*GroupBlocks, s.old[:], newCounter)
	}
	g.major = newMajor
	clear(g.minors[:])
	// The triggering block still gets its write: increment its fresh minor.
	g.minors[i] = 1
	s.stats.Reencryptions++
	s.stats.ReencryptedBlocks += GroupBlocks
	return WriteOutcome{Counter: g.counterOf(i), Reencrypted: true}
}

// MetadataBits implements Scheme: (64 + 64*7)/64 = 8 bits per block.
func (s *SplitScheme) MetadataBits() float64 {
	return float64(64+GroupBlocks*MinorBits) / GroupBlocks
}

// MetadataBlock implements Scheme: one metadata block per group.
func (s *SplitScheme) MetadataBlock(block uint64) uint64 { return block / GroupBlocks }

// MetadataBlocks implements Scheme.
func (s *SplitScheme) MetadataBlocks(n uint64) uint64 {
	return (n + GroupBlocks - 1) / GroupBlocks
}

// Stats implements Scheme.
func (s *SplitScheme) Stats() Stats { return s.stats }

// OnReencrypt implements Scheme.
func (s *SplitScheme) OnReencrypt(f ReencryptFunc) { s.hook = f }

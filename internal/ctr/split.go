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
// Each group is its image in the split-7 layout (pack.go), edited in place.
type SplitScheme struct {
	table
}

// MinorBits is the minor-counter width evaluated in the paper.
const MinorBits = 7

// minorMax is the largest representable minor counter value.
const minorMax = (1 << MinorBits) - 1

// NewSplit creates a split-counter store with all counters zero.
func NewSplit() *SplitScheme {
	return &SplitScheme{table{kind: Split}}
}

// Touch implements Scheme: it adds one to the block's minor in place. A
// minor at its maximum instead re-encrypts the whole group under major+1.
func (s *SplitScheme) Touch(block uint64) WriteOutcome {
	gid, i := block/GroupBlocks, uint(block%GroupBlocks)
	img := s.image(gid)
	s.stats.Writes++
	// The minor is the 7 bits at shift of its 7-byte word, accessed as the
	// 8-byte word at off, so a word's eight minors share one address (a
	// store then forwards to the next write's load). The last word's access
	// is pulled back to byte 56, as in field.
	off, shift := splitMinorOff+MinorBits*(i/8), MinorBits*(i%8)
	if off > MetadataBlockBytes-8 {
		off, shift = MetadataBlockBytes-8, shift+8
	}
	word, major := load64(img, int(off)), load64(img, 0)
	if minor := word >> shift & minorMax; minor < minorMax {
		store64(img, int(off), word+1<<shift)
		return WriteOutcome{Counter: major<<MinorBits | (minor + 1)}
	}
	s.reencrypt(img, gid, major)
	store64(img, int(off), 1<<shift)
	return WriteOutcome{Counter: (major+1)<<MinorBits | 1, Reencrypted: true}
}

// reencrypt handles a minor overflow: the hook sees the group's old
// counters, then the group moves to major+1 with every minor 0.
func (s *SplitScheme) reencrypt(img *[MetadataBlockBytes]byte, gid, major uint64) {
	if s.hook != nil {
		for j := range s.old {
			s.old[j] = major<<MinorBits | field(img, splitMinorOff*8+MinorBits*j, MinorBits)
		}
		s.hook(gid*GroupBlocks, s.old[:], (major+1)<<MinorBits)
	}
	*img = [MetadataBlockBytes]byte{}
	store64(img, 0, major+1)
	s.stats.Reencryptions++
	s.stats.ReencryptedBlocks += GroupBlocks
}

// MetadataBits implements Scheme: (64 + 64*7)/64 = 8 bits per block.
func (s *SplitScheme) MetadataBits() float64 {
	return float64(64+GroupBlocks*MinorBits) / GroupBlocks
}

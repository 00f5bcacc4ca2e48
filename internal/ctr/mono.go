package ctr

// MonolithicScheme stores a full 56-bit counter per 64-byte block, as Intel
// SGX does. It never re-encrypts (a 56-bit counter cannot realistically
// overflow), at the cost of ~11% counter storage overhead: the reference
// point the paper's Figure 1 starts from. Every eight blocks' counters are
// one image in the monolithic layout (pack.go), edited in place.
type MonolithicScheme struct {
	table
}

// CountersPerMetadataBlock is how many monolithic counters fit in one
// 64-byte metadata block. Counters occupy aligned 64-bit slots (56-bit value
// in a 64-bit field), matching SGX's layout.
const CountersPerMetadataBlock = MetadataBlockBytes / 8

// NewMonolithic creates a monolithic counter store with all counters zero.
func NewMonolithic() *MonolithicScheme {
	return &MonolithicScheme{table{kind: Monolithic}}
}

// Touch implements Scheme: it adds one to the block's slot in place.
func (s *MonolithicScheme) Touch(block uint64) WriteOutcome {
	img := s.image(block / CountersPerMetadataBlock)
	off := 8 * int(block%CountersPerMetadataBlock)
	c := load64(img, off) + 1
	store64(img, off, c)
	s.stats.Writes++
	return WriteOutcome{Counter: c}
}

// MetadataBits implements Scheme: a 64-bit slot per block.
func (s *MonolithicScheme) MetadataBits() float64 { return 64 }

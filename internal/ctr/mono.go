package ctr

// MonolithicScheme stores a full 56-bit counter per 64-byte block, as Intel
// SGX does. It never re-encrypts (a 56-bit counter cannot realistically
// overflow), at the cost of ~11% counter storage overhead: the reference
// point the paper's Figure 1 starts from.
type MonolithicScheme struct {
	counters []uint64 // indexed by block; grown by Touch and LoadMetadata
	stats    Stats
}

// CountersPerMetadataBlock is how many monolithic counters fit in one
// 64-byte metadata block. Counters occupy aligned 64-bit slots (56-bit value
// in a 64-bit field), matching SGX's layout.
const CountersPerMetadataBlock = MetadataBlockBytes / 8

// NewMonolithic creates a monolithic counter store with all counters zero.
func NewMonolithic() *MonolithicScheme {
	return &MonolithicScheme{}
}

// Name implements Scheme.
func (s *MonolithicScheme) Name() string { return "monolithic-56" }

// GroupSize implements Scheme: every block is independent.
func (s *MonolithicScheme) GroupSize() int { return 1 }

// Counter implements Scheme.
func (s *MonolithicScheme) Counter(block uint64) uint64 {
	if block < uint64(len(s.counters)) {
		return s.counters[block]
	}
	return 0
}

// Touch implements Scheme.
func (s *MonolithicScheme) Touch(block uint64) WriteOutcome {
	if block >= uint64(len(s.counters)) {
		s.counters = grow(s.counters, block)
	}
	s.counters[block]++
	s.stats.Writes++
	return WriteOutcome{Counter: s.counters[block]}
}

// MetadataBits implements Scheme: a 64-bit slot per block.
func (s *MonolithicScheme) MetadataBits() float64 { return 64 }

// MetadataBlock implements Scheme: 8 counters per metadata block.
func (s *MonolithicScheme) MetadataBlock(block uint64) uint64 {
	return block / CountersPerMetadataBlock
}

// MetadataBlocks implements Scheme.
func (s *MonolithicScheme) MetadataBlocks(n uint64) uint64 {
	return (n + CountersPerMetadataBlock - 1) / CountersPerMetadataBlock
}

// Stats implements Scheme.
func (s *MonolithicScheme) Stats() Stats { return s.stats }

// OnReencrypt implements Scheme; the monolithic scheme never re-encrypts,
// so the hook is accepted and never called.
func (s *MonolithicScheme) OnReencrypt(ReencryptFunc) {}

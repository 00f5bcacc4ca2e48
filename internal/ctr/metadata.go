package ctr

// PackMetadata methods return the canonical 64-byte storage image of a
// metadata block. The integrity tree (internal/tree) MACs these images, so
// they must be deterministic functions of scheme state. Indexing matches
// MetadataBlock: for grouped schemes metadata block m holds group m; for the
// monolithic scheme it holds counters 8m..8m+7.

// PackMetadata implements the metadata-image contract for MonolithicScheme.
func (s *MonolithicScheme) PackMetadata(m uint64) [MetadataBlockBytes]byte {
	var c [CountersPerMetadataBlock]uint64
	for i := range c {
		c[i] = s.Counter(m*CountersPerMetadataBlock + uint64(i))
	}
	return PackMonolithic(&c)
}

// PackMetadata implements the metadata-image contract for SplitScheme.
func (s *SplitScheme) PackMetadata(m uint64) [MetadataBlockBytes]byte {
	g := &splitGroup{}
	if m < uint64(len(s.groups)) {
		g = &s.groups[m]
	}
	return PackSplit(g.major, &g.minors)
}

// PackMetadata implements the metadata-image contract for DeltaScheme: the
// image is the scheme's state, so this is a copy.
func (s *DeltaScheme) PackMetadata(m uint64) [MetadataBlockBytes]byte {
	if m < uint64(len(s.images)) {
		return s.images[m]
	}
	return [MetadataBlockBytes]byte{}
}

// LoadMetadata methods restore scheme state from a stored 64-byte image —
// the inverse of PackMetadata, used when resuming a persistent (NVMM)
// memory: counters survive power-off in DRAM/NVMM form and the state
// machine is rebuilt from them. Non-canonical images are rejected.

// LoadMetadata implements the metadata-restore contract for
// MonolithicScheme.
func (s *MonolithicScheme) LoadMetadata(m uint64, img [MetadataBlockBytes]byte) error {
	last := m*CountersPerMetadataBlock + CountersPerMetadataBlock - 1
	if last >= uint64(len(s.counters)) {
		s.counters = grow(s.counters, last)
	}
	counters := UnpackMonolithic(img)
	copy(s.counters[m*CountersPerMetadataBlock:], counters[:])
	return nil
}

// LoadMetadata implements the metadata-restore contract for SplitScheme.
func (s *SplitScheme) LoadMetadata(m uint64, img [MetadataBlockBytes]byte) error {
	major, minors := UnpackSplit(img)
	if m >= uint64(len(s.groups)) {
		s.groups = grow(s.groups, m)
	}
	s.groups[m] = splitGroup{major: major, minors: minors}
	return nil
}

// LoadMetadata implements the metadata-restore contract for DeltaScheme, in
// its delta-7 or dual-length layout: the layout's unpacker validates the
// image, and the scheme keeps its canonical repack.
func (s *DeltaScheme) LoadMetadata(m uint64, img [MetadataBlockBytes]byte) error {
	ref, deltas, extended, err := s.decode(&img)
	if err != nil {
		return err
	}
	if m >= uint64(len(s.images)) {
		s.images = grow(s.images, m)
	}
	s.images[m] = s.encode(ref, &deltas, extended)
	return nil
}

// MetadataPacker is implemented by all schemes in this package; the engine
// asserts to it when it needs storage images for tree hashing.
type MetadataPacker interface {
	PackMetadata(m uint64) [MetadataBlockBytes]byte
}

// MetadataLoader is the restore-side counterpart of MetadataPacker.
type MetadataLoader interface {
	LoadMetadata(m uint64, img [MetadataBlockBytes]byte) error
}

var (
	_ MetadataPacker = (*MonolithicScheme)(nil)
	_ MetadataPacker = (*SplitScheme)(nil)
	_ MetadataPacker = (*DeltaScheme)(nil)

	_ MetadataLoader = (*MonolithicScheme)(nil)
	_ MetadataLoader = (*SplitScheme)(nil)
	_ MetadataLoader = (*DeltaScheme)(nil)

	_ Scheme = (*MonolithicScheme)(nil)
	_ Scheme = (*SplitScheme)(nil)
	_ Scheme = (*DeltaScheme)(nil)
)

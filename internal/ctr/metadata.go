package ctr

import "math/bits"

// table is every scheme's counter state and the part of Scheme that does not
// depend on the scheme's overflow rule. The state is one 64-byte metadata
// image per metadata block, in the layout of kind (pack.go): the counter
// block the integrity tree MACs, edited in place by the scheme's Touch. The
// zero image is every layout's initial state (every counter 0, the
// dual-length reserve unassigned). Indexing matches MetadataBlock: image m
// holds group m of a grouped scheme, or counters 8m..8m+7 of the monolithic
// scheme.
type table struct {
	images [][MetadataBlockBytes]byte
	kind   Kind // the layout
	stats  Stats
	hook   ReencryptFunc
	old    [GroupBlocks]uint64 // the hook's oldCounters argument
}

// shift is log2 of the number of data blocks one image covers: GroupBlocks,
// or the monolithic scheme's CountersPerMetadataBlock.
func (t *table) shift() uint {
	if t.kind == Monolithic {
		return uint(bits.TrailingZeros64(CountersPerMetadataBlock))
	}
	return uint(bits.TrailingZeros64(GroupBlocks))
}

// image returns image m for a write, growing the table to cover it. Only
// Touch and LoadMetadata grow; the read-only paths answer past the end with
// the initial state.
func (t *table) image(m uint64) *[MetadataBlockBytes]byte {
	if m >= uint64(len(t.images)) {
		t.grow(m)
	}
	return &t.images[m]
}

// grow makes the table long enough to index m: the length doubles, or jumps
// to m+1 when doubling falls short. The new images are zero, so a grow never
// changes a counter.
func (t *table) grow(m uint64) {
	g := make([][MetadataBlockBytes]byte, max(2*uint64(len(t.images)), m+1))
	copy(g, t.images)
	t.images = g
}

// Name implements Scheme.
func (t *table) Name() string { return t.kind.String() }

// Counter implements Scheme: the layout's single-slot decode of the trusted
// image.
func (t *table) Counter(block uint64) uint64 {
	m := block >> t.shift()
	if m >= uint64(len(t.images)) {
		return 0
	}
	c, _ := t.StoredCounter(&t.images[m], block) // fails only on a slot out of the image
	return c
}

// StoredCounter implements Scheme: block's slot of img, decoded in place by
// the layout's decoder (pack.go).
func (t *table) StoredCounter(img *[MetadataBlockBytes]byte, block uint64) (uint64, error) {
	switch i := int(block % GroupBlocks); t.kind {
	case Delta:
		return DecodeCounter(img, i)
	case DualLength:
		return DecodeDualCounter(img, i)
	case Split:
		return DecodeSplitCounter(img, i)
	default:
		return DecodeMonolithicCounter(img, int(block%CountersPerMetadataBlock))
	}
}

// MetadataBlock implements Scheme.
func (t *table) MetadataBlock(block uint64) uint64 { return block >> t.shift() }

// MetadataBlocks implements Scheme.
func (t *table) MetadataBlocks(n uint64) uint64 {
	return (n + 1<<t.shift() - 1) >> t.shift()
}

// PackMetadata implements Scheme: the image is the state, so this is a
// copy. It is kept out of line so that each scheme's promoted method is a
// jump to it: an inlined body costs the wrapper two more 64-byte copies.
//
//go:noinline
func (t *table) PackMetadata(m uint64) [MetadataBlockBytes]byte {
	if m < uint64(len(t.images)) {
		return t.images[m]
	}
	return [MetadataBlockBytes]byte{}
}

// LoadMetadata implements Scheme, restoring image m from storage when a
// persistent (NVMM) memory resumes. Every split and monolithic image is
// canonical; a delta layout's image must pass its unpacker, and the table
// keeps the canonical repack.
func (t *table) LoadMetadata(m uint64, img [MetadataBlockBytes]byte) error {
	if t.kind == Delta || t.kind == DualLength {
		ref, deltas, extended, err := t.decode(&img)
		if err != nil {
			return err
		}
		img = t.encode(ref, &deltas, extended)
	}
	*t.image(m) = img
	return nil
}

// decode unpacks a delta group's image with its layout's codec: a delta
// group's re-encode and re-encryption and LoadMetadata work on the unpacked
// group.
func (t *table) decode(img *[MetadataBlockBytes]byte) (ref uint64, deltas [GroupBlocks]uint16, extended int8, err error) {
	if t.kind == DualLength {
		return UnpackDualLength(*img)
	}
	ref, deltas, err = UnpackDelta(*img)
	return ref, deltas, -1, err
}

// encode packs a delta group with its layout's codec.
func (t *table) encode(ref uint64, deltas *[GroupBlocks]uint16, extended int8) [MetadataBlockBytes]byte {
	var blk [MetadataBlockBytes]byte
	var err error
	if t.kind == DualLength {
		blk, err = PackDualLength(ref, deltas, extended)
	} else {
		blk, err = PackDelta(ref, deltas)
	}
	if err != nil {
		// Scheme invariants guarantee packable state; a failure here is
		// a bug, not an input error.
		panic(err)
	}
	return blk
}

// Stats implements Scheme.
func (t *table) Stats() Stats { return t.stats }

// OnReencrypt implements Scheme. The monolithic scheme never re-encrypts,
// so its hook is kept and never called.
func (t *table) OnReencrypt(f ReencryptFunc) { t.hook = f }

var (
	_ Scheme = (*MonolithicScheme)(nil)
	_ Scheme = (*SplitScheme)(nil)
	_ Scheme = (*DeltaScheme)(nil)
)

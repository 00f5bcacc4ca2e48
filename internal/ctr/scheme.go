// Package ctr implements the per-block write-counter schemes studied in the
// paper:
//
//   - Monolithic: one 56-bit counter per 64-byte block (the SGX baseline).
//   - Split counters (Yan et al., ISCA'06): a shared 64-bit major counter
//     plus a 7-bit minor counter per block; minor overflow re-encrypts the
//     whole block-group.
//   - Delta encoding (§4): a 56-bit reference plus a 7-bit delta per block,
//     with two overflow-avoidance optimizations — resetting deltas when they
//     all converge to the same value, and re-encoding by subtracting the
//     minimum delta — before falling back to group re-encryption at
//     max(counter)+1.
//   - Dual-length delta encoding (§4.3): the same scheme and the same
//     overflow rule (DeltaScheme, built by NewDualLength) over 6-bit deltas
//     in four delta-groups of 16, with 72 reserved bits that extend one
//     delta-group by 4 bits per delta at its first overflow.
//
// Counters are the nonces of counter-mode memory encryption; the scheme's
// one hard invariant is that a block's counter strictly increases on every
// write to it (no nonce reuse). A group re-encryption additionally bumps the
// counters of every other block in the group, which is why re-encryption
// rate (Table 2) is the figure of merit.
package ctr

import "fmt"

// BlockBytes is the data-block granularity counters are tracked at.
const BlockBytes = 64

// GroupBlocks is the block-group size shared by the grouped schemes:
// 64 blocks = 4KB, matching the paper's evaluation.
const GroupBlocks = 64

// MetadataBlockBytes is the size of one counter-storage block. Every grouped
// scheme packs a whole group's counters into a single 64-byte block, which is
// the property that lets the decryption pipeline fetch reference + deltas in
// one read (§4.2).
const MetadataBlockBytes = 64

// DecodeCycles is the counter-decode latency the paper measured by
// synthesizing the decode unit to IBM 45nm SOI: 2 cycles at up to 4GHz
// (§5.3). The timing model charges this on metadata reads for delta schemes.
const DecodeCycles = 2

// WriteOutcome describes what a counter increment did.
type WriteOutcome struct {
	// Counter is the block's new counter value; the write must be
	// encrypted under it.
	Counter uint64
	// Reset is true when the all-deltas-equal reset optimization fired.
	Reset bool
	// Reencoded is true when the Δmin re-encode optimization fired.
	Reencoded bool
	// Extended is true when dual-length encoding assigned the overflow
	// bits to a delta-group.
	Extended bool
	// Reencrypted is true when the write forced a group re-encryption.
	Reencrypted bool
}

// Stats aggregates scheme events over a run.
type Stats struct {
	Writes        uint64 // counter increments
	Resets        uint64 // all-deltas-equal resets
	Reencodes     uint64 // Δmin re-encodes
	Extensions    uint64 // dual-length group extensions
	Reencryptions uint64 // group re-encryptions
	// ReencryptedBlocks counts data blocks rewritten by re-encryptions;
	// this is the NVMM write-amplification metric of §2.2.
	ReencryptedBlocks uint64
}

// ReencryptFunc is invoked when a scheme must re-encrypt a block-group.
// groupStart is the global index of the group's first block, oldCounters
// holds the pre-re-encryption counter of each block in the group (length =
// group size), and newCounter is the single counter every block is
// re-encrypted under. The hook runs before the scheme commits its new state,
// so implementations can still decrypt with the old counters. oldCounters is
// the scheme's own scratch array, valid only until the hook returns.
type ReencryptFunc func(groupStart uint64, oldCounters []uint64, newCounter uint64)

// Scheme is a per-block write-counter store.
type Scheme interface {
	// Name identifies the scheme in tables and logs.
	Name() string
	// GroupSize returns the number of data blocks sharing metadata
	// (1 for the monolithic scheme).
	GroupSize() int
	// Counter returns the current counter of a data block.
	Counter(block uint64) uint64
	// Touch increments the counter of a data block for a write and
	// reports what happened.
	Touch(block uint64) WriteOutcome
	// MetadataBits returns the counter-storage bits consumed per data
	// block, including shared reference/major counters.
	MetadataBits() float64
	// MetadataBlock maps a data block to the index of the 64-byte
	// metadata block holding its counter state.
	MetadataBlock(block uint64) uint64
	// MetadataBlocks returns how many metadata blocks cover n data blocks.
	MetadataBlocks(n uint64) uint64
	// Stats returns cumulative event counts.
	Stats() Stats
	// OnReencrypt registers a hook called for every group re-encryption.
	OnReencrypt(ReencryptFunc)
	// PackMetadata returns metadata block m's canonical 64-byte storage
	// image (metadata.go).
	PackMetadata(m uint64) [MetadataBlockBytes]byte
	// LoadMetadata restores metadata block m's state from a stored image,
	// rejecting a non-canonical one.
	LoadMetadata(m uint64, img [MetadataBlockBytes]byte) error
	// StoredCounter decodes block's counter from its metadata block's
	// stored (untrusted) image in place, without touching scheme state.
	StoredCounter(img *[MetadataBlockBytes]byte, block uint64) (uint64, error)
}

// grow returns a copy of s long enough to index i: the length doubles, or
// jumps to i+1 when doubling falls short. The new elements are zero, which
// every scheme defines as its initial state, so a grow never changes a
// counter. Only Touch and LoadMetadata grow; the read-only paths answer past
// the end with the initial state.
func grow[T any](s []T, i uint64) []T {
	g := make([]T, max(2*uint64(len(s)), i+1))
	copy(g, s)
	return g
}

// Kind selects a scheme in configuration structs.
type Kind int

const (
	// Monolithic is one full-width counter per block.
	Monolithic Kind = iota
	// Split is the split-counter baseline of Yan et al.
	Split
	// Delta is 7-bit frame-of-reference delta encoding with reset and
	// re-encode optimizations.
	Delta
	// DualLength is 6-bit deltas with one 4-bit-per-delta group extension.
	DualLength
)

// String returns the display name of the kind.
func (k Kind) String() string {
	switch k {
	case Monolithic:
		return "monolithic-56"
	case Split:
		return "split-7"
	case Delta:
		return "delta-7"
	case DualLength:
		return "dual-length"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// NewScheme constructs a counter scheme of the given kind.
func NewScheme(k Kind) (Scheme, error) {
	switch k {
	case Monolithic:
		return NewMonolithic(), nil
	case Split:
		return NewSplit(), nil
	case Delta:
		return NewDelta(), nil
	case DualLength:
		return NewDualLength(), nil
	default:
		return nil, fmt.Errorf("ctr: unknown scheme kind %d", int(k))
	}
}

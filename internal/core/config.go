// Package core implements the paper's memory encryption engine: the
// integration of counter-mode encryption, MAC-based integrity, the Bonsai
// Merkle tree, and the two proposed optimizations (MAC-in-ECC and
// delta-encoded counters).
//
// Engine (engine.go) is a *functional* authenticated encrypted memory: real
// AES-CTR encryption, real Carter-Wegman MACs, a real Merkle tree over real
// counter-block images. It exposes attacker/fault APIs (tamper with
// ciphertext, ECC bits, counter blocks, tree nodes) so security and
// reliability claims are testable, not asserted. ShardedEngine partitions a
// region into independently locked engines under one combined root.
//
// Config names a design point. The cycle-level cost model of the same design
// point is internal/sim's TimingModel, which runs the same counter schemes
// (internal/ctr) over the same tree shape (internal/tree) and prices them
// against a DRAM model; this package links no simulator. ComputeOverhead is
// the design point's Figure 1 storage arithmetic.
package core

import (
	"fmt"

	"authmem/internal/ctr"
	"authmem/internal/ecc"
	"authmem/internal/macecc"
	"authmem/internal/tree"
)

// BlockBytes is the protection granularity (one cache line).
const BlockBytes = 64

// MACPlacement selects where MAC tags live.
type MACPlacement int

const (
	// MACInline is the baseline: MACs are stored in a dedicated DRAM
	// region (8 tags per 64-byte block) and fetching one costs a DRAM
	// transaction (mitigated by the metadata cache). Data blocks are
	// separately protected by standard SEC-DED(72,64) ECC.
	MACInline MACPlacement = iota
	// MACInECC is the paper's §3 scheme: the 8 ECC bytes per block carry
	// a 56-bit MAC + 7 Hamming bits + 1 scrub parity bit. MACs arrive on
	// the ECC lane in parallel with data (no extra transaction, no cache
	// space) and double as the error-detection/correction code.
	MACInECC
)

// String names the placement for tables.
func (p MACPlacement) String() string {
	switch p {
	case MACInline:
		return "inline-mac"
	case MACInECC:
		return "mac-in-ecc"
	default:
		return fmt.Sprintf("MACPlacement(%d)", int(p))
	}
}

// Config describes one memory-encryption design point.
type Config struct {
	// RegionBytes is the protected-region size (Table 1: 512MB).
	RegionBytes uint64
	// Scheme selects the counter representation.
	Scheme ctr.Kind
	// Placement selects MAC storage.
	Placement MACPlacement
	// OnChipTreeBytes is the SRAM budget for the trusted top tree level
	// (Table 1: 3KB).
	OnChipTreeBytes int
	// CorrectBits bounds MAC-in-ECC flip-and-check correction (0..2).
	CorrectBits int
	// KeyMaterial seeds the MAC key (24 bytes) and the encryption key
	// (16 bytes): 40 bytes total.
	KeyMaterial []byte
}

// KeyMaterialLen is the required KeyMaterial length.
const KeyMaterialLen = 40

// Default returns the paper's Table 1 configuration with the given scheme
// and placement.
func Default(scheme ctr.Kind, placement MACPlacement) Config {
	return Config{
		RegionBytes:     512 << 20,
		Scheme:          scheme,
		Placement:       placement,
		OnChipTreeBytes: 3 << 10,
		CorrectBits:     2,
		KeyMaterial:     DefaultKeyMaterial(),
	}
}

// DefaultKeyMaterial returns a fixed, obviously-non-secret development key.
// Production users must supply their own.
func DefaultKeyMaterial() []byte {
	m := make([]byte, KeyMaterialLen)
	for i := range m {
		m[i] = byte(i*37 + 11)
	}
	return m
}

// Validate checks structural requirements.
func (c Config) Validate() error {
	switch {
	case c.RegionBytes == 0 || c.RegionBytes%BlockBytes != 0:
		return fmt.Errorf("core: region size %d not a multiple of %d", c.RegionBytes, BlockBytes)
	case c.RegionBytes < uint64(ctr.GroupBlocks*BlockBytes):
		return fmt.Errorf("core: region smaller than one block-group")
	case len(c.KeyMaterial) != KeyMaterialLen:
		return fmt.Errorf("core: key material must be %d bytes, got %d", KeyMaterialLen, len(c.KeyMaterial))
	case c.OnChipTreeBytes < 64:
		return fmt.Errorf("core: on-chip tree budget below one node")
	case c.CorrectBits < 0 || c.CorrectBits > 2:
		return fmt.Errorf("core: correction budget %d out of range", c.CorrectBits)
	}
	return nil
}

// CodecName returns the name of the ECC codec the MAC placement fixes:
// the MAC-carrying lane under MACInECC, SEC-DED(72,64) check bytes beside
// an inline tag otherwise. It is what persisted image headers record and
// campaign reports print.
func (c Config) CodecName() string {
	if c.Placement == MACInECC {
		return macecc.CodecName
	}
	return ecc.CodecName
}

// DataBlocks returns the number of protected 64-byte blocks.
func (c Config) DataBlocks() uint64 { return c.RegionBytes / BlockBytes }

// TreeShape returns the shape of the design point's integrity tree, the
// Bonsai Merkle tree: one leaf per counter-metadata block, a block's leaf its
// metadata index. The engine builds its tree on this shape; the timing model
// walks it and ComputeOverhead counts it.
func (c Config) TreeShape() (tree.Shape, error) {
	scheme, err := ctr.NewScheme(c.Scheme)
	if err != nil {
		return tree.Shape{}, err
	}
	return tree.NewShape(scheme.MetadataBlocks(c.DataBlocks()), c.OnChipTreeBytes)
}

// FailStage identifies which verification stage detected an integrity
// violation. The recovery path keys off it: counter-stage failures are
// repairable from the trusted on-chip state machine, data-stage failures
// are not.
type FailStage int

const (
	// StageUnknown is the zero value for errors predating staging.
	StageUnknown FailStage = iota
	// StageCounter: the counter-block image failed its tree check or
	// could not be decoded.
	StageCounter
	// StageData: the ciphertext failed MAC verification or SEC-DED
	// decoding beyond the correction budget.
	StageData
	// StageResume: a persisted image failed validation while resuming.
	StageResume
)

// String names the stage.
func (s FailStage) String() string {
	switch s {
	case StageCounter:
		return "counter"
	case StageData:
		return "data"
	case StageResume:
		return "resume"
	default:
		return "unknown"
	}
}

// IntegrityError reports a failed authentication or freshness check.
type IntegrityError struct {
	// Addr is the byte address of the offending access.
	Addr uint64
	// Reason describes which check failed.
	Reason string
	// Stage is the verification stage that detected the violation.
	Stage FailStage
}

// Error implements error.
func (e *IntegrityError) Error() string {
	return fmt.Sprintf("core: integrity violation at %#x: %s", e.Addr, e.Reason)
}

// Package core implements the paper's memory encryption engine: the
// integration of counter-mode encryption, MAC-based integrity, the Bonsai
// Merkle tree, the counter/MAC metadata cache, and the two proposed
// optimizations (MAC-in-ECC and delta-encoded counters).
//
// The package provides two cooperating models:
//
//   - Engine (engine.go): a *functional* authenticated encrypted memory.
//     Real AES-CTR encryption, real Carter-Wegman MACs, a real Merkle tree
//     over real counter-block images. It exposes attacker/fault APIs
//     (tamper with ciphertext, ECC bits, counter blocks, tree nodes) so
//     security and reliability claims are testable, not asserted.
//
//   - TimingModel (timing.go): a cycle-level cost model of the same design
//     used by the full-system simulator (internal/sim). It executes the
//     metadata state machines (counter schemes, caches, tree geometry) and
//     prices every DRAM transaction through internal/dram, but skips the
//     cryptography, making billion-access simulations tractable.
//
// Both models are configured by the same Config so experiments exercise one
// consistent design point.
package core

import (
	"fmt"

	"authmem/internal/ctr"
	"authmem/internal/ecc"

	// The MAC-carrying "macsecded" codec registers itself with the ecc
	// registry from init; the engine only ever speaks to the interface, so
	// this blank import is what keeps the codec linked in.
	_ "authmem/internal/macecc"
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
	// MetadataCacheBytes / MetadataCacheWays size the on-chip
	// counter/MAC cache (Table 1: 32KB, 8-way).
	MetadataCacheBytes int
	MetadataCacheWays  int
	// OnChipTreeBytes is the SRAM budget for the trusted top tree level
	// (Table 1: 3KB).
	OnChipTreeBytes int
	// CorrectBits bounds MAC-in-ECC flip-and-check correction (0..2).
	CorrectBits int
	// KeyMaterial seeds the MAC key (24 bytes) and the encryption key
	// (16 bytes): 40 bytes total.
	KeyMaterial []byte
	// DisableEncryption turns the engine into plain memory — the
	// no-protection baseline Figure 8 normalizes against.
	DisableEncryption bool
	// DataTree switches from the Bonsai Merkle tree (over counter
	// blocks) to the classic pre-BMT design §2.2 contrasts against: the
	// integrity tree spans the data blocks themselves (plus the counter
	// blocks). This inflates the tree ~60x and adds a full tree walk to
	// every data access — the overhead Rogers et al.'s observation
	// removed.
	DataTree bool
	// CryptoBackend must be empty. It is kept for the frozen benchmark
	// harness (bench/kernels.go reads it); no second value exists — the
	// engine's only cipher and MAC are internal/crypto over crypto/aes —
	// and Validate rejects anything else.
	CryptoBackend string
	// ECCCodec names the check-lane codec (see internal/ecc: "secded" and
	// "residue" for the inline placement, "macsecded" for MAC-in-ECC).
	// Codecs are NOT interchangeable — they change the stored format and
	// the detection/correction guarantees — so an explicit name
	// incompatible with Placement is a Validate error. Empty means the
	// placement's default (ecc.DefaultFor); nothing ambient selects a codec.
	ECCCodec string
}

// KeyMaterialLen is the required KeyMaterial length.
const KeyMaterialLen = 40

// Default returns the paper's Table 1 configuration with the given scheme
// and placement.
func Default(scheme ctr.Kind, placement MACPlacement) Config {
	return Config{
		RegionBytes:        512 << 20,
		Scheme:             scheme,
		Placement:          placement,
		MetadataCacheBytes: 32 << 10,
		MetadataCacheWays:  8,
		OnChipTreeBytes:    3 << 10,
		CorrectBits:        2,
		KeyMaterial:        DefaultKeyMaterial(),
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
	case !c.DisableEncryption && len(c.KeyMaterial) != KeyMaterialLen:
		return fmt.Errorf("core: key material must be %d bytes, got %d", KeyMaterialLen, len(c.KeyMaterial))
	case c.MetadataCacheBytes <= 0 || c.MetadataCacheWays <= 0:
		return fmt.Errorf("core: metadata cache geometry invalid")
	case c.OnChipTreeBytes < 64:
		return fmt.Errorf("core: on-chip tree budget below one node")
	case c.CorrectBits < 0 || c.CorrectBits > 2:
		return fmt.Errorf("core: correction budget %d out of range", c.CorrectBits)
	case c.CryptoBackend != "":
		return fmt.Errorf("core: CryptoBackend %q: no selectable crypto backend exists (crypto/aes is the only cipher path); leave the field empty", c.CryptoBackend)
	}
	if !c.DisableEncryption {
		if _, err := c.resolveCodec(); err != nil {
			return err
		}
	}
	return nil
}

// resolveCodec maps the configuration to its ECC codec. An explicit
// ECCCodec must exist and match the MAC placement (a MAC-carrying codec
// under MACInECC, a plain block codec under MACInline). An empty name is
// the placement's default.
func (c Config) resolveCodec() (ecc.Codec, error) {
	wantMAC := c.Placement == MACInECC
	name := c.ECCCodec
	if name == "" {
		name = ecc.DefaultFor(wantMAC)
	}
	cod, err := ecc.Lookup(name)
	if err != nil {
		return nil, err
	}
	if cod.CarriesMAC() != wantMAC {
		return nil, fmt.Errorf("core: ECC codec %q is incompatible with placement %s", cod.Name(), c.Placement)
	}
	return cod, nil
}

// CodecName returns the resolved ECC codec name for the configuration, or
// "" when encryption is disabled (no check lane exists). It is what
// persisted image headers record and campaign reports print.
func (c Config) CodecName() string {
	if c.DisableEncryption {
		return ""
	}
	cod, err := c.resolveCodec()
	if err != nil {
		return c.ECCCodec // unresolvable; Validate reports the real error
	}
	return cod.Name()
}

// DataBlocks returns the number of protected 64-byte blocks.
func (c Config) DataBlocks() uint64 { return c.RegionBytes / BlockBytes }

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
	// StageDataTree: the classic data-tree design's per-block tree check
	// failed.
	StageDataTree
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
	case StageDataTree:
		return "data-tree"
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

package ecc

import (
	"fmt"
	"sort"
	"sync"
)

// Pluggable ECC codec layer.
//
// The paper's two protection formats — ordinary SEC-DED(72,64) check bytes
// next to an inline MAC tag, and the §3 MAC-in-ECC layout that folds the MAC
// into the ECC lane itself — were historically two hard-wired code paths.
// This file puts them (and any future code, e.g. the residue check code in
// residue.go) behind one Codec interface with a registry: implementations
// register from init, the engine resolves a name from its Config, and
// everything downstream (seal, verify, scrub, persist, overhead accounting)
// speaks to the interface.
//
// Two codec families exist, split by where the MAC lives:
//
//   - BlockCodec (CarriesMAC() == false): a pure memory-error code. The MAC
//     tag is stored inline elsewhere (core.MACInline); the codec only
//     detects/corrects DRAM faults on the ciphertext. Implementations:
//     "secded" (8 check bytes, corrects 1 bit per 8-byte word, detects 2)
//     and "residue" (4 check bytes, detection only).
//
//   - MACCodec (CarriesMAC() == true): the check lane *is* the MAC storage
//     (core.MACInECC). The codec packs a 56-bit MAC plus its own protection
//     bits into one 8-byte lane and verifies/corrects data and lane
//     together. Implementation: "macsecded" (internal/macecc).
//
// A Codec is stateless and safe for concurrent use; a LaneVerifier is
// single-owner except for its Scrub methods (see LaneVerifier).

// DefaultBlockCodec is the inline-MAC placement's default codec.
const DefaultBlockCodec = "secded"

// DefaultMACCodec is the MAC-in-ECC placement's default codec.
const DefaultMACCodec = "macsecded"

// Codec is the surface every ECC codec shares.
type Codec interface {
	// Name is the registry key, what flags select, and what persisted
	// images record.
	Name() string
	// CheckBytes is the codec's stored check footprint per 64-byte block.
	// For a MACCodec this is the packed lane (8 bytes); for a BlockCodec
	// it is the dedicated check storage (8 for SEC-DED, 4 for residue).
	CheckBytes() int
	// CarriesMAC reports whether the codec packs the MAC into its check
	// lane (MACCodec) or protects ciphertext only (BlockCodec).
	CarriesMAC() bool
}

// BlockCodec is a pure memory-error code over one 64-byte block, used under
// the inline-MAC placement. Implementations must be stateless: Encode and
// Decode may be called concurrently from scrub/sweep workers.
type BlockCodec interface {
	Codec
	// EncodeInto writes the CheckBytes() check bytes for data (exactly
	// BlockSize bytes) into check (exactly CheckBytes() bytes).
	EncodeInto(check, data []byte) error
	// DecodeAndCorrect verifies data against check, repairing correctable
	// faults in both in place where the code supports correction.
	// Detection-only codes report any mismatch as uncorrectable.
	DecodeAndCorrect(data, check []byte) (BlockOutcome, error)
}

// MACKey is the MAC surface a MACCodec verifier needs: tag computation plus
// the polynomial-hash point for flip-and-check contribution tables. It is
// structurally identical to macecc.Key and satisfied by *crypto.MAC.
type MACKey interface {
	Tag(ciphertext []byte, addr, counter uint64) (uint64, error)
	HashPoint() uint64
}

// LaneOutcome reports one MACCodec verification.
type LaneOutcome struct {
	// OK is true when the block authenticated (possibly after repair);
	// false means tampering or an uncorrectable fault.
	OK bool
	// CorrectedDataBits / CorrectedMACBits count repairs applied to the
	// ciphertext and the packed lane.
	CorrectedDataBits int
	CorrectedMACBits  int
	// HardwareChecks is the flip-and-check cost in MAC evaluations.
	HardwareChecks int
}

// LaneVerifier verifies blocks against a MAC-carrying check lane.
//
// Concurrency contract: VerifyAndCorrect mutates internal scratch and is
// single-owner — parallel sweeps build one verifier per worker (see
// MACCodec.NewVerifier). ScrubData and ScrubLane are pure and must be safe
// for concurrent use.
type LaneVerifier interface {
	// VerifyAndCorrect authenticates ciphertext against the packed lane,
	// repairing correctable ciphertext faults in place, and returns the
	// (possibly repaired) lane for the caller to write back. The lane
	// travels by value so the hot read path stays allocation-free across
	// the interface boundary.
	VerifyAndCorrect(ciphertext []byte, lane, addr, counter uint64) (uint64, LaneOutcome, error)
	// ScrubData is the patrol scrubber's cheap screen over the ciphertext
	// (true = looks clean). Pure; concurrent-safe.
	ScrubData(ciphertext []byte, lane uint64) bool
	// ScrubLane is the scrubber's screen over the lane itself.
	// Pure; concurrent-safe.
	ScrubLane(lane uint64) bool
}

// MACCodec is a codec whose check lane carries the MAC (the paper's §3
// trick), used under the MAC-in-ECC placement.
type MACCodec interface {
	Codec
	// PackLane builds the stored 8-byte lane from a block's MAC tag and
	// its ciphertext.
	PackLane(tag uint64, ciphertext []byte) uint64
	// NewVerifier builds a verifier around key with the given
	// flip-and-check correction budget (0..2 flipped data/lane bits).
	NewVerifier(key MACKey, correctBits int) (LaneVerifier, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Codec{}
)

// Register adds a codec under its Name. Registering a duplicate name
// panics: codecs register from init and a collision is a programming error.
func Register(c Codec) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[c.Name()]; dup {
		panic("ecc: duplicate codec " + c.Name())
	}
	registry[c.Name()] = c
}

// Lookup resolves a codec name exactly. The empty name is an error here:
// the default depends on the MAC placement, so placement-aware resolution
// (empty name -> DefaultFor) lives with the Config that knows it.
func Lookup(name string) (Codec, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if c, ok := registry[name]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("ecc: unknown codec %q (registered: %v)", name, namesLocked())
}

// DefaultFor returns the default codec name for a placement: a MAC-carrying
// codec when the lane holds the MAC, a plain block codec otherwise.
func DefaultFor(carriesMAC bool) string {
	if carriesMAC {
		return DefaultMACCodec
	}
	return DefaultBlockCodec
}

// Names returns the registered codec names, sorted. Conformance suites
// iterate it so a future codec is covered the moment it registers.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// secdedCodec is the "secded" BlockCodec: one SEC-DED(72,64) check byte per
// 8-byte word, exactly the block.go helpers behind the interface.
type secdedCodec struct{}

func (secdedCodec) Name() string     { return "secded" }
func (secdedCodec) CheckBytes() int  { return WordsPerBlock }
func (secdedCodec) CarriesMAC() bool { return false }

func (secdedCodec) EncodeInto(check, data []byte) error {
	if len(check) != WordsPerBlock {
		return fmt.Errorf("ecc: secded check buffer must be %d bytes, got %d", WordsPerBlock, len(check))
	}
	out, err := EncodeBlock(data)
	if err != nil {
		return err
	}
	copy(check, out[:])
	return nil
}

func (secdedCodec) DecodeAndCorrect(data, check []byte) (BlockOutcome, error) {
	if len(check) != WordsPerBlock {
		return BlockOutcome{}, fmt.Errorf("ecc: secded check buffer must be %d bytes, got %d", WordsPerBlock, len(check))
	}
	return DecodeBlock(data, (*[WordsPerBlock]uint8)(check))
}

func init() {
	Register(secdedCodec{})
	Register(residueCodec{})
}

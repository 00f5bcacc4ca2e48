package ecc

import "fmt"

// Bench-only codec shim.
//
// The engine has no codec registry: the MAC placement is the codec. Under
// MAC-in-ECC it seals and verifies through internal/macecc directly
// (PackMeta, Verifier, Scrub); under the inline placement it stores
// EncodeBlock's SEC-DED(72,64) check bytes beside the tag and checks them
// with DecodeBlock. Persisted images record CodecName or macecc.CodecName.
//
// What follows exists only because the frozen benchmark harness
// (bench/kernels.go) times the MAC-in-ECC lane through it: Lookup(DefaultFor
// (true)), the MACCodec's PackLane and its verifier's VerifyAndCorrect. Its
// one implementation is internal/macecc's adapter, which fills the slot
// below at init. Nothing outside bench/, this file and internal/macecc/
// codec.go may name it (a CI step greps), and it is deleted together with
// the harness's use of it.

// macCodecName is the name the MAC-in-ECC lane's codec registers under:
// macecc.CodecName, which this package cannot import.
const macCodecName = "macsecded"

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

// LaneVerifier verifies blocks against a MAC-carrying check lane. It is
// single-owner: VerifyAndCorrect mutates internal scratch.
type LaneVerifier interface {
	// VerifyAndCorrect authenticates ciphertext against the packed lane,
	// repairing correctable ciphertext faults in place, and returns the
	// (possibly repaired) lane.
	VerifyAndCorrect(ciphertext []byte, lane, addr, counter uint64) (uint64, LaneOutcome, error)
}

// MACCodec is the MAC-in-ECC lane behind the shim.
type MACCodec interface {
	// Name is the codec's name, what persisted images record.
	Name() string
	// PackLane builds the stored 8-byte lane from a block's MAC tag and
	// its ciphertext.
	PackLane(tag uint64, ciphertext []byte) uint64
	// NewVerifier builds a verifier around key with the given
	// flip-and-check correction budget (0..2 flipped data/lane bits).
	NewVerifier(key MACKey, correctBits int) (LaneVerifier, error)
}

// macCodec is the shim's one registration slot.
var macCodec MACCodec

// Register fills the slot. internal/macecc calls it from init; a second
// registration panics, as it is a programming error.
func Register(c MACCodec) {
	if macCodec != nil {
		panic("ecc: duplicate codec " + c.Name())
	}
	macCodec = c
}

// Lookup resolves a codec name exactly: the registered MAC-in-ECC codec's
// name, or an error naming what is registered.
func Lookup(name string) (MACCodec, error) {
	if macCodec != nil && macCodec.Name() == name {
		return macCodec, nil
	}
	registered := "nothing"
	if macCodec != nil {
		registered = fmt.Sprintf("%q", macCodec.Name())
	}
	return nil, fmt.Errorf("ecc: unknown codec %q (registered: %s)", name, registered)
}

// DefaultFor returns a placement's codec name: the MAC-carrying lane's
// when the lane holds the MAC, SEC-DED's (CodecName) otherwise.
func DefaultFor(carriesMAC bool) string {
	if carriesMAC {
		return macCodecName
	}
	return CodecName
}

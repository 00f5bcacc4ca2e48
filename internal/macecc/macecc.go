// Package macecc implements the paper's §3 proposal: storing a 56-bit MAC
// plus a 7-bit Hamming code in the 8 ECC bytes an ECC DIMM reserves per
// 64-byte block, so the same bits provide authentication, error detection,
// and error correction.
//
// Layout of the 64 ECC bits (Figure 2):
//
//	bits  0..55  56-bit Carter-Wegman MAC over the ciphertext
//	bits 56..62  SEC-DED(63,56) Hamming check bits over the MAC
//	bit     63   even parity over the 512 ciphertext bits (scrub bit)
//
// Error handling responsibilities:
//
//   - MAC bits flip: the Hamming code corrects a single flip and detects a
//     double, without touching the integrity tree (§3.3 "Corrupted MACs").
//   - Data bits flip: the MAC check fails; brute-force flip-and-check
//     (§3.4) re-tests the MAC with each candidate correction. Any number
//     of data flips is *detected*; up to CorrectBits flips are corrected.
//   - The scrub bit lets patrol scrubbers detect odd-weight data errors
//     without recomputing MACs (§3.3 "Enabling Efficient Scrubbing").
//
// The brute-force search is algebraically accelerated: flipping ciphertext
// bit b of word w shifts the polynomial hash by a key-dependent constant
// contrib[w][b], so candidate corrections are table lookups rather than full
// MAC recomputations. The HardwareChecks cost reported to the timing model
// still reflects what a sequential flip-and-check engine would do, which is
// how §3.4 prices the scheme (one GF-multiply MAC check per cycle).
package macecc

import (
	"fmt"

	"authmem/internal/ecc"
	"authmem/internal/gf64"
	"authmem/internal/mac"
)

// BlockSize is the protected data granularity.
const BlockSize = 64

// blockBits is the number of data bits per block.
const blockBits = BlockSize * 8

// MaxSingleChecks is the worst-case flip-and-check count for single-bit
// correction (§3.4: 512).
const MaxSingleChecks = blockBits

// MaxDoubleChecks is the worst-case flip-and-check count for double-bit
// correction (§3.4: 512 choose 2 = 130,816).
const MaxDoubleChecks = blockBits * (blockBits - 1) / 2

// Meta is the packed 8-byte ECC-lane payload for one block.
type Meta uint64

// PackMeta assembles the ECC-lane bits from a MAC tag and the ciphertext
// (for the scrub parity bit).
func PackMeta(tag uint64, ciphertext []byte) Meta {
	tag &= mac.TagMask
	check := uint64(ecc.MAC63.Encode(tag)) // 7 bits
	scrub := uint64(ecc.ParityBit(ciphertext))
	return Meta(tag | check<<56 | scrub<<63)
}

// Tag returns the stored 56-bit MAC tag.
func (m Meta) Tag() uint64 { return uint64(m) & mac.TagMask }

// Check returns the stored 7 Hamming check bits.
func (m Meta) Check() uint16 { return uint16(uint64(m) >> 56 & 0x7F) }

// ScrubParity returns the stored ciphertext parity bit.
func (m Meta) ScrubParity() uint8 { return uint8(uint64(m) >> 63) }

// withTag returns a Meta with the MAC tag and its Hamming bits replaced.
func (m Meta) withTag(tag uint64) Meta {
	tag &= mac.TagMask
	check := uint64(ecc.MAC63.Encode(tag))
	return Meta(uint64(m)&(1<<63) | tag | check<<56)
}

// Flip returns the Meta with one of its 64 stored bits flipped; the fault
// injector uses it to model ECC-chip faults.
func (m Meta) Flip(bit int) Meta {
	return m ^ Meta(uint64(1)<<uint(bit&63))
}

// Status classifies the outcome of VerifyAndCorrect.
type Status int

const (
	// OK: the block verified, possibly after corrections.
	OK Status = iota
	// Uncorrectable: an error was detected but exceeds the correction
	// budget (or the MAC itself is doubly corrupted). Data cannot be
	// trusted; hardware would raise a machine-check.
	Uncorrectable
)

// String returns a readable status name.
func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Uncorrectable:
		return "uncorrectable"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Outcome reports what VerifyAndCorrect did.
type Outcome struct {
	Status Status
	// CorrectedDataBits is the number of ciphertext bits repaired.
	CorrectedDataBits int
	// CorrectedMACBits is the number of MAC/Hamming bits repaired.
	CorrectedMACBits int
	// HardwareChecks is the number of MAC evaluations a sequential
	// flip-and-check engine would have performed (the §3.4 cost model);
	// 1 for a clean pass.
	HardwareChecks int
}

// Key is the slice of the MAC surface the verifier needs: tag computation
// for the integrity check, and the secret hash point for the per-bit
// contribution tables. *crypto.MAC satisfies it, as does the test-only
// reference *mac.Key.
type Key interface {
	Tag(ciphertext []byte, addr, counter uint64) (uint64, error)
	HashPoint() uint64
}

// Verifier verifies MAC-in-ECC blocks and corrects faults.
type Verifier struct {
	key Key
	// CorrectBits bounds the flip-and-check search: 0 disables data
	// correction (detection only), 1 corrects single flips, 2 also
	// corrects double flips. The paper evaluates 2 as the practical
	// limit (§3.4).
	CorrectBits int

	// contrib[w][b] is the tag-space effect of flipping bit b of
	// ciphertext word w; precomputed from the hash key.
	contrib [BlockSize / 8][64]uint64
	// lookup maps a masked contribution back to its (word, bit) origin
	// for O(n) double-error search.
	lookup map[uint64]int
}

// NewVerifier builds a Verifier around a MAC key, precomputing the per-bit
// tag-contribution tables from the key's hash point.
func NewVerifier(key Key, correctBits int) (*Verifier, error) {
	if key == nil {
		return nil, fmt.Errorf("macecc: nil key")
	}
	if correctBits < 0 || correctBits > 2 {
		return nil, fmt.Errorf("macecc: correction budget %d out of range 0..2", correctBits)
	}
	v := &Verifier{key: key, CorrectBits: correctBits}
	// Word w (0-based) carries weight h^(8-w) in the Horner hash.
	nWords := BlockSize / 8
	v.lookup = make(map[uint64]int, blockBits)
	for w := 0; w < nWords; w++ {
		weight := gf64.Pow(key.HashPoint(), uint64(nWords-w))
		for b := 0; b < 64; b++ {
			c := gf64.Mul(uint64(1)<<uint(b), weight)
			v.contrib[w][b] = c
			// Only the low 56 bits are observable in the tag.
			v.lookup[c&mac.TagMask] = w*64 + b
		}
	}
	return v, nil
}

// VerifyAndCorrect authenticates ciphertext against its ECC-lane meta,
// repairing correctable faults in place (both ciphertext and *meta may be
// rewritten). addr and counter are the MAC binding inputs.
func (v *Verifier) VerifyAndCorrect(ciphertext []byte, meta *Meta, addr, counter uint64) (Outcome, error) {
	if len(ciphertext) != BlockSize {
		return Outcome{}, fmt.Errorf("macecc: ciphertext must be %d bytes", BlockSize)
	}
	var out Outcome

	// Step 1 (§3.3): repair the MAC itself with its Hamming code, so a
	// failed tag comparison can be blamed on the data.
	tag, _, res := ecc.MAC63.Decode((*meta).Tag(), (*meta).Check())
	switch res {
	case ecc.OK:
	case ecc.CorrectedData, ecc.CorrectedCheck:
		out.CorrectedMACBits = 1
		*meta = (*meta).withTag(tag)
	default:
		// Double error in the MAC bits: nothing to verify against.
		out.Status = Uncorrectable
		return out, nil
	}

	// Step 2: the standard integrity check.
	want, err := v.key.Tag(ciphertext, addr, counter)
	if err != nil {
		return Outcome{}, err
	}
	out.HardwareChecks = 1
	if want == tag {
		out.Status = OK
		return out, nil
	}

	// Step 3 (§3.4): brute-force flip-and-check. diff is the tag-space
	// discrepancy a candidate correction must explain.
	diff := (want ^ tag) & mac.TagMask

	if v.CorrectBits >= 1 {
		if pos, ok := v.lookup[diff]; ok {
			v.flipData(ciphertext, pos)
			*meta = PackMeta(tag, ciphertext) // refresh scrub bit
			out.CorrectedDataBits = 1
			out.Status = OK
			// A sequential engine would have tried bits 0..pos.
			out.HardwareChecks = pos + 1
			return out, nil
		}
		out.HardwareChecks = MaxSingleChecks
	}

	if v.CorrectBits >= 2 {
		if i, j, ok := v.findPair(diff); ok {
			v.flipData(ciphertext, i)
			v.flipData(ciphertext, j)
			*meta = PackMeta(tag, ciphertext)
			out.CorrectedDataBits = 2
			out.Status = OK
			out.HardwareChecks = MaxSingleChecks + pairRank(i, j)
			return out, nil
		}
		out.HardwareChecks = MaxSingleChecks + MaxDoubleChecks
	}

	out.Status = Uncorrectable
	return out, nil
}

// findPair searches for bit positions i < j whose combined contribution
// equals diff.
func (v *Verifier) findPair(diff uint64) (int, int, bool) {
	for i := 0; i < blockBits; i++ {
		ci := v.contrib[i/64][i%64] & mac.TagMask
		if j, ok := v.lookup[diff^ci]; ok && j > i {
			return i, j, true
		}
	}
	return 0, 0, false
}

// pairRank returns the 1-based position of pair (i, j), i < j, in the
// lexicographic enumeration a hardware engine would follow.
func pairRank(i, j int) int {
	// Pairs starting below i: sum_{k<i} (blockBits-1-k).
	before := i*(blockBits-1) - i*(i-1)/2
	return before + (j - i)
}

func (v *Verifier) flipData(ciphertext []byte, pos int) {
	// Bit b of word w is bit b%8 of byte w*8 + b/8 (little-endian words).
	w, b := pos/64, pos%64
	ciphertext[w*8+b/8] ^= 1 << uint(b%8)
}

// Scrub performs the cheap patrol-scrubber check: it recomputes the parity
// over the ciphertext and compares with the stored scrub bit. A mismatch
// means an odd number of data flips (or a scrub-bit flip); the scrubber
// then triggers a full VerifyAndCorrect.
func Scrub(ciphertext []byte, meta Meta) bool {
	return ecc.ParityBit(ciphertext) == meta.ScrubParity()
}

// ScrubMeta performs §3.3's second cheap check: "the hamming coded MACs can
// also be scrubbed as hamming codes contain a parity bit". The SEC-DED
// code's overall parity bit makes any odd-weight fault in the 63 MAC+check
// bits visible with one XOR tree, no MAC computation.
func ScrubMeta(meta Meta) bool {
	// The 63-bit codeword (56 tag + 7 check bits) has even parity by
	// construction: the 7th check bit is the overall parity.
	var b [8]byte
	v := uint64(meta) &^ (1 << 63) // exclude the data scrub bit
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return ecc.ParityBit(b[:]) == 0
}

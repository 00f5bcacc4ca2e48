// Package ecc implements Hamming single-error-correct, double-error-detect
// (SEC-DED) codes as used by commodity ECC DRAM, plus block-level helpers
// that mirror how a 72-bit-wide ECC DIMM lays out check bits.
//
// Two instances matter for the paper:
//
//   - SEC-DED(72,64): 8 check bits per 8-byte word. This is the standard
//     ECC-DRAM configuration and the baseline scheme the paper compares
//     against.
//   - SEC-DED(63,56): 7 check bits over a 56-bit MAC tag. The proposed
//     MAC-in-ECC layout protects the MAC itself with this code so that a
//     failing MAC check can be attributed to either data or MAC corruption.
//
// The codec is a classic extended Hamming code: check bits live at
// power-of-two positions of the codeword, an extra overall parity bit
// distinguishes single from double errors.
package ecc

import (
	"errors"
	"fmt"
	"math/bits"
)

// Result classifies the outcome of decoding a SEC-DED codeword.
type Result int

const (
	// OK means no error was detected.
	OK Result = iota
	// CorrectedData means a single-bit error in the data bits was corrected.
	CorrectedData
	// CorrectedCheck means a single-bit error in the check bits (including
	// the overall parity bit) was corrected; the data was intact.
	CorrectedCheck
	// DetectedDouble means a double-bit error was detected but cannot be
	// corrected.
	DetectedDouble
	// Uncorrectable means the syndrome is inconsistent with any single or
	// double error the code can attribute (e.g. >=3 flips aliasing onto an
	// unused position). The data must be considered corrupt.
	Uncorrectable
)

// String returns a human-readable name for the result.
func (r Result) String() string {
	switch r {
	case OK:
		return "ok"
	case CorrectedData:
		return "corrected-data"
	case CorrectedCheck:
		return "corrected-check"
	case DetectedDouble:
		return "detected-double"
	case Uncorrectable:
		return "uncorrectable"
	default:
		return fmt.Sprintf("Result(%d)", int(r))
	}
}

// IsCorrected reports whether decoding repaired the word (or found it clean).
func (r Result) IsCorrected() bool {
	return r == OK || r == CorrectedData || r == CorrectedCheck
}

// SECDED is an extended Hamming code over k <= 64 data bits.
//
// Codeword layout (conceptual): positions 1..m hold data and Hamming check
// bits, with check bit i at position 2^i; position 0 holds the overall
// parity bit computed over everything else. Data bits fill the
// non-power-of-two positions in increasing order.
type SECDED struct {
	k int // data bits
	r int // Hamming check bits (excluding overall parity)
	m int // highest used codeword position (1-based)

	dataPos []int // codeword position of data bit i

	// synTab[b][v] is the XOR of the codeword positions of the set bits of
	// byte b of the data word when that byte holds value v. The encode and
	// decode syndromes over the data bits then cost eight table lookups
	// instead of a walk over all k bits — this sits on the per-block seal
	// path (8 words per ECC block), so it is worth the 4KB per code.
	synTab [8][256]uint16
}

// New constructs a SEC-DED code for k data bits (1 <= k <= 64).
// The code uses r Hamming check bits plus one overall parity bit, where r is
// the smallest integer with 2^r - 1 - r >= k.
func New(k int) (*SECDED, error) {
	if k < 1 || k > 64 {
		return nil, fmt.Errorf("ecc: unsupported data width %d (want 1..64)", k)
	}
	r := 2
	for (1<<r)-1-r < k {
		r++
	}
	c := &SECDED{k: k, r: r}
	c.dataPos = make([]int, k)
	pos := 1
	for i := 0; i < k; {
		if pos&(pos-1) != 0 { // not a power of two -> data position
			c.dataPos[i] = pos
			i++
		}
		pos++
	}
	c.m = c.dataPos[k-1]
	// Ensure all r check positions fit below m (they do whenever the last
	// data bit sits above 2^(r-1); for shortened codes the highest check
	// position may exceed the last data position).
	if hp := 1 << (r - 1); hp > c.m {
		c.m = hp
	}
	for b := 0; b < 8; b++ {
		base := b * 8
		for v := 1; v < 256; v++ {
			var s uint16
			for j := 0; j < 8 && base+j < k; j++ {
				if v>>uint(j)&1 == 1 {
					s ^= uint16(c.dataPos[base+j])
				}
			}
			c.synTab[b][v] = s
		}
	}
	return c, nil
}

// MustNew is New that panics on error; for package-level code instances with
// compile-time-known widths.
func MustNew(k int) *SECDED {
	c, err := New(k)
	if err != nil {
		panic(err)
	}
	return c
}

// K returns the number of data bits.
func (c *SECDED) K() int { return c.k }

// CheckBits returns the total number of check bits, including the overall
// parity bit.
func (c *SECDED) CheckBits() int { return c.r + 1 }

// Encode computes the check bits for data (low k bits used). The returned
// value packs the r Hamming check bits in bits 0..r-1 and the overall parity
// bit in bit r.
func (c *SECDED) Encode(data uint64) uint16 {
	data &= c.dataMask()
	// Hamming check bit j makes the parity over all positions with bit j
	// set even; since check positions are powers of two, check bit j is
	// simply bit j of the syndrome over data positions.
	check := c.dataSyn(data) & (uint16(1)<<uint(c.r) - 1)
	// Overall parity over data bits and Hamming check bits.
	p := bits.OnesCount64(data) + bits.OnesCount16(check)
	check |= uint16(p&1) << uint(c.r)
	return check
}

// dataSyn returns the XOR of the codeword positions of the set data bits.
func (c *SECDED) dataSyn(data uint64) uint16 {
	return c.synTab[0][byte(data)] ^
		c.synTab[1][byte(data>>8)] ^
		c.synTab[2][byte(data>>16)] ^
		c.synTab[3][byte(data>>24)] ^
		c.synTab[4][byte(data>>32)] ^
		c.synTab[5][byte(data>>40)] ^
		c.synTab[6][byte(data>>48)] ^
		c.synTab[7][byte(data>>56)]
}

// Decode verifies (data, check) and corrects a single-bit error if present.
// It returns the corrected data and check bits along with the decode Result.
// On DetectedDouble or Uncorrectable the returned data is the input data
// unchanged.
func (c *SECDED) Decode(data uint64, check uint16) (uint64, uint16, Result) {
	data &= c.dataMask()
	check &= c.checkMask()

	syn := int(c.dataSyn(data) ^ check&(uint16(1)<<uint(c.r)-1))
	parity := (bits.OnesCount64(data) + bits.OnesCount16(check)) & 1

	switch {
	case syn == 0 && parity == 0:
		return data, check, OK
	case syn == 0 && parity == 1:
		// Only the overall parity bit is wrong.
		return data, check ^ 1<<uint(c.r), CorrectedCheck
	case parity == 0:
		// Nonzero syndrome with even overall parity: double error.
		return data, check, DetectedDouble
	}
	// Single error at codeword position syn.
	if syn&(syn-1) == 0 {
		// Power-of-two position: a Hamming check bit flipped.
		j := bits.TrailingZeros(uint(syn))
		if j >= c.r {
			return data, check, Uncorrectable
		}
		return data, check ^ 1<<uint(j), CorrectedCheck
	}
	// Data position: find which data bit lives there.
	i := c.dataIndexAt(syn)
	if i < 0 {
		// Syndrome points at an unused (shortened-away) position:
		// cannot be a single error; report uncorrectable.
		return data, check, Uncorrectable
	}
	return data ^ 1<<uint(i), check, CorrectedData
}

// dataIndexAt returns the data-bit index stored at codeword position pos,
// or -1 if pos is not a data position of this (possibly shortened) code.
func (c *SECDED) dataIndexAt(pos int) int {
	if pos < 3 || pos > c.m || pos&(pos-1) == 0 {
		return -1
	}
	// pos - 1 - (number of power-of-two positions <= pos) gives the data
	// index, because data bits fill non-power positions in order.
	powers := bits.Len(uint(pos)) // powers of two in [1, pos]: 1,2,4,... <= pos
	i := pos - 1 - powers
	if i < 0 || i >= c.k || c.dataPos[i] != pos {
		return -1
	}
	return i
}

func (c *SECDED) dataMask() uint64 {
	if c.k == 64 {
		return ^uint64(0)
	}
	return (1 << uint(c.k)) - 1
}

func (c *SECDED) checkMask() uint16 {
	return (1 << uint(c.r+1)) - 1
}

// Word72 is the standard ECC-DRAM code: SEC-DED(72,64), 8 check bits per
// 8-byte word.
var Word72 = MustNew(64)

// TagBits is the width of every MAC tag the repository computes and stores:
// 56 bits, so that a tag, its 7 Hamming bits and a scrub parity bit fill a
// block's 8-byte ECC lane (§3), as SGX's tags do. It lives with the codes
// because the lane is what fixes it; the MACs that truncate to it import
// only this constant.
const TagBits = 56

// TagMask masks a uint64 down to a TagBits-wide tag.
const TagMask = (uint64(1) << TagBits) - 1

// MAC63 is the code the paper stores over 56-bit MAC tags: SEC-DED(63,56),
// 7 check bits.
var MAC63 = MustNew(TagBits)

// ErrBlockSize is returned by the block helpers when the data slice is not
// exactly 64 bytes.
var ErrBlockSize = errors.New("ecc: data block must be 64 bytes")

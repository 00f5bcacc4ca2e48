package ecc

import (
	"encoding/binary"
	"math/bits"
)

// BlockSize is the protected granularity: one cache line.
const BlockSize = 64

// WordSize is the ECC word granularity of a 72-bit DIMM: 8 data bytes carry
// 8 check bits.
const WordSize = 8

// WordsPerBlock is the number of ECC words in a 64-byte block, and so the
// number of check bytes EncodeBlock stores per block.
const WordsPerBlock = BlockSize / WordSize

// CodecName names the EncodeBlock/DecodeBlock check-byte format in persisted
// images and error messages: the inline-MAC placement's codec.
const CodecName = "secded"

// EncodeWord computes the 8 SEC-DED(72,64) check bits for one 8-byte word.
func EncodeWord(w uint64) uint8 {
	return uint8(Word72.Encode(w))
}

// DecodeWord verifies and, if possible, corrects one 8-byte word against its
// check byte. It returns the corrected word, corrected check byte, and the
// decode result.
func DecodeWord(w uint64, check uint8) (uint64, uint8, Result) {
	d, c, res := Word72.Decode(w, uint16(check))
	return d, uint8(c), res
}

// EncodeBlock computes the 8 check bytes a standard ECC DIMM stores for a
// 64-byte block: one SEC-DED(72,64) check byte per 8-byte word. data must be
// exactly 64 bytes.
func EncodeBlock(data []byte) ([WordsPerBlock]uint8, error) {
	var out [WordsPerBlock]uint8
	if len(data) != BlockSize {
		return out, ErrBlockSize
	}
	for i := 0; i < WordsPerBlock; i++ {
		w := binary.LittleEndian.Uint64(data[i*WordSize:])
		out[i] = EncodeWord(w)
	}
	return out, nil
}

// BlockOutcome summarizes decoding a full 64-byte block word-by-word.
type BlockOutcome struct {
	// CorrectedBits counts single-bit corrections applied (data or check).
	CorrectedBits int
	// DetectedWords counts words with detected-but-uncorrectable errors
	// (double errors or worse).
	DetectedWords int
	// WorstResult is the most severe per-word result seen.
	WorstResult Result
}

// Clean reports whether the block decoded without any uncorrectable error.
func (o BlockOutcome) Clean() bool {
	return o.DetectedWords == 0
}

// DecodeBlock verifies a 64-byte block against its 8 check bytes, correcting
// single-bit errors per word in place. data must be exactly 64 bytes and is
// modified in place when corrections apply; check bytes are likewise
// corrected in place.
//
// Note the fundamental SEC-DED limitation the paper's Figure 3 exercises:
// each 8-byte word corrects at most one flip and *detects* at most two;
// three or more flips within one word may silently miscorrect. DecodeBlock
// reports what the code believes happened, exactly as hardware would.
func DecodeBlock(data []byte, check *[WordsPerBlock]uint8) (BlockOutcome, error) {
	var out BlockOutcome
	if len(data) != BlockSize {
		return out, ErrBlockSize
	}
	for i := 0; i < WordsPerBlock; i++ {
		w := binary.LittleEndian.Uint64(data[i*WordSize:])
		cw, cc, res := DecodeWord(w, check[i])
		switch res {
		case CorrectedData:
			binary.LittleEndian.PutUint64(data[i*WordSize:], cw)
			out.CorrectedBits++
		case CorrectedCheck:
			check[i] = cc
			out.CorrectedBits++
		case DetectedDouble, Uncorrectable:
			out.DetectedWords++
		}
		if res > out.WorstResult {
			out.WorstResult = res
		}
	}
	return out, nil
}

// ParityBit returns the even parity over an arbitrary byte slice. The
// MAC-in-ECC layout stores one such bit over the 512 ciphertext bits so that
// DRAM scrubbers can scan for single-bit errors without recomputing MACs.
func ParityBit(data []byte) uint8 {
	var x uint64
	for ; len(data) >= 8; data = data[8:] {
		x ^= binary.LittleEndian.Uint64(data)
	}
	for _, b := range data {
		x ^= uint64(b)
	}
	return uint8(bits.OnesCount64(x) & 1)
}

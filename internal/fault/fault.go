// Package fault implements the bit-flip fault models behind Figure 3: it
// injects controlled fault classes into protected blocks and classifies how
// standard SEC-DED ECC and the proposed MAC-in-ECC scheme respond.
//
// Figure 3's point is that neither scheme dominates: SEC-DED corrects one
// flip per 8-byte word (so many spread-out flips are fine) but only
// *detects* two flips in one word and can be defeated by three; MAC-based
// correction is bounded by the flip-and-check budget over the whole block
// (two flips anywhere, in any single word or not) but *detects* arbitrary
// corruption.
package fault

import (
	"fmt"
	"math/rand"

	"authmem/internal/crypto"
	"authmem/internal/ecc"
	"authmem/internal/macecc"
)

// Class enumerates the fault patterns of Figure 3.
type Class int

const (
	// SingleBit flips one random data bit.
	SingleBit Class = iota
	// DoubleBitSameWord flips two bits within one 8-byte word.
	DoubleBitSameWord
	// DoubleBitSpread flips two bits in different 8-byte words.
	DoubleBitSpread
	// MultiBitSpread flips one bit in each of four different words.
	MultiBitSpread
	// TripleBitSameWord flips three bits within one word — beyond
	// SEC-DED's guarantee (may silently miscorrect).
	TripleBitSameWord
	// Burst flips eight consecutive bits in one word (a chip-level
	// failure pattern).
	Burst
	// TwoPerWordAll flips two bits in every one of the eight words —
	// §3.3's "up to 16-bit errors" detection bound for standard ECC.
	TwoPerWordAll
	// CheckBitSingle flips one bit of the check storage (ECC byte or
	// MAC/Hamming bits).
	CheckBitSingle
	// CheckBitDouble flips two bits of the check storage.
	CheckBitDouble
)

// Classes lists all fault classes in Figure 3 order.
func Classes() []Class {
	return []Class{SingleBit, DoubleBitSameWord, DoubleBitSpread,
		MultiBitSpread, TripleBitSameWord, Burst, TwoPerWordAll,
		CheckBitSingle, CheckBitDouble}
}

// String names the class.
func (c Class) String() string {
	switch c {
	case SingleBit:
		return "1 bit"
	case DoubleBitSameWord:
		return "2 bits, same word"
	case DoubleBitSpread:
		return "2 bits, 2 words"
	case MultiBitSpread:
		return "4 bits, 4 words"
	case TripleBitSameWord:
		return "3 bits, same word"
	case Burst:
		return "8-bit burst, 1 word"
	case TwoPerWordAll:
		return "2 bits x 8 words"
	case CheckBitSingle:
		return "1 check bit"
	case CheckBitDouble:
		return "2 check bits"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// dataBits returns the data-bit positions this class flips, and how many
// check bits.
func (c Class) plan(rng *rand.Rand) (dataBits []int, checkBits int) {
	word := rng.Intn(8)
	switch c {
	case SingleBit:
		return []int{rng.Intn(512)}, 0
	case DoubleBitSameWord:
		a := rng.Intn(64)
		b := rng.Intn(64)
		for b == a {
			b = rng.Intn(64)
		}
		return []int{word*64 + a, word*64 + b}, 0
	case DoubleBitSpread:
		w2 := rng.Intn(8)
		for w2 == word {
			w2 = rng.Intn(8)
		}
		return []int{word*64 + rng.Intn(64), w2*64 + rng.Intn(64)}, 0
	case MultiBitSpread:
		words := rng.Perm(8)[:4]
		var bits []int
		for _, w := range words {
			bits = append(bits, w*64+rng.Intn(64))
		}
		return bits, 0
	case TripleBitSameWord:
		perm := rng.Perm(64)[:3]
		return []int{word*64 + perm[0], word*64 + perm[1], word*64 + perm[2]}, 0
	case Burst:
		start := rng.Intn(57) // keep all 8 bits within one word
		var bits []int
		for i := 0; i < 8; i++ {
			bits = append(bits, word*64+start+i)
		}
		return bits, 0
	case TwoPerWordAll:
		var bits []int
		for w := 0; w < 8; w++ {
			perm := rng.Perm(64)[:2]
			bits = append(bits, w*64+perm[0], w*64+perm[1])
		}
		return bits, 0
	case CheckBitSingle:
		return nil, 1
	case CheckBitDouble:
		return nil, 2
	}
	return nil, 0
}

// Outcome classifies one trial.
type Outcome int

const (
	// Corrected: the scheme repaired the block exactly.
	Corrected Outcome = iota
	// Detected: the scheme flagged the block uncorrectable (data
	// refused, no silent damage).
	Detected
	// Miscorrected: the scheme accepted or "repaired" the block but the
	// data is wrong — silent corruption, the worst outcome.
	Miscorrected
)

// Result aggregates trials of one (scheme, class) cell.
type Result struct {
	Class        Class
	Trials       int
	Corrected    int
	Detected     int
	Miscorrected int
}

// CorrectedPct is the fraction of trials fully repaired.
func (r Result) CorrectedPct() float64 { return 100 * float64(r.Corrected) / float64(r.Trials) }

// DetectedPct is the fraction refused without correction.
func (r Result) DetectedPct() float64 { return 100 * float64(r.Detected) / float64(r.Trials) }

// MiscorrectedPct is the fraction of silent corruptions.
func (r Result) MiscorrectedPct() float64 {
	return 100 * float64(r.Miscorrected) / float64(r.Trials)
}

// InjectSECDED runs trials of a fault class against standard SEC-DED(72,64)
// per-word ECC, the baseline DIMM behaviour.
func InjectSECDED(class Class, trials int, seed int64) Result {
	rng := rand.New(rand.NewSource(seed))
	res := Result{Class: class, Trials: trials}
	data := make([]byte, ecc.BlockSize)
	for t := 0; t < trials; t++ {
		rng.Read(data)
		orig := append([]byte(nil), data...)
		check, err := ecc.EncodeBlock(data)
		if err != nil {
			panic(err)
		}
		bits, checkFlips := class.plan(rng)
		for _, b := range bits {
			data[b/8] ^= 1 << uint(b%8)
		}
		// Flip distinct bits within one word's check byte, mirroring
		// the data-side classes.
		for _, b := range rng.Perm(8)[:checkFlips] {
			check[0] ^= 1 << uint(b)
		}
		out, err := ecc.DecodeBlock(data, &check)
		if err != nil {
			panic(err)
		}
		switch {
		case !out.Clean():
			res.Detected++
		case equal(data, orig):
			res.Corrected++
		default:
			res.Miscorrected++
		}
		copy(data, orig)
	}
	return res
}

// InjectResidue runs trials of a fault class against the detection-only
// residue check code (internal/ecc "residue" codec: one 32-bit residue mod
// 2^32-1 over the block, 4 check bytes). Nothing is ever corrected; the
// interesting rows are the spread fault classes, where opposite-polarity
// flips in one bit column (or a 0x00000000 <-> 0xFFFFFFFF word) alias to
// the same residue and report as Miscorrected — the blind spot the codec's
// documentation (and the engine's end-to-end MAC) accounts for.
func InjectResidue(class Class, trials int, seed int64) Result {
	cod, err := ecc.Lookup("residue")
	if err != nil {
		panic(err)
	}
	bcod := cod.(ecc.BlockCodec)
	rng := rand.New(rand.NewSource(seed))
	res := Result{Class: class, Trials: trials}
	data := make([]byte, ecc.BlockSize)
	check := make([]byte, bcod.CheckBytes())
	for t := 0; t < trials; t++ {
		rng.Read(data)
		orig := append([]byte(nil), data...)
		if err := bcod.EncodeInto(check, data); err != nil {
			panic(err)
		}
		bits, checkFlips := class.plan(rng)
		for _, b := range bits {
			data[b/8] ^= 1 << uint(b%8)
		}
		// Flip distinct bits across the 32-bit check word, mirroring the
		// data-side classes.
		for _, b := range rng.Perm(bcod.CheckBytes() * 8)[:checkFlips] {
			check[b/8] ^= 1 << uint(b%8)
		}
		out, err := bcod.DecodeAndCorrect(data, check)
		if err != nil {
			panic(err)
		}
		switch {
		case !out.Clean():
			res.Detected++
		case equal(data, orig):
			res.Corrected++ // only possible when nothing actually flipped
		default:
			res.Miscorrected++
		}
		copy(data, orig)
	}
	return res
}

// InjectMACECC runs trials of a fault class against the MAC-in-ECC layout
// with the given flip-and-check budget.
func InjectMACECC(class Class, trials int, seed int64, correctBits int) (Result, error) {
	material := make([]byte, 24)
	for i := range material {
		material[i] = byte(i*29 + 7)
	}
	key, err := crypto.NewMAC(material)
	if err != nil {
		return Result{}, err
	}
	ver, err := macecc.NewVerifier(key, correctBits)
	if err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	res := Result{Class: class, Trials: trials}
	ct := make([]byte, macecc.BlockSize)
	for t := 0; t < trials; t++ {
		rng.Read(ct)
		orig := append([]byte(nil), ct...)
		addr, counter := uint64(t)*64, uint64(t)
		tag, err := key.Tag(ct, addr, counter)
		if err != nil {
			return res, err
		}
		meta := macecc.PackMeta(tag, ct)

		bits, checkFlips := class.plan(rng)
		for _, b := range bits {
			ct[b/8] ^= 1 << uint(b%8)
		}
		// Flip distinct bits within the 63 MAC+Hamming bits (bit 63 is
		// the scrub parity, outside the protected field).
		for _, b := range rng.Perm(63)[:checkFlips] {
			meta = meta.Flip(b)
		}

		out, err := ver.VerifyAndCorrect(ct, &meta, addr, counter)
		if err != nil {
			return res, err
		}
		switch {
		case out.Status != macecc.OK:
			res.Detected++
		case equal(ct, orig):
			res.Corrected++
		default:
			res.Miscorrected++
		}
		copy(ct, orig)
	}
	return res, nil
}

func equal(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

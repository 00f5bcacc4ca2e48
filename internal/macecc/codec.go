package macecc

import "authmem/internal/ecc"

// codec fills the ecc package's bench-only shim slot (see internal/ecc/
// codec.go) with this package's Verifier. The engine does not use it: it
// calls PackMeta, Verifier and Scrub directly.
type codec struct{}

func (codec) Name() string { return CodecName }

func (codec) PackLane(tag uint64, ciphertext []byte) uint64 {
	return uint64(PackMeta(tag, ciphertext))
}

func (codec) NewVerifier(key ecc.MACKey, correctBits int) (ecc.LaneVerifier, error) {
	v, err := NewVerifier(key, correctBits)
	if err != nil {
		return nil, err
	}
	return laneVerifier{v}, nil
}

// laneVerifier adapts *Verifier to ecc.LaneVerifier: the lane travels as a
// plain uint64 across the interface and is a Meta inside.
type laneVerifier struct{ v *Verifier }

func (l laneVerifier) VerifyAndCorrect(ciphertext []byte, lane, addr, counter uint64) (uint64, ecc.LaneOutcome, error) {
	m := Meta(lane)
	out, err := l.v.VerifyAndCorrect(ciphertext, &m, addr, counter)
	return uint64(m), ecc.LaneOutcome{
		OK:                out.Status == OK,
		CorrectedDataBits: out.CorrectedDataBits,
		CorrectedMACBits:  out.CorrectedMACBits,
		HardwareChecks:    out.HardwareChecks,
	}, err
}

func init() {
	ecc.Register(codec{})
}

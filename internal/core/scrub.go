package core

import (
	"fmt"
	"sync/atomic"
)

// ScrubReport summarizes one patrol-scrub pass (§3.3).
type ScrubReport struct {
	// BlocksScanned is the number of resident blocks checked.
	BlocksScanned int
	// ParityFlagged is how many failed the 1-bit parity scan.
	ParityFlagged int
	// Corrected is how many were repaired by the follow-up
	// flip-and-check.
	Corrected int
	// Uncorrectable is how many could not be repaired.
	Uncorrectable int
}

// Scrub runs a patrol-scrubber pass over all resident blocks (MAC-in-ECC
// placement): the cheap parity bit screens each block; only parity
// mismatches pay for a full MAC verification and correction. Even-weight
// faults are invisible to the parity screen — by design; the next demand
// read still catches them.
func (e *Engine) Scrub() (ScrubReport, error) {
	if e.cfg.Placement != MACInECC {
		return ScrubReport{}, fmt.Errorf("core: scrubbing requires MACInECC")
	}
	// The correction path decodes counters from stored images; flush so
	// dirty leaves are written back before they are consulted.
	if err := e.Flush(); err != nil {
		return ScrubReport{}, err
	}
	atomic.AddUint64(&e.stats.ScrubPasses, 1)
	var r ScrubReport
	var flagged []uint64
	e.store.forEach(func(blk uint64, ct []byte, meta *uint64, _ []byte) {
		r.BlocksScanned++
		if e.ver.ScrubData(ct, *meta) && e.ver.ScrubLane(*meta) {
			return
		}
		flagged = append(flagged, blk)
	})
	err := e.correctFlagged(flagged, &r)
	return r, err
}

// correctFlagged runs the full flip-and-check correction on each
// parity-flagged block, writing repaired bits back into the arena.
func (e *Engine) correctFlagged(flagged []uint64, r *ScrubReport) error {
	for _, blk := range flagged {
		r.ParityFlagged++
		atomic.AddUint64(&e.stats.ScrubFlagged, 1)
		midx := e.scheme.MetadataBlock(blk)
		counter, err := e.decodeCounter(e.images.Load(midx), blk)
		if err != nil {
			r.Uncorrectable++
			continue
		}
		ct := e.store.Ciphertext(blk)
		lane, out, err := e.ver.VerifyAndCorrect(ct, e.store.Meta(blk), blk*BlockBytes, counter)
		if err != nil {
			return err
		}
		if out.OK {
			e.store.SetMeta(blk, lane)
			if out.CorrectedDataBits > 0 || out.CorrectedMACBits > 0 {
				r.Corrected++
			}
		} else {
			r.Uncorrectable++
		}
	}
	return nil
}

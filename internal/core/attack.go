package core

import (
	"fmt"
	"sync/atomic"

	"authmem/internal/tree"
)

// This file is the adversary's (and the fault injector's) interface to the
// engine: every byte an attacker with physical DRAM access could touch is
// reachable here, and nothing inside the trust boundary is.

// TamperCiphertext flips one bit of a stored ciphertext block. It models
// both a bus/cold-boot attack and a DRAM fault, which are indistinguishable
// to the controller.
func (e *Engine) TamperCiphertext(addr uint64, bit int) error {
	blk, err := e.attackBlock(addr)
	if err != nil {
		return err
	}
	if bit < 0 || bit >= BlockBytes*8 {
		return fmt.Errorf("core: bit %d out of range", bit)
	}
	ct := e.store.Ciphertext(blk)
	if ct == nil {
		return fmt.Errorf("core: block %#x not resident", addr)
	}
	// The fault lands in DRAM; drop any trusted on-chip copy so reads take
	// the detection path a cold cache would (see TamperCounterBlock).
	e.bc.evict(blk)
	ct[bit/8] ^= 1 << uint(bit%8)
	return nil
}

// TamperECCLane flips one of the 64 ECC-lane bits of a block (MAC-in-ECC
// placement only).
func (e *Engine) TamperECCLane(addr uint64, bit int) error {
	blk, err := e.attackBlock(addr)
	if err != nil {
		return err
	}
	if e.cfg.Placement != MACInECC {
		return fmt.Errorf("core: ECC lane only exists under MACInECC")
	}
	if bit < 0 || bit >= 64 {
		return fmt.Errorf("core: bit %d out of range", bit)
	}
	if !e.store.Present(blk) {
		return fmt.Errorf("core: block %#x not resident", addr)
	}
	e.bc.evict(blk)
	e.store.SetMeta(blk, e.store.Meta(blk)^1<<uint(bit))
	return nil
}

// TamperCheckBit flips one bit of a block's stored check bytes (inline
// placement only — the codec's dedicated check storage next to the inline
// tag). The attackable bit space is InlineCheckBits wide: 64 bits for
// SEC-DED(72,64), 32 for the residue code.
func (e *Engine) TamperCheckBit(addr uint64, bit int) error {
	blk, err := e.attackBlock(addr)
	if err != nil {
		return err
	}
	if e.cfg.Placement != MACInline {
		return fmt.Errorf("core: check bytes only exist under MACInline")
	}
	if bit < 0 || bit >= e.InlineCheckBits() {
		return fmt.Errorf("core: bit %d out of range", bit)
	}
	if !e.store.Present(blk) {
		return fmt.Errorf("core: block %#x not resident", addr)
	}
	e.bc.evict(blk)
	e.store.Check(blk)[bit/8] ^= 1 << uint(bit%8)
	return nil
}

// TamperInlineTag flips one bit of a block's stored MAC tag (baseline
// placement only).
func (e *Engine) TamperInlineTag(addr uint64, bit int) error {
	blk, err := e.attackBlock(addr)
	if err != nil {
		return err
	}
	if e.cfg.Placement != MACInline {
		return fmt.Errorf("core: inline tags only exist under MACInline")
	}
	if bit < 0 || bit >= 64 {
		return fmt.Errorf("core: bit %d out of range", bit)
	}
	if !e.store.Present(blk) {
		return fmt.Errorf("core: block %#x not resident", addr)
	}
	e.bc.evict(blk)
	e.store.SetMeta(blk, e.store.Meta(blk)^1<<uint(bit))
	return nil
}

// TamperCounterBlock flips one bit of a stored counter-block image — the
// attack Bonsai Merkle trees exist to catch.
func (e *Engine) TamperCounterBlock(midx uint64, bit int) error {
	if midx >= e.tr.Leaves() {
		return fmt.Errorf("core: metadata block %d out of range", midx)
	}
	if bit < 0 || bit >= BlockBytes*8 {
		return fmt.Errorf("core: bit %d out of range", bit)
	}
	// The fault lands in DRAM; model the line as not (or no longer)
	// resident in the counter cache so the detection path is exercised —
	// a warm cache would mask DRAM faults until eviction by design.
	e.cc.evict(midx)
	e.bc.flush() // the image covers a whole group of data blocks
	img := e.images.Store(midx)
	img[bit/8] ^= 1 << uint(bit%8)
	return nil
}

// TamperTreeNode flips one bit of an off-chip tree node.
func (e *Engine) TamperTreeNode(id tree.NodeID, bit int) error {
	// A tree node covers many counter blocks; a cached line would bypass
	// the corrupted walk entirely. Flush so reads take the detection path.
	e.cc.flush()
	e.bc.flush()
	return e.tr.CorruptNode(id, bit)
}

// BlockSnapshot captures everything an attacker can record about one block
// for a later replay: ciphertext, MAC storage, and its counter-block image.
type BlockSnapshot struct {
	addr       uint64
	hasData    bool
	ciphertext [BlockBytes]byte
	meta       uint64   // ECC-lane image or inline tag
	dataCheck  [8]uint8 // inline codec check bytes; first CheckBytes used
	counterImg [BlockBytes]byte
}

// Snapshot records the DRAM-visible state of a block.
func (e *Engine) Snapshot(addr uint64) (BlockSnapshot, error) {
	var s BlockSnapshot
	blk, err := e.attackBlock(addr)
	if err != nil {
		return s, err
	}
	s.addr = addr
	if ct := e.store.Ciphertext(blk); ct != nil {
		s.hasData = true
		copy(s.ciphertext[:], ct)
		s.meta = e.store.Meta(blk)
		if e.cfg.Placement == MACInline {
			copy(s.dataCheck[:], e.store.Check(blk))
		}
	}
	copy(s.counterImg[:], e.images.Load(e.scheme.MetadataBlock(blk)))
	return s, nil
}

// Replay restores a previous snapshot into DRAM — data, MAC bits, and the
// counter block together, the §2.1 replay attack. The tree (whose top level
// the attacker cannot reach) is left as-is, so a subsequent Read must fail.
func (e *Engine) Replay(s BlockSnapshot) error {
	return e.replayAt(s, s.addr)
}

// Splice plants a snapshot's data and MAC bits at a *different* address —
// the block-relocation attack. The counter block is not moved (it covers
// the original address range); the address-bound MAC is what must catch
// this.
func (e *Engine) Splice(s BlockSnapshot, addr uint64) error {
	blk, err := e.attackBlock(addr)
	if err != nil {
		return err
	}
	if !s.hasData {
		return fmt.Errorf("core: snapshot holds no data to splice")
	}
	e.plantSnapshot(blk, &s)
	return nil
}

func (e *Engine) replayAt(s BlockSnapshot, addr uint64) error {
	blk, err := e.attackBlock(addr)
	if err != nil {
		return err
	}
	if s.hasData {
		e.plantSnapshot(blk, &s)
	} else {
		// A fresh-block snapshot replays only the counter image; the read
		// that follows must still take the detection path.
		e.bc.evict(blk)
	}
	midx := e.scheme.MetadataBlock(blk)
	e.cc.evict(midx) // replayed line is a DRAM fault; see TamperCounterBlock
	copy(e.images.Store(midx), s.counterImg[:])
	return nil
}

// plantSnapshot writes a snapshot's data and MAC bits into blk's DRAM.
func (e *Engine) plantSnapshot(blk uint64, s *BlockSnapshot) {
	e.bc.evict(blk) // the replayed bits are a DRAM-level attack
	copy(e.store.Materialize(blk), s.ciphertext[:])
	e.store.SetMeta(blk, s.meta)
	if e.cfg.Placement == MACInline {
		copy(e.store.Check(blk), s.dataCheck[:])
	}
}

func (e *Engine) attackBlock(addr uint64) (uint64, error) {
	if err := e.checkAddr(addr); err != nil {
		return 0, err
	}
	return addr / BlockBytes, nil
}

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
	if err := e.checkScrubbable(); err != nil {
		return ScrubReport{}, err
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

func (e *Engine) checkScrubbable() error {
	if e.cfg.Placement != MACInECC {
		return fmt.Errorf("core: scrubbing requires MACInECC")
	}
	return nil
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

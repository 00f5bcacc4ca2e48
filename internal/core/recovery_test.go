package core

import (
	"bytes"
	"errors"
	"testing"

	"authmem/internal/ctr"
	"authmem/internal/tree"
)

// TestRecoverMetadataRepair: a counter-block fault is repairable because
// the scheme state machine is on-chip. ReadRecover must rebuild the image
// and the tree and return correct plaintext with no retries.
func TestRecoverMetadataRepair(t *testing.T) {
	for _, cfg := range allDesignPoints() {
		t.Run(cfg.Scheme.String()+"/"+cfg.Placement.String(), func(t *testing.T) {
			e := newEngine(t, cfg)
			pt := block(42)
			if err := e.Write(0, pt); err != nil {
				t.Fatal(err)
			}
			midx := e.MetadataIndex(0)
			if err := flipElem(e.off, PlaneCounter, midx, 13); err != nil {
				t.Fatal(err)
			}
			// Plain Read must fail at the counter stage.
			var ie *IntegrityError
			if _, err := e.Read(0, make([]byte, BlockBytes)); !errors.As(err, &ie) || ie.Stage != StageCounter {
				t.Fatalf("tampered counter block: got %v, want counter-stage IntegrityError", err)
			}
			dst := make([]byte, BlockBytes)
			ri, err := e.ReadRecover(0, dst)
			if err != nil {
				t.Fatalf("ReadRecover: %v", err)
			}
			if !ri.MetadataRepaired || ri.Retries != 0 || ri.Quarantined {
				t.Fatalf("unexpected recovery shape: %+v", ri)
			}
			if !bytes.Equal(dst, pt) {
				t.Fatal("recovered plaintext mismatch")
			}
			if e.Stats().MetadataRepairs != 1 {
				t.Fatalf("MetadataRepairs = %d, want 1", e.Stats().MetadataRepairs)
			}
			// Subsequent plain reads work again.
			if _, err := e.Read(0, dst); err != nil {
				t.Fatalf("read after repair: %v", err)
			}
		})
	}
}

// TestRecoverTreeNodeRepair: an off-chip tree node fault is likewise
// repairable by rebuilding the tree from the (re-derived) counter images.
func TestRecoverTreeNodeRepair(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	pt := block(7)
	if err := e.Write(0, pt); err != nil {
		t.Fatal(err)
	}
	if e.tr.OffChipLevels() == 0 {
		t.Skip("tree fits on chip")
	}
	leaf := e.MetadataIndex(0)
	id := tree.NodeID{Level: 0, Index: leaf / 8}
	if err := flipNode(e.off, id, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Read(0, make([]byte, BlockBytes)); err == nil {
		t.Fatal("tampered tree node not detected")
	}
	dst := make([]byte, BlockBytes)
	ri, err := e.ReadRecover(0, dst)
	if err != nil {
		t.Fatalf("ReadRecover: %v", err)
	}
	if !ri.MetadataRepaired {
		t.Fatalf("expected metadata repair, got %+v", ri)
	}
	if !bytes.Equal(dst, pt) {
		t.Fatal("recovered plaintext mismatch")
	}
}

// TestRecoverTransientRetry: a data-plane fault that clears on re-read
// (transient bus fault) is recovered by the bounded retry path.
func TestRecoverTransientRetry(t *testing.T) {
	for _, cfg := range allDesignPoints() {
		t.Run(cfg.Scheme.String()+"/"+cfg.Placement.String(), func(t *testing.T) {
			e := newEngine(t, cfg)
			pt := block(3)
			if err := e.Write(0, pt); err != nil {
				t.Fatal(err)
			}
			// A burst beyond any correction budget.
			for bit := 0; bit < 40; bit++ {
				if err := flipAt(e.off, PlaneData, 0, bit); err != nil {
					t.Fatal(err)
				}
			}
			// The retry hook models the re-read clearing the fault.
			cleared := false
			e.SetRetryHook(func(blk uint64) {
				if cleared {
					return
				}
				cleared = true
				for bit := 0; bit < 40; bit++ {
					if err := flipAt(e.off, PlaneData, 0, bit); err != nil {
						t.Fatal(err)
					}
				}
			})
			dst := make([]byte, BlockBytes)
			ri, err := e.ReadRecover(0, dst)
			if err != nil {
				t.Fatalf("ReadRecover: %v", err)
			}
			if !ri.RetryRecovered || ri.Retries != 1 {
				t.Fatalf("unexpected recovery shape: %+v", ri)
			}
			if !bytes.Equal(dst, pt) {
				t.Fatal("recovered plaintext mismatch")
			}
			st := e.Stats()
			if st.RetriedReads != 1 || st.RetryRecoveries != 1 {
				t.Fatalf("retry stats = %d/%d, want 1/1", st.RetriedReads, st.RetryRecoveries)
			}
		})
	}
}

// TestRecoverQuarantine: a persistent uncorrectable fault exhausts the
// policy, quarantines the block, and further reads fail fast until a fresh
// write releases it. This is the loud-failure guarantee: data is lost, but
// never silently wrong.
func TestRecoverQuarantine(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	pt := block(9)
	if err := e.Write(128, pt); err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 40; bit++ {
		if err := flipAt(e.off, PlaneData, 128, bit); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, BlockBytes)
	ri, err := e.ReadRecover(128, dst)
	if err == nil {
		t.Fatal("uncorrectable fault recovered without data")
	}
	if !ri.Quarantined || ri.Retries != maxRetries {
		t.Fatalf("unexpected recovery shape: %+v", ri)
	}
	if !e.Quarantined(128) {
		t.Fatal("block not quarantined")
	}
	if got := e.QuarantineList(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("QuarantineList = %v, want [2]", got)
	}

	// Further reads fail fast with QuarantineError (both paths).
	var qe *QuarantineError
	if _, err := e.Read(128, dst); !errors.As(err, &qe) {
		t.Fatalf("read of quarantined block: got %v, want QuarantineError", err)
	}
	if _, err := e.ReadRecover(128, dst); !errors.As(err, &qe) {
		t.Fatalf("ReadRecover of quarantined block: got %v, want QuarantineError", err)
	}
	if e.Stats().QuarantineRefusals < 2 {
		t.Fatalf("QuarantineRefusals = %d, want >= 2", e.Stats().QuarantineRefusals)
	}

	// A fresh write releases the quarantine and reads verify again.
	pt2 := block(10)
	if err := e.Write(128, pt2); err != nil {
		t.Fatal(err)
	}
	if e.Quarantined(128) {
		t.Fatal("write did not release quarantine")
	}
	if _, err := e.Read(128, dst); err != nil {
		t.Fatalf("read after rewrite: %v", err)
	}
	if !bytes.Equal(dst, pt2) {
		t.Fatal("plaintext mismatch after rewrite")
	}
}

// TestReencryptSweepQuarantinesUnverifiable: the group re-encryption sweep
// must never launder a corrupted block into freshly-MACed ciphertext. A
// block corrupted beyond the budget before the sweep must be quarantined
// (or at minimum keep failing verification) after it — not read back as
// garbage with a valid MAC.
func TestReencryptSweepQuarantinesUnverifiable(t *testing.T) {
	for _, cfg := range allDesignPoints() {
		if cfg.Scheme != ctr.Delta && cfg.Scheme != ctr.DualLength {
			continue // only these schemes re-encrypt groups
		}
		t.Run(cfg.Scheme.String()+"/"+cfg.Placement.String(), func(t *testing.T) {
			e := newEngine(t, cfg)
			victim := uint64(5) // same group as block 0 (GroupBlocks=64)
			if err := e.Write(victim*BlockBytes, block(11)); err != nil {
				t.Fatal(err)
			}
			for bit := 0; bit < 40; bit++ {
				if err := flipAt(e.off, PlaneData, victim*BlockBytes, bit); err != nil {
					t.Fatal(err)
				}
			}
			// Hammer block 0 until the group re-encrypts at least once.
			pt := block(12)
			before := e.Stats().GroupReencrypts
			for i := 0; i < 200_000 && e.Stats().GroupReencrypts == before; i++ {
				if err := e.Write(0, pt); err != nil {
					t.Fatal(err)
				}
			}
			if e.Stats().GroupReencrypts == before {
				t.Skip("scheme never re-encrypted under this workload")
			}
			// The victim must NOT read back as valid garbage.
			dst := make([]byte, BlockBytes)
			_, err := e.Read(victim*BlockBytes, dst)
			if err == nil {
				t.Fatal("corrupted block re-sealed with a valid MAC by the sweep (silent corruption)")
			}
			if !e.Quarantined(victim * BlockBytes) {
				t.Fatal("sweep did not quarantine the unverifiable block")
			}
			// Block 0 itself is fine throughout.
			if _, err := e.Read(0, dst); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst, pt) {
				t.Fatal("survivor block corrupted by sweep")
			}
		})
	}
}

// recoverSpan writes a 4-block span whose third block opens a new metadata
// block (group and monolithic counter block alike), so a counter-plane fault
// under the third block leaves the first two readable.
func recoverSpan(t *testing.T, e *Engine) (addr uint64, src []byte) {
	t.Helper()
	addr = (ctr.GroupBlocks - 2) * BlockBytes
	src = make([]byte, 4*BlockBytes)
	for j := 0; j < 4; j++ {
		copy(src[j*BlockBytes:], block(int64(60+j)))
	}
	if err := e.WriteBlocks(addr, src); err != nil {
		t.Fatal(err)
	}
	if e.MetadataIndex(addr+BlockBytes) == e.MetadataIndex(addr+2*BlockBytes) {
		t.Fatal("the span's third block does not open a metadata block")
	}
	return addr, src
}

// TestRecoverSpanMetadataRepair: a 4-block ReadRecover whose third block's
// counter image is flipped reads the first two, repairs the metadata once
// for the third, and goes on to the fourth: the span succeeds.
func TestRecoverSpanMetadataRepair(t *testing.T) {
	for _, cfg := range allDesignPoints() {
		t.Run(cfg.Scheme.String()+"/"+cfg.Placement.String(), func(t *testing.T) {
			e := newEngine(t, cfg)
			addr, src := recoverSpan(t, e)
			if err := flipElem(e.off, PlaneCounter, e.MetadataIndex(addr+2*BlockBytes), 13); err != nil {
				t.Fatal(err)
			}
			goCold(e)
			dst := make([]byte, len(src))
			ri, err := e.ReadRecover(addr, dst)
			if err != nil {
				t.Fatalf("ReadRecover: %v", err)
			}
			if !ri.MetadataRepaired || ri.Retries != 0 || ri.Quarantined || ri.Fresh {
				t.Fatalf("unexpected recovery shape: %+v", ri)
			}
			if !bytes.Equal(dst, src) {
				t.Fatal("recovered span mismatch")
			}
			if st := e.Stats(); st.MetadataRepairs != 1 || st.IntegrityFailures != 1 {
				t.Fatalf("MetadataRepairs = %d, IntegrityFailures = %d, want 1 and 1", st.MetadataRepairs, st.IntegrityFailures)
			}
		})
	}
}

// TestRecoverSpanQuarantinesFailingBlock: the same span with a 3-bit data
// burst on its third block. The first two blocks are decrypted, the error
// carries the third block's address, only that block is quarantined, and the
// fourth is neither read nor written into dst.
func TestRecoverSpanQuarantinesFailingBlock(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	addr, src := recoverSpan(t, e)
	bad := addr + 2*BlockBytes
	for _, bit := range []int{0, 100, 200} { // beyond the 2-bit correction budget
		if err := flipAt(e.off, PlaneData, bad, bit); err != nil {
			t.Fatal(err)
		}
	}
	goCold(e)
	dst := bytes.Repeat([]byte{0xEE}, len(src))
	base := e.Stats()
	ri, err := e.ReadRecover(addr, dst)
	var ie *IntegrityError
	if !errors.As(err, &ie) || ie.Addr != bad || ie.Stage != StageData {
		t.Fatalf("ReadRecover: %v, want a data-stage IntegrityError at %#x", err, bad)
	}
	if !ri.Quarantined || ri.Retries != maxRetries || ri.MetadataRepaired || ri.RetryRecovered {
		t.Fatalf("unexpected recovery shape: %+v", ri)
	}
	if !bytes.Equal(dst[:2*BlockBytes], src[:2*BlockBytes]) {
		t.Fatal("blocks before the failure were not decrypted")
	}
	if !bytes.Equal(dst[3*BlockBytes:], bytes.Repeat([]byte{0xEE}, BlockBytes)) {
		t.Fatal("the block after the failure was written into dst")
	}
	if got := e.QuarantineList(); len(got) != 1 || got[0] != bad/BlockBytes {
		t.Fatalf("QuarantineList = %v, want [%d]", got, bad/BlockBytes)
	}
	// Three blocks read once, the third re-read once per retry; the fourth
	// never.
	if reads := e.Stats().Reads - base.Reads; reads != uint64(3+maxRetries) {
		t.Fatalf("%d block reads, want %d", reads, 3+maxRetries)
	}
}

package core

import (
	"fmt"
	"sync/atomic"

	"authmem/internal/ctr"
)

// The block paths. Every read and every write is a span of contiguous whole
// blocks, and a one-block Read or Write is the one-block span: there is one
// read loop (read) and one write loop (WriteBlocks -> writeChunk). A span's
// blocks share counter metadata: one counter block covers
// ctr.CountersPerMetadataBlock (or a group's worth of) data blocks, so a read
// verifies the tree leaf once per metadata block — instead of once per data
// block — just as a real controller caches the verified counter line, and a
// write commits each touched counter block once, after all its blocks are
// stored.

// checkSpan validates an access of n bytes at the address addr in a region
// of the given size: addr block-aligned and inside it, n a positive multiple
// of BlockBytes, and the span ending inside it. It is the one address check
// of both the engine and the sharded engine.
func checkSpan(region, addr uint64, n int, what string) error {
	switch {
	case addr%BlockBytes != 0:
		return fmt.Errorf("core: address %#x not %d-byte aligned", addr, BlockBytes)
	case addr >= region:
		return fmt.Errorf("core: address %#x outside %d-byte region", addr, region)
	case n == 0 || n%BlockBytes != 0:
		return fmt.Errorf("core: %s length %d not a positive multiple of %d", what, n, BlockBytes)
	case addr+uint64(n) > region:
		return fmt.Errorf("core: %s span [%#x, %#x) outside %d-byte region", what, addr, addr+uint64(n), region)
	}
	return nil
}

// oneBlock checks the buffer of a one-block Read or Write.
func oneBlock(n int, what string) error {
	if n != BlockBytes {
		return fmt.Errorf("core: %s must be %d bytes, got %d", what, BlockBytes, n)
	}
	return nil
}

// Read verifies, decrypts, and returns one 64-byte block: the one-block span
// of ReadBlocks. Correctable memory faults are repaired in place (write-back
// scrubbing); integrity violations return an *IntegrityError.
func (e *Engine) Read(addr uint64, dst []byte) (ReadInfo, error) {
	if err := oneBlock(len(dst), "read buffer"); err != nil {
		return ReadInfo{}, err
	}
	ri, err := e.read(addr, dst, false)
	return ri.ReadInfo, err
}

// ReadBlocks verifies and decrypts len(dst)/BlockBytes contiguous blocks
// starting at addr into dst. The first failing block aborts the span with
// its error; blocks before it have already been decrypted into dst.
func (e *Engine) ReadBlocks(addr uint64, dst []byte) error {
	_, err := e.read(addr, dst, false)
	return err
}

// read is the engine's one read loop, behind Read, ReadBlocks and
// ReadRecover. It serves each block of the span from the verified-block
// cache or, on a miss, fetches and tree-verifies the covering counter image
// (once per metadata block), authenticates the ciphertext — repairing
// correctable faults in place — and decrypts it into dst. The returned info
// merges the blocks' ReadInfo: counts add up, and Fresh holds only if every
// block was never written. Without the ladder, the first failing block ends
// the span with its error; with it, that block climbs the recovery ladder
// (recovery.go) and the span goes on after it unless the ladder fails too.
// On error, the info covers the blocks before the failing one.
func (e *Engine) read(addr uint64, dst []byte, ladder bool) (RecoverInfo, error) {
	var ri RecoverInfo
	if err := checkSpan(e.cfg.RegionBytes, addr, len(dst), "read"); err != nil {
		return ri, err
	}
	first := addr / BlockBytes
	n := uint64(len(dst)) / BlockBytes
	midx := ^uint64(0)
	var img []byte
	ri.Fresh = true
	for j := uint64(0); j < n; j++ {
		if j%gatherBlocks == 0 {
			e.gather(first+j, int(n-j), e.scheme.MetadataBlock(first+j))
		}
		blk, d := first+j, dst[j*BlockBytes:(j+1)*BlockBytes]
		atomic.AddUint64(&e.stats.Reads, 1)
		if e.readCached(blk, d) {
			ri.Fresh = false
			continue
		}
		info, err := e.readMiss(blk, d, &midx, &img)
		if err != nil && ladder {
			midx = ^uint64(0) // the ladder may have rebuilt every image
			info, err = e.recoverBlock(blk, d, err, &ri)
		}
		if err != nil {
			ri.Fresh = false
			return ri, err
		}
		ri.ReadInfo.add(info)
	}
	return ri, nil
}

// readMiss reads one block the verified-block cache missed. *img holds the
// verified counter image of metadata block *midx; a block under another
// metadata block fetches (and tree-verifies) its own, which replaces it.
func (e *Engine) readMiss(blk uint64, dst []byte, midx *uint64, img *[]byte) (ReadInfo, error) {
	if m := e.scheme.MetadataBlock(blk); m != *midx {
		fetched, err := e.verifiedImage(blk*BlockBytes, m)
		if err != nil {
			return ReadInfo{}, err
		}
		*midx, *img = m, fetched
	}
	counter, err := e.decodeVerified(*img, blk)
	if err != nil {
		return ReadInfo{}, err
	}
	return e.readVerified(blk, counter, dst)
}

// add folds the info of a later stretch of the same span into r: counts add
// up, and the span is fresh only if both stretches are.
func (r *ReadInfo) add(o ReadInfo) {
	r.Fresh = r.Fresh && o.Fresh
	r.CorrectedDataBits += o.CorrectedDataBits
	r.CorrectedMACBits += o.CorrectedMACBits
	r.HardwareChecks += o.HardwareChecks
}

// add is ReadInfo.add plus the ladder: retries add up, and a rung that fired
// anywhere fired for the span.
func (r *RecoverInfo) add(o RecoverInfo) {
	r.ReadInfo.add(o.ReadInfo)
	r.Retries += o.Retries
	r.RetryRecovered = r.RetryRecovered || o.RetryRecovered
	r.MetadataRepaired = r.MetadataRepaired || o.MetadataRepaired
	r.Quarantined = r.Quarantined || o.Quarantined
}

// Write encrypts and stores one 64-byte block at the aligned address: the
// one-block span of WriteBlocks.
func (e *Engine) Write(addr uint64, plaintext []byte) error {
	if err := oneBlock(len(plaintext), "write"); err != nil {
		return err
	}
	return e.WriteBlocks(addr, plaintext)
}

// WriteBlocks encrypts and stores len(src)/BlockBytes contiguous blocks
// starting at addr. The span is carved into chunks covered by one counter-
// metadata block each; a chunk touches all its counters first (so a
// mid-chunk overflow sweep merges the whole in-flight span), seals runs of
// equal counters with one batched keystream sweep per run, and commits its
// metadata (deferCommit) exactly once.
func (e *Engine) WriteBlocks(addr uint64, src []byte) error {
	if err := checkSpan(e.cfg.RegionBytes, addr, len(src), "write"); err != nil {
		return err
	}
	first := addr / BlockBytes
	n := uint64(len(src)) / BlockBytes

	for done := uint64(0); done < n; {
		blk := first + done
		midx := e.scheme.MetadataBlock(blk)
		run := uint64(1)
		for done+run < n && e.scheme.MetadataBlock(blk+run) == midx {
			run++
		}
		if err := e.writeChunk(blk, midx, src[done*BlockBytes:(done+run)*BlockBytes]); err != nil {
			return err
		}
		done += run
	}
	return nil
}

// writeChunk writes a contiguous span of blocks covered by a single
// counter-metadata block. A chunk never exceeds ctr.GroupBlocks blocks (one
// metadata block covers at most a group).
func (e *Engine) writeChunk(first, midx uint64, src []byte) error {
	n := len(src) / BlockBytes
	var counters [ctr.GroupBlocks]uint64
	e.gather(first, n, midx)

	// Touch every counter with the whole chunk as the in-flight span: a
	// mid-chunk overflow sweep must not reseal blocks this chunk is about
	// to overwrite (their stored bits predate the earlier touches).
	e.pendingFirst, e.pendingLast, e.hasPendingWrite = first, first+uint64(n)-1, true
	reenc := false
	for j := 0; j < n; j++ {
		atomic.AddUint64(&e.stats.Writes, 1)
		out := e.scheme.Touch(first + uint64(j))
		counters[j] = out.Counter
		if out.Reencrypted {
			reenc = true
		}
	}
	e.hasPendingWrite = false
	if reenc {
		// An overflow sweep re-based the group mid-chunk, so counters
		// recorded before it are stale. Re-derive every counter from the
		// trusted state machine's final image.
		img := e.packer.PackMetadata(midx)
		for j := 0; j < n; j++ {
			c, err := e.decodeCounter(img[:], first+uint64(j))
			if err != nil {
				return err
			}
			counters[j] = c
		}
	}

	// Seal: contiguous blocks sharing a counter value — the common case for
	// streaming writes into one group — are padded with one batched
	// keystream sweep and tagged with one batched MAC sweep instead of one
	// pad lookup + Tag call per block.
	if e.spanBuf == nil {
		e.spanBuf = make([]byte, ctr.GroupBlocks*BlockBytes)
	}
	for j := 0; j < n; {
		r := j + 1
		for r < n && counters[r] == counters[j] {
			r++
		}
		span := e.spanBuf[:(r-j)*BlockBytes]
		spanAddr := (first + uint64(j)) * BlockBytes
		if err := e.ks.XORBlocks(span, src[j*BlockBytes:r*BlockBytes], spanAddr, counters[j]); err != nil {
			return err
		}
		if err := e.key.TagBatch(e.tagBuf[:r-j], span, spanAddr, counters[j]); err != nil {
			return err
		}
		for k := j; k < r; k++ {
			blk := first + uint64(k)
			delete(e.quarantine, blk)
			ct := e.store.Materialize(blk)
			copy(ct, span[(k-j)*BlockBytes:(k-j+1)*BlockBytes])
			if err := e.sealBlockTagged(blk, ct, e.tagBuf[k-j]); err != nil {
				return err
			}
			e.bc.insert(blk, src[k*BlockBytes:(k+1)*BlockBytes])
		}
		j = r
	}

	return e.deferCommit(midx, first, n)
}

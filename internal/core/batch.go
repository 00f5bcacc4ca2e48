package core

import (
	"fmt"
	"sync/atomic"

	"authmem/internal/ctr"
)

// Batched multi-block read/write paths. A span of contiguous blocks shares
// counter metadata: one counter block covers ctr.CountersPerMetadataBlock
// (or a group's worth of) data blocks, so a streaming access that verifies
// the tree leaf once per metadata block — instead of once per data block —
// drops most of the per-access tree-walk cost, just as a real controller
// caches the verified counter line. Writes similarly commit each touched
// counter block once, after all its blocks are stored.

func (e *Engine) checkSpan(addr uint64, n int, what string) error {
	if err := e.checkAddr(addr); err != nil {
		return err
	}
	if n == 0 || n%BlockBytes != 0 {
		return fmt.Errorf("core: %s length %d not a positive multiple of %d", what, n, BlockBytes)
	}
	if addr+uint64(n) > e.cfg.RegionBytes {
		return fmt.Errorf("core: %s span [%#x, %#x) outside %d-byte region", what, addr, addr+uint64(n), e.cfg.RegionBytes)
	}
	return nil
}

// ReadBlocks verifies and decrypts len(dst)/BlockBytes contiguous blocks
// starting at addr into dst. Counter metadata is fetched and tree-verified
// once per covering metadata block rather than once per data block; each
// block's ciphertext is then authenticated and decrypted exactly as Read
// does. The first failing block aborts the batch with its error; blocks
// before it have already been decrypted into dst.
func (e *Engine) ReadBlocks(addr uint64, dst []byte) error {
	if err := e.checkSpan(addr, len(dst), "read"); err != nil {
		return err
	}
	first := addr / BlockBytes
	n := uint64(len(dst)) / BlockBytes

	curMidx := ^uint64(0)
	var img []byte
	for j := uint64(0); j < n; j++ {
		blk := first + j
		atomic.AddUint64(&e.stats.Reads, 1)
		if e.readCached(blk, dst[j*BlockBytes:(j+1)*BlockBytes]) {
			continue
		}
		if midx := e.scheme.MetadataBlock(blk); midx != curMidx {
			var err error
			if img, err = e.verifiedImage(blk*BlockBytes, midx); err != nil {
				return err
			}
			curMidx = midx
		}
		counter, err := e.decodeVerified(img, blk)
		if err != nil {
			return err
		}
		if _, err := e.readVerified(blk, counter, dst[j*BlockBytes:(j+1)*BlockBytes]); err != nil {
			return err
		}
	}
	return nil
}

// WriteBlocks encrypts and stores len(src)/BlockBytes contiguous blocks
// starting at addr. The span is carved into chunks covered by one counter-
// metadata block each; a chunk touches all its counters first (so a
// mid-chunk overflow sweep merges the whole in-flight span), seals runs of
// equal counters with one batched keystream sweep per run, and commits its
// metadata (deferCommit) exactly once.
func (e *Engine) WriteBlocks(addr uint64, src []byte) error {
	if err := e.checkSpan(addr, len(src), "write"); err != nil {
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

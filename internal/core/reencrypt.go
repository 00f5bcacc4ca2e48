package core

import (
	"runtime"
	"sync"

	"authmem/internal/crypto"
	"authmem/internal/ctr"
	"authmem/internal/ecc"
)

// Parallel group re-encryption.
//
// A counter-overflow sweep re-encrypts a whole 64-block group while the
// writer waits — the longest synchronous stall on the write path. The sweep
// is embarrassingly parallel per block (verify + decrypt under the old
// counter, re-pad under the new, reseal), so it fans out across a bounded
// worker pool.
//
// Concurrency audit, because the serial engine shares mutable state freely:
//   - Crypto instances are single-owner: crypto.Stream and crypto.MAC keep
//     their cipher scratch inside the instance, so NOTHING crypto is shared
//     across workers. Each worker owns a full reencCrypto context — a
//     Stream, a MAC, and (under MAC-in-ECC) a Verifier built around that
//     MAC — constructed once, with the engine.
//   - blockStore.Materialize mutates the chunk table and presence bitmap
//     (shared words), so every block is materialized serially BEFORE the
//     fan-out; workers then only touch disjoint per-block arena slices
//     (ciphertext, meta lane, check bytes).
//   - Per-worker EngineStats bank correction events; merged after the join.
//   - The quarantine map and the block cache are only mutated after the
//     join, from the workers' skip verdicts.
//   - The classic data-tree design is excluded: its sealBlock refreshes
//     tree leaves whose interior nodes are shared between workers.
//
// The serial sweep (engine.go reencryptGroup) remains the path for data-tree
// engines and for groups below reencParallelMinBlocks, and is the reference
// the parallel sweep is tested bit-equal against.

// reencParallelMinBlocks gates the fan-out: below this the per-goroutine
// overhead beats the MAC work saved.
const reencParallelMinBlocks = 16

// reencCrypto is one worker's private crypto context.
type reencCrypto struct {
	ks  *crypto.Stream
	key *crypto.MAC
	ver ecc.LaneVerifier // nil unless the codec carries the MAC
}

// newReencryptPool builds the worker pool: clamp(GOMAXPROCS, 2, 4) private
// crypto contexts — at least 2 so the parallel sweep is the path exercised
// (and race-checked) on any host, at most 4 so N shards sweeping at once
// cannot oversubscribe the machine; the goroutines live only for the
// microseconds of one 64-block sweep.
func (e *Engine) newReencryptPool() error {
	workers := min(max(runtime.GOMAXPROCS(0), 2), 4)
	ctxs := make([]reencCrypto, workers)
	for i := range ctxs {
		ks, err := crypto.NewStream(e.cfg.KeyMaterial[24:40])
		if err != nil {
			return err
		}
		key, err := crypto.NewMAC(e.cfg.KeyMaterial[:24])
		if err != nil {
			return err
		}
		var ver ecc.LaneVerifier
		if e.mcod != nil {
			ver, err = e.mcod.NewVerifier(key, e.cfg.CorrectBits)
			if err != nil {
				return err
			}
		}
		ctxs[i] = reencCrypto{ks: ks, key: key, ver: ver}
	}
	e.reencCtx = ctxs
	e.reencStats = make([]EngineStats, workers)
	e.reencWorkers = workers
	return nil
}

// reencryptGroupParallel is the fan-out body of reencryptGroup; it produces
// bit-identical arena state to the serial sweep. The dispatcher has already
// bumped GroupReencrypts, clamped n to the region, and sized groupBuf.
func (e *Engine) reencryptGroupParallel(groupStart uint64, oldCounters []uint64, newCounter uint64) {
	n := len(oldCounters)
	buf := e.groupBuf[:n*BlockBytes]

	// Serial prologue: classify blocks and materialize every slot the sweep
	// will install into, so workers never mutate shared store structure.
	// In-flight writes keep their slots untouched (fresh data follows);
	// never-written blocks become encrypted zeros, exactly as in the serial
	// sweep.
	var fresh, pend, skip [ctr.GroupBlocks]bool
	for j := 0; j < n; j++ {
		blk := groupStart + uint64(j)
		if e.pending(blk) {
			pend[j] = true
			continue
		}
		if e.store.Ciphertext(blk) == nil {
			fresh[j] = true
		}
		e.store.Materialize(blk)
	}

	workers := e.reencWorkers
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	used := 0
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		used++
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			st := &e.reencStats[w]
			cx := &e.reencCtx[w]
			// Stage: authenticate and decrypt this worker's blocks under
			// their old counters (same laundering rule as the serial sweep:
			// unverifiable blocks keep their old sealed bits).
			for j := lo; j < hi; j++ {
				blk := groupStart + uint64(j)
				pt := buf[j*BlockBytes : (j+1)*BlockBytes]
				if pend[j] || fresh[j] {
					clear(pt)
					continue
				}
				ct := e.store.Ciphertext(blk)
				if !e.verifyStoredWith(cx.key, cx.ver, blk, ct, oldCounters[j], st) {
					skip[j] = true
					clear(pt)
					continue
				}
				if err := cx.ks.XOR(pt, ct, blk*BlockBytes, oldCounters[j]); err != nil {
					panic(err) // sizes are fixed; cannot fail
				}
			}
			// Re-pad this worker's contiguous span under the new counter
			// with one XORBlocks sweep, tag it with one TagBatch sweep,
			// and reinstall.
			span := buf[lo*BlockBytes : hi*BlockBytes]
			spanAddr := (groupStart + uint64(lo)) * BlockBytes
			if err := cx.ks.XORBlocks(span, span, spanAddr, newCounter); err != nil {
				panic(err)
			}
			var tags [ctr.GroupBlocks]uint64
			if err := cx.key.TagBatch(tags[:hi-lo], span, spanAddr, newCounter); err != nil {
				panic(err)
			}
			for j := lo; j < hi; j++ {
				blk := groupStart + uint64(j)
				if pend[j] || skip[j] {
					continue
				}
				ct := e.store.Ciphertext(blk) // materialized in the prologue
				copy(ct, buf[j*BlockBytes:(j+1)*BlockBytes])
				if err := e.sealBlockTagged(blk, ct, tags[j-lo]); err != nil {
					panic(err)
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()

	// Serial epilogue: merge worker stats and apply quarantine verdicts
	// (map + block-cache mutations stay single-threaded).
	for w := 0; w < used; w++ {
		e.stats.merge(e.reencStats[w])
		e.reencStats[w] = EngineStats{}
	}
	e.stats.ParallelReencryptWorkers.Add(uint64(used))
	for j := 0; j < n; j++ {
		if skip[j] {
			e.quarantineBlock(groupStart + uint64(j))
		}
	}
	// The caller (Touch -> Write) commits the metadata image afterwards.
}

package main

import (
	"fmt"
	"io"
	"time"

	"authmem"
	"authmem/internal/crypto"
	"authmem/internal/ctr"
	"authmem/internal/ecc"
	"authmem/internal/tree"
	"authmem/internal/wal"
	"authmem/internal/wire"
)

// Unit costs: the public kernel of each layer below the engine facade, timed
// alone on the workload's shapes and normalised like everything else. A
// layer's share of an op is its unit cost times how often the engine's own
// counters say it ran; the engine cost the units do not explain is the
// facade's own (core.self_ref).

const kernelPairs = 24

// unitCost measures f, which performs calls calls, in slice pairs against
// ref and returns reference iterations per call.
func unitCost(ref *refKernel, calls int, f func()) float64 {
	return unitCostOf(ref, calls, func() time.Duration {
		t0 := time.Now()
		f()
		return time.Since(t0)
	})
}

// unitCostOf is unitCost for an f that times the calls itself, because it
// interleaves them with work that is not part of the kernel.
func unitCostOf(ref *refKernel, calls int, f func() time.Duration) float64 {
	iters := refItersPerSlice(ref.loads) / 2
	var work, refNs []float64
	tick := func() {
		t0 := time.Now()
		ref.run(iters)
		refNs = append(refNs, float64(time.Since(t0))/float64(iters))
	}
	tick()
	for i := 0; i < kernelPairs; i++ {
		work = append(work, float64(f())/float64(calls))
		tick()
	}
	return median(dropWarmup(ratios(work, refNs)))
}

// firstErr remembers the first error of a kernel loop, which cannot stop to
// report one.
type firstErr struct{ err error }

func (f *firstErr) keep(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// kernelCosts times the crypto, ECC, counter, tree, wire and WAL kernels as
// the engine configures them (default backend and codec, one shard's tree).
func kernelCosts(w *workload, ref *refKernel, m map[string]float64) error {
	cfg := benchConfig(w.region)
	be, err := crypto.Lookup(cfg.CryptoBackend)
	if err != nil {
		return err
	}
	mac, err := be.NewMAC(cfg.Key[:24])
	if err != nil {
		return err
	}
	ks, err := be.NewStream(cfg.Key[24:40])
	if err != nil {
		return err
	}
	cod, err := ecc.Lookup(ecc.DefaultFor(true))
	if err != nil {
		return err
	}
	mcod, ok := cod.(ecc.MACCodec)
	if !ok {
		return fmt.Errorf("codec %s carries no MAC", cod.Name())
	}
	ver, err := mcod.NewVerifier(mac, cfg.CorrectBits)
	if err != nil {
		return err
	}

	const n = 2048
	var first firstErr
	keep := first.keep
	ct := make([]byte, blockBytes)
	for i := range ct {
		ct[i] = byte(i*31 + 7)
	}
	pad := make([]byte, spanBytes)
	m["crypto.pad_block_ref"] = unitCost(ref, n*spanBytes/blockBytes, func() {
		for i := uint64(0); i < n; i++ {
			keep(ks.PadN(pad, i*spanBytes, i))
		}
	})
	var tag uint64
	m["crypto.mac_block_ref"] = unitCost(ref, n, func() {
		for i := uint64(0); i < n; i++ {
			tag, err = mac.Tag(ct, i*blockBytes, 1)
			keep(err)
		}
	})
	var lane uint64
	m["ecc.encode_block_ref"] = unitCost(ref, n, func() {
		for i := uint64(0); i < n; i++ {
			lane = mcod.PackLane(tag+i, ct)
		}
	})
	tag, err = mac.Tag(ct, 0, 1)
	keep(err)
	lane = mcod.PackLane(tag, ct)
	verify := unitCost(ref, n, func() {
		for i := 0; i < n; i++ {
			_, out, err := ver.VerifyAndCorrect(ct, lane, 0, 1)
			keep(err)
			if !out.OK {
				keep(fmt.Errorf("verify kernel: clean block rejected"))
			}
		}
	})
	// VerifyAndCorrect computes the MAC itself; that part is crypto's.
	m["ecc.verify_block_ref"] = max(verify-m["crypto.mac_block_ref"], 0)

	scheme, err := ctr.NewScheme(ctr.Delta)
	if err != nil {
		return err
	}
	blk := uint64(0)
	m["ctr.touch_ref"] = unitCost(ref, n, func() {
		for i := 0; i < n; i++ {
			scheme.Touch(blk % (1 << 16))
			blk += 67 // walk groups and slots alike
		}
	})

	leaves := w.region / shards / (ctr.GroupBlocks * blockBytes)
	tr, err := tree.New(mac, leaves, cfg.OnChipTreeBytes)
	if err != nil {
		return err
	}
	image := make([]byte, tree.NodeBytes)
	if err := tr.Rebuild(func(uint64) []byte { return image }); err != nil {
		return err
	}
	leaf := uint64(0)
	next := func() uint64 { leaf = (leaf + 257) % leaves; return leaf }
	m["tree.verify_leaf_ref"] = unitCost(ref, n, func() {
		for i := 0; i < n; i++ {
			keep(tr.VerifyLeafFast(next(), image))
		}
	})
	m["tree.update_leaf_ref"] = unitCost(ref, n, func() {
		for i := 0; i < n; i++ {
			keep(tr.UpdateLeafFast(next(), image))
		}
	})

	frame := wire.AppendFrame(nil, wire.Header{Version: wire.Version, Op: wire.OpWrite, Count: spanBytes / blockBytes}, pad)
	buf := make([]byte, 0, len(frame))
	m["wire.encode_frame_ref"] = unitCost(ref, n, func() {
		for i := uint64(0); i < n; i++ {
			buf = wire.AppendFrame(buf[:0], wire.Header{Version: wire.Version, Op: wire.OpWrite, ID: i, Addr: i * spanBytes, Count: spanBytes / blockBytes}, pad)
		}
	})
	m["wire.decode_frame_ref"] = unitCost(ref, n, func() {
		for i := 0; i < n; i++ {
			_, _, _, err := wire.ParseFrame(frame)
			keep(err)
		}
	})

	// One delta-log record carries a 4 KiB group plus its counter image,
	// lanes and framing.
	lw, err := wal.NewWriter(io.Discard, cfg.Key, [wal.SeedSize]byte{})
	if err != nil {
		return err
	}
	record := make([]byte, ctr.GroupBlocks*blockBytes+ctr.GroupBlocks*8+blockBytes+64)
	m["persist.wal_append_ref"] = unitCost(ref, 256, func() {
		for i := 0; i < 256; i++ {
			keep(lw.Append(record))
		}
	})
	return first.err
}

// engineCosts times the engine's public calls on mem, whose working set is
// populated as the workload lays it out.
func engineCosts(w *workload, mem *authmem.ShardedMemory, ref *refKernel, m map[string]float64) error {
	const n = 2048
	var first firstErr
	keep := first.keep
	span := make([]byte, spanBytes)
	i := uint64(0)
	m["core.read_hit_ref"] = unitCost(ref, n, func() {
		for k := 0; k < n; k++ {
			keep(mem.ReadBlocks(i%256*spanBytes, span)) // 64 KiB at the base of shard 0
			i++
		}
	})
	// Shard 0's populated extent; a miss needs it to be at least twice the
	// shard's 2 MiB direct-mapped verified-block cache, so that a full
	// cycle over it evicts every block before it is read again.
	extent := w.set.perShard
	if extent == 0 {
		extent = min(w.set.total, w.region/shards)
	}
	if spans := extent / spanBytes; extent >= 4<<20 {
		m["core.read_miss_ref"] = unitCost(ref, n, func() {
			for k := 0; k < n; k++ {
				keep(mem.ReadBlocks(i*4099%spans*spanBytes, span)) // ~1 MiB apart: a new counter group each time
				i++
			}
		})
	}
	// Flush and RootDigest as a pinned write pays them: one dirty span.
	afterWrite := func(call func()) func() time.Duration {
		return func() (d time.Duration) {
			for k := 0; k < 256; k++ {
				keep(mem.WriteBlocks(i%256*spanBytes, span))
				i++
				t0 := time.Now()
				call()
				d += time.Since(t0)
			}
			return d
		}
	}
	m["core.flush_ref"] = unitCostOf(ref, 256, afterWrite(func() { keep(mem.FlushAll()) }))
	m["core.rootdigest_ref"] = unitCostOf(ref, 256, afterWrite(func() { mem.RootDigest() }))
	return first.err
}

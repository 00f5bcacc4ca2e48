package main

// -crypto: tracked crypto-backend comparison. Every registered backend
// (internal/crypto: ttable, stdlib, batch8) runs the same four shapes:
//
//   - kernel.pad4k:     one 4KB counter group's keystream via PadBatch
//   - kernel.tagbatch4k: one group's 64 MAC tags via TagBatch
//   - seal.group:       WriteBlocks of one 4KB group through a Memory
//                       (encrypt + MAC + ECC lane + deferred tree), the
//                       write-pipeline flush shape
//   - reencrypt.sweep:  128 rewrites of one block under the split-counter
//                       scheme — the minor counter overflows once per op,
//                       so each op contains exactly one 64-block group
//                       re-encryption sweep (verify + decrypt + re-pad +
//                       reseal of the whole group)
//
// The T-table backend is measured first and becomes the baseline columns,
// so the speedup column reads "vs ttable" — same machine, same run, same
// shapes. The JSON matches the BENCH_hotpath.json format.

import (
	"fmt"
	"math/rand"
	"testing"

	"authmem"
	"authmem/internal/crypto"
	"authmem/internal/stats"
)

func runCrypto(outPath string, quick bool) {
	fmt.Println("=== Crypto backends: batch kernels and group seal/re-encrypt cost ===")
	regionBytes := uint64(64 << 20)
	if quick {
		regionBytes = 8 << 20
	}
	key := benchKeyMaterial()
	const groupBlocks = 64
	groupBytes := groupBlocks * authmem.BlockSize

	rep := hotReport{
		Note: "One entry per shape per crypto backend; baseline columns are the " +
			"ttable (from-scratch T-table AES) backend measured live in the same " +
			"run, so speedup_x reads 'vs ttable'. kernel.* are raw Stream/MAC " +
			"batch kernels over one 4KB counter group; seal.group is a full " +
			"WriteBlocks group seal; reencrypt.sweep is 128 rewrites containing " +
			"exactly one 64-block overflow re-encryption sweep.",
		benchEnv: captureEnv(),
	}

	// ttable first: its numbers are every other backend's baseline.
	names := []string{"ttable"}
	for _, n := range crypto.Names() {
		if n != "ttable" {
			names = append(names, n)
		}
	}
	ttableNs := map[string]float64{}

	measure := func(op func(b *testing.B)) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			op(b)
		})
	}
	add := func(shape, backend string, r testing.BenchmarkResult) {
		name := shape + "/" + backend
		e := hotEntry{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if backend == "ttable" {
			ttableNs[shape] = e.NsPerOp
		} else if base := ttableNs[shape]; base > 0 && e.NsPerOp > 0 {
			e.BaselineNs = base
			e.Speedup = base / e.NsPerOp
		}
		rep.Entries = append(rep.Entries, e)
		if e.Speedup > 0 {
			fmt.Printf("  %-26s %10.1f ns/op  %2d allocs/op  (%5.2fx vs ttable)\n",
				name, e.NsPerOp, e.AllocsPerOp, e.Speedup)
		} else {
			fmt.Printf("  %-26s %10.1f ns/op  %2d allocs/op\n",
				name, e.NsPerOp, e.AllocsPerOp)
		}
	}

	group := make([]byte, groupBytes)
	rand.New(rand.NewSource(7)).Read(group)
	padBuf := make([]byte, groupBytes)
	tags := make([]uint64, groupBlocks)

	for _, backend := range names {
		be, err := crypto.Lookup(backend)
		if err != nil {
			fatal(err)
		}

		// Raw kernels: no pad cache, so the AES work itself is measured
		// (a re-encryption sweep's new-counter pads are always cold).
		ks, err := be.NewStream(key[24:40])
		if err != nil {
			fatal(err)
		}
		mk, err := be.NewMAC(key[:24])
		if err != nil {
			fatal(err)
		}
		add("kernel.pad4k", backend, measure(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := ks.PadBatch(padBuf, 0, uint64(i)+1); err != nil {
					b.Fatal(err)
				}
			}
		}))
		add("kernel.tagbatch4k", backend, measure(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := mk.TagBatch(tags, group, 0, uint64(i)+1); err != nil {
					b.Fatal(err)
				}
			}
		}))

		// Full-engine shapes through the public API.
		newMem := func(scheme authmem.CounterScheme) *authmem.Memory {
			cfg := authmem.DefaultConfig(regionBytes)
			cfg.Scheme = scheme
			cfg.Key = key
			cfg.CryptoBackend = backend
			m, err := authmem.New(cfg)
			if err != nil {
				fatal(err)
			}
			return m
		}

		sealMem := newMem(authmem.DeltaEncoding)
		add("seal.group", backend, measure(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				addr := (uint64(i) * uint64(groupBytes)) % regionBytes
				if err := sealMem.WriteBlocks(addr, group); err != nil {
					b.Fatal(err)
				}
			}
		}))

		sweepMem := newMem(authmem.SplitCounter)
		block := group[:authmem.BlockSize]
		add("reencrypt.sweep", backend, measure(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// 128 rewrites overflow the 7-bit minor counter exactly
				// once: one full 64-block group re-encryption per op.
				for w := 0; w < 128; w++ {
					if err := sweepMem.Write(0, block); err != nil {
						b.Fatal(err)
					}
				}
			}
		}))
	}

	if err := stats.WriteJSON(outPath, rep); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", outPath)
}

package main

// -ecc: tracked ECC-codec comparison. Every registered codec (internal/ecc:
// secded, residue, macsecded) runs the same four shapes:
//
//   - kernel.encode4k: check-bit generation for one 4KB group (64 blocks).
//     Block codecs run EncodeInto; macsecded runs MAC tag + PackLane, since
//     its "check bits" are the packed MAC+Hamming lane.
//   - kernel.verify4k: clean-path verification of one 4KB group. Block
//     codecs run DecodeAndCorrect; macsecded runs the lane verifier's
//     VerifyAndCorrect (hardware-check short circuit included).
//   - seal.group:      WriteBlocks of one 4KB group through a Memory built
//     with the codec (placement implied by CarriesMAC).
//   - read.hot:        warm single-block Read through the same Memory.
//
// secded is measured first and becomes the baseline columns, so speedup_x
// reads "vs secded" — same machine, same run, same shapes.

import (
	"fmt"
	"math/rand"
	"testing"

	"authmem"
	"authmem/internal/crypto"
	"authmem/internal/ecc"
	"authmem/internal/stats"
)

// eccEntry is one benchmark result in BENCH_ecc.json.
type eccEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"alloc_bytes_per_op"`
	BaselineNs  float64 `json:"baseline_ns_per_op,omitempty"`
	Speedup     float64 `json:"speedup_x,omitempty"`
}

type eccReport struct {
	Note string `json:"note"`
	benchEnv
	Entries []eccEntry `json:"entries"`
}

func runECCBench(outPath string, quick bool) {
	fmt.Println("=== ECC codecs: check-bit kernels and engine seal/read cost ===")
	regionBytes := uint64(64 << 20)
	if quick {
		regionBytes = 8 << 20
	}
	key := benchKeyMaterial()
	const groupBlocks = 64
	groupBytes := groupBlocks * authmem.BlockSize

	rep := eccReport{
		Note: "One entry per shape per ECC codec; baseline columns are the " +
			"secded (Hamming SEC-DED) codec measured live in the same run, so " +
			"speedup_x reads 'vs secded'. kernel.* cover one 4KB group's check " +
			"bits (encode) and clean-path verification; seal.group and read.hot " +
			"go through a full Memory with the codec's implied MAC placement.",
		benchEnv: captureEnv(),
	}

	// secded first: its numbers are every other codec's baseline.
	names := []string{ecc.DefaultBlockCodec}
	for _, n := range ecc.Names() {
		if n != ecc.DefaultBlockCodec {
			names = append(names, n)
		}
	}
	secdedNs := map[string]float64{}

	measure := func(op func(b *testing.B)) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			op(b)
		})
	}
	add := func(shape, codec string, r testing.BenchmarkResult) {
		name := shape + "/" + codec
		e := eccEntry{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if codec == ecc.DefaultBlockCodec {
			secdedNs[shape] = e.NsPerOp
		} else if base := secdedNs[shape]; base > 0 && e.NsPerOp > 0 {
			e.BaselineNs = base
			e.Speedup = base / e.NsPerOp
		}
		rep.Entries = append(rep.Entries, e)
		if e.Speedup > 0 {
			fmt.Printf("  %-28s %10.1f ns/op  %2d allocs/op  (%5.2fx vs secded)\n",
				name, e.NsPerOp, e.AllocsPerOp, e.Speedup)
		} else {
			fmt.Printf("  %-28s %10.1f ns/op  %2d allocs/op\n",
				name, e.NsPerOp, e.AllocsPerOp)
		}
	}

	group := make([]byte, groupBytes)
	rand.New(rand.NewSource(7)).Read(group)

	for _, codec := range names {
		cod, err := ecc.Lookup(codec)
		if err != nil {
			fatal(err)
		}

		switch c := cod.(type) {
		case ecc.BlockCodec:
			check := make([]byte, groupBlocks*c.CheckBytes())
			cb := c.CheckBytes()
			for blk := 0; blk < groupBlocks; blk++ {
				if err := c.EncodeInto(check[blk*cb:(blk+1)*cb], group[blk*authmem.BlockSize:(blk+1)*authmem.BlockSize]); err != nil {
					fatal(err)
				}
			}
			add("kernel.encode4k", codec, measure(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for blk := 0; blk < groupBlocks; blk++ {
						if err := c.EncodeInto(check[blk*cb:(blk+1)*cb], group[blk*authmem.BlockSize:(blk+1)*authmem.BlockSize]); err != nil {
							b.Fatal(err)
						}
					}
				}
			}))
			add("kernel.verify4k", codec, measure(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for blk := 0; blk < groupBlocks; blk++ {
						out, err := c.DecodeAndCorrect(group[blk*authmem.BlockSize:(blk+1)*authmem.BlockSize], check[blk*cb:(blk+1)*cb])
						if err != nil {
							b.Fatal(err)
						}
						if !out.Clean() {
							b.Fatal("clean block flagged")
						}
					}
				}
			}))
		case ecc.MACCodec:
			mk, err := crypto.NewMAC(key[:24])
			if err != nil {
				fatal(err)
			}
			ver, err := c.NewVerifier(mk, 2)
			if err != nil {
				fatal(err)
			}
			lanes := make([]uint64, groupBlocks)
			for blk := 0; blk < groupBlocks; blk++ {
				tag, err := mk.Tag(group[blk*authmem.BlockSize:(blk+1)*authmem.BlockSize], uint64(blk)*authmem.BlockSize, 1)
				if err != nil {
					fatal(err)
				}
				lanes[blk] = c.PackLane(tag, group[blk*authmem.BlockSize:(blk+1)*authmem.BlockSize])
			}
			add("kernel.encode4k", codec, measure(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for blk := 0; blk < groupBlocks; blk++ {
						ct := group[blk*authmem.BlockSize : (blk+1)*authmem.BlockSize]
						tag, err := mk.Tag(ct, uint64(blk)*authmem.BlockSize, 1)
						if err != nil {
							b.Fatal(err)
						}
						lanes[blk] = c.PackLane(tag, ct)
					}
				}
			}))
			add("kernel.verify4k", codec, measure(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for blk := 0; blk < groupBlocks; blk++ {
						_, out, err := ver.VerifyAndCorrect(group[blk*authmem.BlockSize:(blk+1)*authmem.BlockSize], lanes[blk], uint64(blk)*authmem.BlockSize, 1)
						if err != nil {
							b.Fatal(err)
						}
						if !out.OK {
							b.Fatal("clean lane flagged")
						}
					}
				}
			}))
		}

		// Full-engine shapes through the public API, placement implied by
		// the codec family.
		cfg := authmem.DefaultConfig(regionBytes)
		cfg.Key = key
		cfg.ECCCodec = codec
		if cod.CarriesMAC() {
			cfg.Placement = authmem.MACInECC
		} else {
			cfg.Placement = authmem.InlineMAC
		}
		m, err := authmem.New(cfg)
		if err != nil {
			fatal(err)
		}
		add("seal.group", codec, measure(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				addr := (uint64(i) * uint64(groupBytes)) % regionBytes
				if err := m.WriteBlocks(addr, group); err != nil {
					b.Fatal(err)
				}
			}
		}))
		block := make([]byte, authmem.BlockSize)
		if err := m.Write(0, group[:authmem.BlockSize]); err != nil {
			fatal(err)
		}
		add("read.hot", codec, measure(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.Read(0, block); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	if err := stats.WriteJSON(outPath, rep); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", outPath)
}

// Quickstart: create an authenticated encrypted memory, store data, watch
// tampering and replay attacks get caught, and see a memory fault healed.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"crypto/rand"
	"fmt"
	"log"

	"authmem"
	"authmem/adversary"
)

func main() {
	// A 16MB protected region with the paper's recommended design:
	// delta-encoded counters + MAC-in-ECC.
	cfg := authmem.DefaultConfig(16 << 20)
	cfg.Key = make([]byte, authmem.KeySize)
	if _, err := rand.Read(cfg.Key); err != nil {
		log.Fatal(err)
	}
	mem, err := authmem.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Ordinary use: write and read back a block.
	secret := make([]byte, authmem.BlockSize)
	copy(secret, "attack at dawn")
	const addr = 0x2000
	if err := mem.Write(addr, secret); err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, authmem.BlockSize)
	if _, err := mem.Read(addr, buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round trip ok: %q\n", buf[:14])

	// 2. A DRAM fault: one bit flips. The MAC doubles as an ECC code, so
	// the read transparently repairs it. Package adversary reaches every
	// off-chip byte through one address map; data is the block's ciphertext.
	data, err := adversary.LocateAddr(mem, adversary.Data, addr)
	if err != nil {
		log.Fatal(err)
	}
	if err := adversary.FlipBit(mem, data, 42); err != nil {
		log.Fatal(err)
	}
	info, err := mem.Read(addr, buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single-bit fault: corrected %d bit(s) in %d flip-and-check steps\n",
		info.CorrectedDataBits, info.HardwareChecks)

	// 3. Tampering: an attacker rewrites ciphertext wholesale. Too many
	// flips for correction — the read is refused.
	for bit := 0; bit < 48; bit += 3 {
		if err := adversary.FlipBit(mem, data, bit); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := mem.Read(addr, buf); err != nil {
		fmt.Println("tampering detected:", err)
	} else {
		log.Fatal("tampering went undetected!")
	}

	// Restore clean data for the replay demo.
	if err := mem.Write(addr, secret); err != nil {
		log.Fatal(err)
	}

	// 4. Replay: the attacker records the block's off-chip bytes (data,
	// the ECC lane carrying its MAC, its counter block), lets the program
	// overwrite them, then writes the stale bytes back at the same
	// offsets. The Bonsai Merkle tree's on-chip root catches it.
	replayStale, err := record(mem, addr)
	if err != nil {
		log.Fatal(err)
	}
	copy(secret, "retreat at dusk")
	if err := mem.Write(addr, secret); err != nil {
		log.Fatal(err)
	}
	if err := replayStale(); err != nil {
		log.Fatal(err)
	}
	if _, err := mem.Read(addr, buf); err != nil {
		fmt.Println("replay detected:  ", err)
	} else {
		log.Fatal("replay went undetected!")
	}

	// 5. Storage cost of all this protection (Figure 1).
	o, err := authmem.ComputeOverhead(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("metadata overhead: %.2f%% of the protected region (paper baseline: ~22%%)\n",
		o.EncryptionOverheadPct())
}

// record reads the block at addr's ciphertext, ECC lane and counter block off
// the bus; the replay it returns writes them back where they were read.
func record(mem *authmem.Memory, addr uint64) (replay func() error, err error) {
	var phys [3]uint64
	saved := [3][]byte{make([]byte, authmem.BlockSize), make([]byte, 8), make([]byte, authmem.BlockSize)}
	for i, p := range []adversary.Plane{adversary.Data, adversary.Lane, adversary.Counter} {
		if phys[i], err = adversary.LocateAddr(mem, p, addr); err == nil {
			err = adversary.ReadRaw(mem, phys[i], saved[i])
		}
		if err != nil {
			return nil, err
		}
	}
	return func() (err error) {
		for i := 0; i < len(phys) && err == nil; i++ {
			err = adversary.WriteRaw(mem, phys[i], saved[i])
		}
		return err
	}, nil
}

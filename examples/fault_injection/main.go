// Fault injection: a cold-boot / failing-DIMM scenario over the MAC-in-ECC
// memory, showing §3.3's patrol scrubbing (cheap parity screen, targeted
// repair) and the flip-and-check correction budget, compared against the
// SEC-DED baseline.
//
// Run with:
//
//	go run ./examples/fault_injection
package main

import (
	"crypto/rand"
	"fmt"
	"log"
	mrand "math/rand"

	"authmem"
	"authmem/adversary"
)

const blocks = 2048

func build(placement authmem.MACPlacement) *authmem.Memory {
	cfg := authmem.DefaultConfig(blocks * authmem.BlockSize)
	cfg.Placement = placement
	cfg.Key = make([]byte, authmem.KeySize)
	if _, err := rand.Read(cfg.Key); err != nil {
		log.Fatal(err)
	}
	mem, err := authmem.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	data := make([]byte, authmem.BlockSize)
	for i := uint64(0); i < blocks; i++ {
		mrand.New(mrand.NewSource(int64(i))).Read(data)
		if err := mem.Write(i*authmem.BlockSize, data); err != nil {
			log.Fatal(err)
		}
	}
	return mem
}

func main() {
	mem := build(authmem.MACInECC)

	// A failing DIMM sprays single-bit faults over 1% of blocks.
	rng := mrand.New(mrand.NewSource(7))
	faulted := map[uint64]bool{}
	for len(faulted) < blocks/100 {
		b := uint64(rng.Intn(blocks))
		if faulted[b] {
			continue
		}
		faulted[b] = true
		flipData(mem, b*authmem.BlockSize, rng.Intn(512))
	}
	fmt.Printf("injected single-bit faults into %d of %d blocks\n", len(faulted), blocks)

	// The patrol scrubber screens every block with the 1-bit parity and
	// repairs what it flags — without recomputing MACs for clean blocks.
	rep, err := mem.Scrub()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scrub pass: %d scanned, %d flagged by parity, %d corrected, %d uncorrectable\n",
		rep.BlocksScanned, rep.ParityFlagged, rep.Corrected, rep.Uncorrectable)

	// Everything reads clean afterwards.
	buf := make([]byte, authmem.BlockSize)
	var corrections int
	for i := uint64(0); i < blocks; i++ {
		info, err := mem.Read(i*authmem.BlockSize, buf)
		if err != nil {
			log.Fatalf("block %d unreadable after scrub: %v", i, err)
		}
		corrections += info.CorrectedDataBits
	}
	fmt.Printf("full readback clean; %d residual corrections needed\n", corrections)

	// Now the case SEC-DED cannot handle: two flips landing in one
	// 8-byte word (e.g. a failing column pair).
	victim := uint64(100) * authmem.BlockSize
	flipData(mem, victim, 8*8+3)  // word 1, bit 3
	flipData(mem, victim, 8*8+19) // word 1, bit 19
	info, err := mem.Read(victim, buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("double fault in one word: MAC-in-ECC corrected %d bits (%d flip-and-check steps)\n",
		info.CorrectedDataBits, info.HardwareChecks)

	// The same fault against the SEC-DED baseline is detected but NOT
	// correctable: the read is refused.
	base := build(authmem.InlineMAC)
	flipData(base, victim, 8*8+3)
	flipData(base, victim, 8*8+19)
	if _, err := base.Read(victim, buf); err != nil {
		fmt.Println("same fault on SEC-DED baseline:", err)
	} else {
		log.Fatal("SEC-DED silently accepted a double fault!")
	}
}

// flipData flips one stored ciphertext bit of the block at addr, as a
// failing DRAM cell would, through the off-chip attack surface.
func flipData(mem *authmem.Memory, addr uint64, bit int) {
	phys, err := adversary.LocateAddr(mem, adversary.Data, addr)
	if err == nil {
		err = adversary.FlipBit(mem, phys, bit)
	}
	if err != nil {
		log.Fatal(err)
	}
}

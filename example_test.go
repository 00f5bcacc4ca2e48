package authmem_test

import (
	"bytes"
	"fmt"

	"authmem"
)

func demoKey() []byte {
	k := make([]byte, authmem.KeySize)
	for i := range k {
		k[i] = byte(i + 1)
	}
	return k
}

// Example shows the basic write/verify/read cycle.
func Example() {
	cfg := authmem.DefaultConfig(1 << 20) // 1MB protected region
	cfg.Key = demoKey()
	mem, err := authmem.New(cfg)
	if err != nil {
		panic(err)
	}

	block := make([]byte, authmem.BlockSize)
	copy(block, "hello, untrusted DRAM")
	if err := mem.Write(0x1000, block); err != nil {
		panic(err)
	}

	out := make([]byte, authmem.BlockSize)
	if _, err := mem.Read(0x1000, out); err != nil {
		panic(err)
	}
	fmt.Println(string(out[:21]))
	// Output: hello, untrusted DRAM
}

// ExampleMemory_FlipDataBit shows a DRAM fault being healed by the
// MAC-in-ECC flip-and-check corrector.
func ExampleMemory_FlipDataBit() {
	cfg := authmem.DefaultConfig(1 << 20)
	cfg.Key = demoKey()
	mem, _ := authmem.New(cfg)

	mem.Write(0, bytes.Repeat([]byte{0xAB}, authmem.BlockSize))
	mem.FlipDataBit(0, 137) // a cosmic ray

	out := make([]byte, authmem.BlockSize)
	info, err := mem.Read(0, out)
	fmt.Println(err, info.CorrectedDataBits, out[17] == 0xAB)
	// Output: <nil> 1 true
}

// ExampleComputeOverhead reproduces the paper's headline storage numbers.
func ExampleComputeOverhead() {
	proposed := authmem.DefaultConfig(512 << 20)
	proposed.Key = demoKey()
	baseline := proposed
	baseline.Scheme = authmem.Monolithic
	baseline.Placement = authmem.InlineMAC

	b, _ := authmem.ComputeOverhead(baseline)
	p, _ := authmem.ComputeOverhead(proposed)
	fmt.Printf("baseline %.1f%%, proposed %.1f%%\n",
		b.EncryptionOverheadPct(), p.EncryptionOverheadPct())
	// Output: baseline 23.7%, proposed 1.8%
}

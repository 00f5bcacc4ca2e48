package adversary_test

import (
	"fmt"

	"authmem"
	"authmem/adversary"
)

// Example_replay shows the rollback attack the integrity tree exists to
// stop: the attacker records a block's ciphertext, its MAC-carrying ECC lane
// and its counter block, lets the owner overwrite them, then writes the
// stale bytes back at the same offsets.
func Example_replay() {
	cfg := authmem.DefaultConfig(1 << 20)
	cfg.Key = make([]byte, authmem.KeySize)
	mem, _ := authmem.New(cfg)

	mem.Write(0, []byte("v1 — old password..............................................")[:64])
	type elem struct {
		plane adversary.Plane
		phys  uint64
		bytes []byte
	}
	stale := []elem{
		{plane: adversary.Data, bytes: make([]byte, authmem.BlockSize)},
		{plane: adversary.Lane, bytes: make([]byte, 8)},
		{plane: adversary.Counter, bytes: make([]byte, authmem.BlockSize)},
	}
	for i := range stale { // the attacker records DRAM
		stale[i].phys, _ = adversary.LocateAddr(mem, stale[i].plane, 0)
		adversary.ReadRaw(mem, stale[i].phys, stale[i].bytes)
	}
	mem.Write(0, []byte("v2 — new password..............................................")[:64])
	for _, el := range stale { // and restores the stale bytes
		adversary.WriteRaw(mem, el.phys, el.bytes)
	}

	out := make([]byte, authmem.BlockSize)
	_, err := mem.Read(0, out)
	_, isIntegrityError := err.(*authmem.IntegrityError)
	fmt.Println(isIntegrityError)
	// Output: true
}

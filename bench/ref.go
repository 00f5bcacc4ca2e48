package main

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
)

// The reference kernel is the benchmark's yardstick: a frozen mix of
// standard-library work run right beside every work slice, so that a timing
// can be reported as a multiple of "one reference iteration" instead of in
// microseconds of a host whose speed drifts by 10 % between runs. It uses
// only the standard library — never repository code — so no later change to
// the repository can move it. Do not edit it: every committed number is in
// its units.
//
// One iteration is AES-128 over 1 KiB, SHA-256 over 256 B, and `loads`
// dependent random loads in a 32 MiB table. The compute part tracks how fast
// the host runs cache-resident code; the loads track how fast it serves
// cache misses, and each workload picks the mix (refLoads) that follows its
// own drift best.

const (
	refTableWords = 8 << 20 // 32 MiB of uint32
	refAESBytes   = 1024
	refSHABytes   = 256
)

// refTable is a single-cycle permutation (Sattolo), so a chain of dependent
// loads never falls into a short loop. Built once per process, read-only.
func newRefTable() []uint32 {
	t := make([]uint32, refTableWords)
	for i := range t {
		t[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(0x5eed))
	for i := len(t) - 1; i > 0; i-- {
		j := rng.Intn(i)
		t[i], t[j] = t[j], t[i]
	}
	return t
}

// refKernel is one caller's private reference state over the shared table.
type refKernel struct {
	table []uint32
	loads int
	blk   cipher.Block
	aes   [refAESBytes]byte
	sha   [refSHABytes]byte
	idx   uint32
}

func newRefKernel(table []uint32, loads int, caller int) *refKernel {
	blk, err := aes.NewCipher([]byte("stackbench-ref-k"))
	if err != nil {
		panic(err) // 16-byte literal key
	}
	return &refKernel{table: table, loads: loads, blk: blk, idx: uint32(caller*7919 + 1)}
}

// run executes n reference iterations. Each stage feeds the next so the
// compiler and the CPU must do all of it in order.
func (r *refKernel) run(n int) {
	for ; n > 0; n-- {
		for off := 0; off < refAESBytes; off += aes.BlockSize {
			r.blk.Encrypt(r.aes[off:off+aes.BlockSize], r.aes[off:off+aes.BlockSize])
		}
		copy(r.sha[:aes.BlockSize], r.aes[:aes.BlockSize])
		sum := sha256.Sum256(r.sha[:])
		copy(r.sha[refSHABytes-sha256.Size:], sum[:])
		idx := (r.idx ^ binary.LittleEndian.Uint32(sum[:])) % refTableWords
		for l := 0; l < r.loads; l++ {
			idx = r.table[idx]
		}
		r.idx = idx
		r.aes[0] ^= byte(idx)
	}
}

// refItersPerSlice sizes a reference slice to at least ~3 ms on the sizing
// host for each load count; the count is fixed so a slice is the same work
// on every host.
func refItersPerSlice(loads int) int {
	switch {
	case loads == 0:
		return 2400
	case loads <= 2:
		return 2000
	default:
		return 1400
	}
}

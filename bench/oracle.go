package main

import (
	"encoding/binary"

	"authmem"
)

const blockBytes = authmem.BlockSize

// oracle knows what every block must hold without keeping a copy of the
// region: a block's contents are PRF(seed, addr, version), and the only
// state is one version number per block (4 bytes per 64, at most 10.5 MiB
// for the largest workload). Version 0 means "never written". Callers own
// disjoint block ranges, so the table needs no lock.
type oracle struct {
	seed uint64
	ver  []uint32
}

func newOracle(seed uint64, regionBytes uint64) *oracle {
	return &oracle{seed: seed, ver: make([]uint32, regionBytes/blockBytes)}
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (o *oracle) word(addr uint64, ver uint32, i int) uint64 {
	return mix64(o.seed ^ mix64(addr<<3|uint64(i)) ^ uint64(ver)<<32)
}

// payloadAt fills dst with what the blocks at addr hold at version ver.
func (o *oracle) payloadAt(dst []byte, addr uint64, ver uint32) {
	for off := 0; off < len(dst); off += 8 {
		a := addr + uint64(off)
		binary.LittleEndian.PutUint64(dst[off:], o.word(a&^(blockBytes-1), ver, int(a%blockBytes/8)))
	}
}

// nextPayload bumps the version of every block in [addr, addr+len(dst)) and
// fills dst with the contents those blocks must hold after the write.
func (o *oracle) nextPayload(dst []byte, addr uint64) {
	for off := 0; off < len(dst); off += blockBytes {
		a := addr + uint64(off)
		o.ver[a/blockBytes]++
		o.payloadAt(dst[off:off+blockBytes], a, o.ver[a/blockBytes])
	}
}

// versions appends the current version of each of the n blocks at addr.
func (o *oracle) versions(dst []uint32, addr uint64, n int) []uint32 {
	first := addr / blockBytes
	return append(dst, o.ver[first:first+uint64(n)]...)
}

// matches reports whether data is what the blocks at addr held at the given
// versions (one per block).
func (o *oracle) matches(data []byte, addr uint64, vers []uint32) bool {
	for b, v := range vers {
		a := addr + uint64(b*blockBytes)
		blk := data[b*blockBytes : (b+1)*blockBytes]
		for i := 0; i < blockBytes/8; i++ {
			want := uint64(0)
			if v != 0 {
				want = o.word(a, v, i)
			}
			if binary.LittleEndian.Uint64(blk[8*i:]) != want {
				return false
			}
		}
	}
	return true
}

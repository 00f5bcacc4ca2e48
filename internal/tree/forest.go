// Forest: the sharded engine's combining layer.
//
// A sharded memory partitions the protected region into N shards, each with
// its own Bonsai Merkle subtree whose trusted top level lives in that
// shard's SRAM. The forest is the tiny on-chip function above them:
// CombineRoots hashes the N subtree roots (each a Tree.TopDigest) into one
// combined digest, so the whole memory's freshness is still pinned by a
// single trusted value (for persist/resume and attestation) while every
// per-access tree walk stays inside one shard — no cross-shard
// synchronization on the hot path.
//
// This is exactly how split-counter and BMT designs scale metadata: the
// partitioning is by address range, the per-partition structures are
// independent, and only a constant-size trusted summary spans them.
package tree

import (
	"crypto/sha256"
	"encoding/binary"
)

// forestDomain separates the combined digest's hash domain from raw
// top-level digests, so a 1-shard combined root equals the shard root (v1
// image compatibility) but multi-shard roots can never collide with any
// single shard's.
const forestDomain = "authmem/forest/v1\x00"

// CombineRoots hashes per-shard root digests into the forest's single
// trusted digest. With one shard the digest passes through unchanged, so a
// single-shard forest pins images exactly as the monolithic engine does.
func CombineRoots(shardRoots [][sha256.Size]byte) [sha256.Size]byte {
	if len(shardRoots) == 1 {
		return shardRoots[0]
	}
	// The message is assembled in a stack buffer sized for 16 roots (the
	// sharded engine's range), so a root export allocates nothing; a
	// cluster attestation over more nodes spills to the heap.
	var buf [len(forestDomain) + 4 + 16*sha256.Size]byte
	msg := append(buf[:0], forestDomain...)
	msg = binary.LittleEndian.AppendUint32(msg, uint32(len(shardRoots)))
	for i := range shardRoots {
		msg = append(msg, shardRoots[i][:]...)
	}
	return sha256.Sum256(msg)
}

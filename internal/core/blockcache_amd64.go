//go:build amd64 && !race

package core

// publishLine stores gen+1, tag, epoch, the eight plaintext words of pt and
// gen+2 into e with plain MOVQs, in that order (blockcache_amd64.s). On
// x86-64 that order is the order every other core observes, which is all
// the seqlock needs; the caller holds the lock that orders writers.
//
//go:noescape
func publishLine(e *blockCacheEntry, gen, tag, epoch uint64, pt *[BlockBytes]byte)

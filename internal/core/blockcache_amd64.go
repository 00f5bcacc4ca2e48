//go:build amd64 && !race

package core

// publishLine stores gen+1, tag, epoch, the eight plaintext words of pt and
// gen+2 into e with plain MOVQs, in that order (blockcache_amd64.s). On
// x86-64 that order is the order every other core observes, which is all
// the seqlock needs; the caller holds the lock that orders writers.
//
//go:noescape
func publishLine(e *blockCacheEntry, gen, tag, epoch uint64, pt *[BlockBytes]byte)

// probeSpan is probeSpanGeneric as one kernel (blockcache_amd64.s): per
// block a generation load, the tag and epoch checks, four 16-byte payload
// loads into registers and the generation re-load, and only then four
// 16-byte stores into dst. x86-64 keeps loads in program order, so the
// re-load sees any writer whose store the payload loads saw.
//
//go:noescape
func probeSpan(c *blockCache, blk uint64, dst []byte) (served int, retries uint64)

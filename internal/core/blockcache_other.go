//go:build !amd64 || race

package core

// publishLine is the Go body off amd64, where stores need not become
// visible in program order, and under the race detector, which checks the
// seqlock only on the instrumented atomics.
func publishLine(e *blockCacheEntry, gen, tag, epoch uint64, pt *[BlockBytes]byte) {
	publishLineGeneric(e, gen, tag, epoch, pt)
}

// probeSpan is the Go body off amd64 and under the race detector, for the
// same reasons as publishLine.
func probeSpan(c *blockCache, blk uint64, dst []byte) (served int, retries uint64) {
	return probeSpanGeneric(c, blk, dst)
}

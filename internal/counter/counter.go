// Package counter snapshots and merges event-count banks: structs whose
// fields are all uint64 (EngineStats, ServerCounters, client and cluster
// Stats). A bank is its own live form. Hot paths bump a field with
// atomic.AddUint64(&bank.Field, n); Load reads the bank word by word, and Sum
// merges snapshots, so no layer keeps a hand-written copy of its field list.
//
// A live bank must be the first field of the struct that owns it, so its
// words are 64-bit aligned on 32-bit targets too (sync/atomic's rule).
// TestEveryFieldBanked checks that every banked type has only uint64 fields.
package counter

import (
	"sync/atomic"
	"unsafe"
)

// words views *s as its sequence of uint64 fields.
func words[S any](s *S) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(s)), unsafe.Sizeof(*s)/8)
}

// Load returns a copy of the live bank, each field read atomically. The copy
// as a whole is not one linearization point: fields bumped while it is taken
// may or may not be in it, the usual contract for live counters.
func Load[S any](live *S) S {
	var out S
	dst, src := words(&out), words(live)
	for i := range src {
		dst[i] = atomic.LoadUint64(&src[i])
	}
	return out
}

// Sum adds each field of src into dst.
func Sum[S any](dst *S, src S) {
	d, s := words(dst), words(&src)
	for i := range d {
		d[i] += s[i]
	}
}

package tree

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
)

// Serialization of tree node storage, for persistent (NVMM) memories.
//
// Trust note: everything below the top level is ordinary off-chip state —
// an attacker editing it cannot forge a consistent tree without the MAC
// key. The top level, however, is the freshness root: if it is stored on
// the same untrusted medium, an attacker can roll the *entire* memory back
// to an older snapshot. Deployments must either keep the top level in
// trusted storage or check it against an externally attested digest; the
// engine layer (internal/core) surfaces exactly that hook.

// WriteTo serializes the node levels. It implements io.WriterTo.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	var written int64
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(t.levels)))
	n, err := w.Write(hdr[:])
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("tree: %w", err)
	}
	for k, level := range t.levels {
		binary.LittleEndian.PutUint64(hdr[:], uint64(len(level)))
		n, err := w.Write(hdr[:])
		written += int64(n)
		if err != nil {
			return written, fmt.Errorf("tree: level %d: %w", k, err)
		}
		n, err = w.Write(level)
		written += int64(n)
		if err != nil {
			return written, fmt.Errorf("tree: level %d: %w", k, err)
		}
	}
	return written, nil
}

// ReadFrom restores node levels serialized by WriteTo into a tree that was
// constructed with the same geometry (key, leaf count, on-chip budget).
// It implements io.ReaderFrom.
func (t *Tree) ReadFrom(r io.Reader) (int64, error) {
	var read int64
	var hdr [8]byte
	t.topValid = false
	n, err := io.ReadFull(r, hdr[:])
	read += int64(n)
	if err != nil {
		return read, fmt.Errorf("tree: %w", err)
	}
	if got := binary.LittleEndian.Uint64(hdr[:]); got != uint64(len(t.levels)) {
		return read, fmt.Errorf("tree: serialized %d levels, geometry has %d", got, len(t.levels))
	}
	for k := range t.levels {
		n, err := io.ReadFull(r, hdr[:])
		read += int64(n)
		if err != nil {
			return read, fmt.Errorf("tree: level %d: %w", k, err)
		}
		if got := binary.LittleEndian.Uint64(hdr[:]); got != uint64(len(t.levels[k])) {
			return read, fmt.Errorf("tree: level %d size %d, geometry wants %d",
				k, got, len(t.levels[k]))
		}
		n, err = io.ReadFull(r, t.levels[k])
		read += int64(n)
		if err != nil {
			return read, fmt.Errorf("tree: level %d: %w", k, err)
		}
	}
	return read, nil
}

// TopLevel returns a copy of the trusted top-level node bytes — the
// freshness root a persistent deployment must attest (e.g. by digest in
// trusted NVM).
func (t *Tree) TopLevel() []byte {
	top := t.levels[len(t.levels)-1]
	out := make([]byte, len(top))
	copy(out, top)
	return out
}

// TopDigest returns the SHA-256 of the trusted top level — the same value
// as sha256.Sum256(t.TopLevel()) — from a cache that only a write to that
// level invalidates. The paper keeps this level on chip so that freshness
// is a cheap on-chip check; the cache is what keeps exporting it cheap too:
// a caller that pins every response to the root hashes nothing while the
// tree is unchanged, and 3KB once after a flush changed it.
func (t *Tree) TopDigest() [sha256.Size]byte {
	if !t.topValid {
		t.topDigest = sha256.Sum256(t.levels[len(t.levels)-1])
		t.topValid = true
	}
	return t.topDigest
}

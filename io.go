package authmem

import (
	"fmt"
	"io"
)

// This file provides byte-granular access over the block-granular device,
// implementing io.ReaderAt and io.WriterAt. Hardware works in 64-byte
// blocks; software rarely does. Unaligned writes perform verified
// read-modify-write on the boundary blocks, exactly as a memory controller
// handles partial-line writes; the aligned interior of a transfer goes
// through the batched ReadBlocks/WriteBlocks path, which verifies and
// commits counter metadata once per covering metadata block instead of once
// per data block.

var (
	_ io.ReaderAt = (*Memory)(nil)
	_ io.WriterAt = (*Memory)(nil)
)

// ReadAt reads len(p) bytes starting at byte offset off, verifying and
// decrypting every touched block; cross-shard spans fan out concurrently. It
// implements io.ReaderAt: a read that runs past Size() returns the bytes
// before the end of the region with io.EOF.
func (m *Memory) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("authmem: negative offset %d", off)
	}
	rest := int64(m.Size()) - off
	if rest <= 0 {
		return 0, io.EOF
	}
	var atEnd error
	if int64(len(p)) > rest {
		p, atEnd = p[:rest], io.EOF
	}
	var block [BlockSize]byte
	n := 0
	// Leading partial block.
	if start := uint64(off) % BlockSize; start != 0 && n < len(p) {
		addr := uint64(off) &^ (BlockSize - 1)
		if _, err := m.Read(addr, block[:]); err != nil {
			return n, err
		}
		n += copy(p, block[start:])
	}
	// Aligned interior, batched.
	if full := (len(p) - n) &^ (BlockSize - 1); full > 0 {
		if err := m.ReadBlocks(uint64(off)+uint64(n), p[n:n+full]); err != nil {
			return n, err
		}
		n += full
	}
	// Trailing partial block.
	if n < len(p) {
		addr := uint64(off) + uint64(n)
		if _, err := m.Read(addr, block[:]); err != nil {
			return n, err
		}
		n += copy(p[n:], block[:])
	}
	return n, atEnd
}

// WriteAt writes len(p) bytes starting at byte offset off. Boundary blocks
// are read, verified, merged, and re-encrypted; the fully covered interior
// is written through the batched path, cross-shard spans fanning out
// concurrently. The boundary read-modify-write and the interior span are
// separate operations, so a concurrent writer to the same bytes can
// interleave between them — the usual WriterAt contract for overlapping
// writers. A write that runs past Size() is an error. It implements
// io.WriterAt.
func (m *Memory) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("authmem: negative offset %d", off)
	}
	var block [BlockSize]byte
	n := 0
	// Leading partial block: read-modify-write.
	if start := uint64(off) % BlockSize; start != 0 && n < len(p) {
		addr := uint64(off) &^ (BlockSize - 1)
		if _, err := m.Read(addr, block[:]); err != nil {
			return n, err
		}
		span := copy(block[start:], p)
		if err := m.Write(addr, block[:]); err != nil {
			return n, err
		}
		n += span
	}
	// Aligned interior, batched.
	if full := (len(p) - n) &^ (BlockSize - 1); full > 0 {
		if err := m.WriteBlocks(uint64(off)+uint64(n), p[n:n+full]); err != nil {
			return n, err
		}
		n += full
	}
	// Trailing partial block: read-modify-write.
	if n < len(p) {
		addr := uint64(off) + uint64(n)
		if _, err := m.Read(addr, block[:]); err != nil {
			return n, err
		}
		span := copy(block[:], p[n:])
		if err := m.Write(addr, block[:]); err != nil {
			return n, err
		}
		n += span
	}
	return n, nil
}

package core

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"

	"authmem/internal/tree"
)

// Sharded NVMM image format (version 2).
//
// A v2 image is a small header followed by the complete v1 engine image of
// every shard, in shard order:
//
//	magic "AMEMPST2" | u64 shardCount | shard0 v1 image | shard1 v1 image | ...
//
// Each section is exactly what Engine.Persist writes, so a shard restores
// through the ordinary Resume path with its ordinary per-counter-block tree
// verification. The trusted digest returned by PersistSharded pins the
// COMBINED root (tree.CombineRoots over the per-shard roots), so resuming
// with a pinned root detects rollback of any single shard section, not just
// of the whole file.
//
// A one-shard engine writes, and resumes from, a bare v1 image — the
// single-shard configuration derives no keys and combines no roots, so it is
// bit-compatible with a lone Engine and its images.

// persistMagic2 identifies sharded engine images (format version 2).
var persistMagic2 = [8]byte{'A', 'M', 'E', 'M', 'P', 'S', 'T', '2'}

// Persist writes the sharded engine's full state to w and returns the
// combined root digest. All shards are locked for a consistent snapshot.
func (s *ShardedEngine) Persist(w io.Writer) (RootDigest, error) {
	var digest RootDigest
	for _, sh := range s.shards {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	if len(s.shards) == 1 {
		// Bit-compatible with the monolithic format; the combined root
		// is the shard root.
		return s.shards[0].eng.Persist(w)
	}
	// Engine.Persist wraps its writer in bufio.NewWriter, which passes an
	// existing *bufio.Writer of sufficient size through unchanged — so the
	// per-shard sections land back-to-back on this one buffered stream.
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(persistMagic2[:]); err != nil {
		return digest, err
	}
	if err := writeU64(bw, uint64(len(s.shards))); err != nil {
		return digest, err
	}
	roots := make([][sha256.Size]byte, len(s.shards))
	for i, sh := range s.shards {
		r, err := sh.eng.Persist(bw)
		if err != nil {
			return digest, fmt.Errorf("core: persisting shard %d: %w", i, err)
		}
		roots[i] = r
	}
	digest = tree.CombineRoots(roots)
	return digest, bw.Flush()
}

// resumeSections is the one image-header parser: it resumes every shard's
// section of a persisted image, unpinned — callers pin the combined root. A
// v1 image is a single headerless section and only fits shards == 1; a v2
// image must hold exactly shards sections.
func resumeSections(cfg Config, shards int, r io.Reader) ([]*Engine, error) {
	if err := ValidateShards(cfg, shards); err != nil {
		return nil, err
	}
	if cfg.DisableEncryption {
		return nil, fmt.Errorf("core: cannot resume with encryption disabled")
	}
	// Engine.Resume wraps its reader in bufio.NewReader, which passes an
	// existing *bufio.Reader of sufficient size through unchanged — each
	// shard section is consumed exactly, leaving the stream positioned at
	// the next one.
	br := bufio.NewReaderSize(r, 1<<16)
	magic, err := br.Peek(8)
	if err != nil {
		return nil, fmt.Errorf("core: reading image header: %w", err)
	}
	switch [8]byte(magic) {
	case persistMagic:
		if shards != 1 {
			return nil, fmt.Errorf("core: v1 image holds one shard, config asks for %d", shards)
		}
	case persistMagic2:
		if _, err := br.Discard(8); err != nil {
			return nil, err
		}
		gotShards, err := readU64(br)
		if err != nil {
			return nil, err
		}
		if gotShards != uint64(shards) {
			return nil, fmt.Errorf("core: image holds %d shards, config asks for %d", gotShards, shards)
		}
	default:
		return nil, fmt.Errorf("core: not an engine image")
	}
	engines := make([]*Engine, shards)
	for i := range engines {
		eng, err := Resume(shardConfig(cfg, shards, i), br, nil)
		if err != nil {
			return nil, fmt.Errorf("core: resuming shard %d: %w", i, err)
		}
		engines[i] = eng
	}
	return engines, nil
}

// ResumeSharded rebuilds a sharded engine from a persisted image. cfg and
// shards must match the persisting configuration. If expectRoot is non-nil,
// the combined root recomputed from the restored shards must equal it —
// the rollback defense, covering per-shard-section rollback too.
func ResumeSharded(cfg Config, shards int, r io.Reader, expectRoot *RootDigest) (*ShardedEngine, error) {
	engines, err := resumeSections(cfg, shards, r)
	if err != nil {
		return nil, err
	}
	if expectRoot != nil {
		roots := make([][sha256.Size]byte, shards)
		for i, eng := range engines {
			roots[i] = eng.RootDigest()
		}
		if tree.CombineRoots(roots) != *expectRoot {
			return nil, &IntegrityError{
				Reason: "persistent image combined root digest mismatch (rollback or corruption)",
				Stage:  StageResume,
			}
		}
	}
	return wrapShards(cfg, engines), nil
}

package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"

	"authmem/internal/ctr"
)

// Persistence for non-volatile main memory (§2.2): the encrypted region,
// its ECC/MAC bits, the counter blocks, and the integrity tree survive
// power-off exactly as they would in NVMM, and Resume rebuilds a working
// engine from them — verifying every counter block against the tree before
// accepting it.
//
// Threat model on resume: everything in the image is untrusted EXCEPT that
// the caller may pin the freshness root by passing the RootDigest returned
// at persist time (stored in trusted NVM / a TPM in a real deployment).
// Without the pin, an attacker who controls the storage can roll the whole
// memory back to an older complete snapshot — the one attack no integrity
// tree can stop from inside the untrusted medium.

// persistMagic identifies engine images (format version 1).
var persistMagic = [8]byte{'A', 'M', 'E', 'M', 'P', 'S', 'T', '1'}

// maxCodecNameLen bounds the codec-name field so a corrupted length prefix
// cannot drive a huge allocation.
const maxCodecNameLen = 64

// CodecMismatchError reports a persisted image whose check bytes were
// written under a different ECC codec than the resuming configuration
// selects. The image is well-formed; it is the configuration that must
// change (or the image be re-persisted) — decoding anyway would misread
// every block's check storage.
type CodecMismatchError struct {
	// ImageCodec is the codec recorded in the image header.
	ImageCodec string
	// ConfigCodec is the codec the resuming configuration resolved.
	ConfigCodec string
}

// Error implements error.
func (e *CodecMismatchError) Error() string {
	return fmt.Sprintf("core: image was persisted under ECC codec %q but configuration selects %q", e.ImageCodec, e.ConfigCodec)
}

// RootDigest pins the integrity tree's trusted top level.
type RootDigest [sha256.Size]byte

// Persist writes the engine's DRAM-visible state to w and returns the
// digest of the tree's trusted top level.
func (e *Engine) Persist(w io.Writer) (RootDigest, error) {
	var digest RootDigest
	if e.cfg.DisableEncryption {
		return digest, fmt.Errorf("core: nothing meaningful to persist with encryption disabled")
	}
	// Deferred Merkle maintenance must land before any state leaves the
	// trust boundary: the image and its digest cover every accepted write.
	if err := e.Flush(); err != nil {
		return digest, err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(persistMagic[:]); err != nil {
		return digest, err
	}

	// Config fingerprint, so Resume can reject mismatched geometry.
	hdr := []uint64{
		uint64(e.cfg.Scheme), uint64(e.cfg.Placement), e.cfg.RegionBytes,
		uint64(e.cfg.CorrectBits), uint64(e.cfg.OnChipTreeBytes),
		boolU64(e.cfg.DataTree),
	}
	for _, v := range hdr {
		if err := writeU64(bw, v); err != nil {
			return digest, err
		}
	}
	// Codec ID (length-prefixed name): the codec defines the stored check
	// format, so resuming under a different codec must fail closed, not
	// misdecode — see Resume.
	codecName := e.codec.Name()
	if err := writeU64(bw, uint64(len(codecName))); err != nil {
		return digest, err
	}
	if _, err := bw.WriteString(codecName); err != nil {
		return digest, err
	}

	// Data blocks. Arena iteration is ascending by block index, so the
	// image is deterministic without an explicit sort.
	if err := writeU64(bw, uint64(e.store.Len())); err != nil {
		return digest, err
	}
	// Each entry is framed in one reused buffer and written once: a u64
	// handed to the io.Writer on its own escapes, one heap object per field.
	entry := make([]byte, 0, 8+BlockBytes+8+e.store.checkBytes)
	var werr error
	e.store.forEach(func(blk uint64, ct []byte, meta *uint64, check []byte) {
		if werr != nil {
			return
		}
		entry = binary.LittleEndian.AppendUint64(entry[:0], blk)
		entry = append(entry, ct...)
		entry = binary.LittleEndian.AppendUint64(entry, *meta)
		if e.cfg.Placement == MACInline {
			entry = append(entry, check...)
		}
		_, werr = bw.Write(entry)
	})
	if werr != nil {
		return digest, werr
	}

	// Counter-block images, likewise in ascending order.
	if err := writeU64(bw, uint64(e.images.Len())); err != nil {
		return digest, err
	}
	e.images.forEach(func(midx uint64, img []byte) {
		if werr != nil {
			return
		}
		entry = append(binary.LittleEndian.AppendUint64(entry[:0], midx), img...)
		_, werr = bw.Write(entry)
	})
	if werr != nil {
		return digest, werr
	}

	// Integrity tree (all levels; the top level is additionally pinned
	// by the returned digest).
	if _, err := e.tr.WriteTo(bw); err != nil {
		return digest, err
	}
	digest = e.RootDigest()
	return digest, bw.Flush()
}

// RootDigest returns the digest pinning the tree's current trusted top
// level — what Persist returns, available without serializing the image.
// The sharded combining layer hashes these per-shard digests into one root.
// An exported root must reflect every accepted write, so any deferred
// Merkle maintenance is flushed first. Cost: the flush (nothing when no
// write landed since the last one) plus the tree's cached top-level digest,
// which is re-hashed only after a flush changed that level — on an engine
// nothing has written to since the last call, RootDigest is a 32-byte copy.
func (e *Engine) RootDigest() RootDigest {
	if err := e.Flush(); err != nil {
		// Flush fails only on structural tree errors, which the engine's
		// fixed geometry rules out.
		panic(err)
	}
	return e.tr.TopDigest()
}

// Resume rebuilds an engine from a persisted image. cfg must match the
// persisting configuration (including the key material, which is never
// stored). If expectRoot is non-nil, the restored tree's top level must
// hash to it — this is the rollback defense; see the package comment.
// Every counter block in the image is verified against the tree before the
// engine accepts it.
func Resume(cfg Config, r io.Reader, expectRoot *RootDigest) (*Engine, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.DisableEncryption {
		return nil, fmt.Errorf("core: cannot resume with encryption disabled")
	}
	br := bufio.NewReader(r)

	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading image header: %w", err)
	}
	if magic != persistMagic {
		return nil, fmt.Errorf("core: not an engine image")
	}
	want := []uint64{
		uint64(cfg.Scheme), uint64(cfg.Placement), cfg.RegionBytes,
		uint64(cfg.CorrectBits), uint64(cfg.OnChipTreeBytes),
		boolU64(cfg.DataTree),
	}
	for i, w := range want {
		got, err := readU64(br)
		if err != nil {
			return nil, err
		}
		if got != w {
			return nil, fmt.Errorf("core: image config field %d is %d, config says %d", i, got, w)
		}
	}

	// Codec ID: a mismatched codec means the check bytes on disk are in a
	// different format (different stride, different guarantees). Resuming
	// anyway would misdecode every block, so this fails closed with a
	// typed error callers can distinguish from corruption.
	nameLen, err := readU64(br)
	if err != nil {
		return nil, err
	}
	if nameLen > maxCodecNameLen {
		return nil, fmt.Errorf("core: image codec name length %d implausible", nameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return nil, fmt.Errorf("core: truncated image: %w", err)
	}
	if got, want := string(nameBuf), e.codec.Name(); got != want {
		return nil, &CodecMismatchError{ImageCodec: got, ConfigCodec: want}
	}

	nBlocks, err := readU64(br)
	if err != nil {
		return nil, err
	}
	if nBlocks > cfg.DataBlocks() {
		return nil, fmt.Errorf("core: image claims %d blocks, region holds %d", nBlocks, cfg.DataBlocks())
	}
	for i := uint64(0); i < nBlocks; i++ {
		blk, err := readU64(br)
		if err != nil {
			return nil, err
		}
		if blk >= cfg.DataBlocks() {
			return nil, fmt.Errorf("core: image block %d out of region", blk)
		}
		if _, err := io.ReadFull(br, e.store.Materialize(blk)); err != nil {
			return nil, err
		}
		meta, err := readU64(br)
		if err != nil {
			return nil, err
		}
		e.store.SetMeta(blk, meta)
		if cfg.Placement == MACInline {
			if _, err := io.ReadFull(br, e.store.Check(blk)); err != nil {
				return nil, err
			}
		}
	}

	nMeta, err := readU64(br)
	if err != nil {
		return nil, err
	}
	loader, ok := e.scheme.(ctr.MetadataLoader)
	if !ok {
		return nil, fmt.Errorf("core: scheme %s cannot restore metadata", e.scheme.Name())
	}
	if nMeta > e.tr.Leaves() {
		return nil, fmt.Errorf("core: image claims %d metadata blocks, tree has %d leaves", nMeta, e.tr.Leaves())
	}
	midxs := make([]uint64, 0, nMeta)
	for i := uint64(0); i < nMeta; i++ {
		m, err := readU64(br)
		if err != nil {
			return nil, err
		}
		if m >= e.tr.Leaves() {
			return nil, fmt.Errorf("core: image metadata block %d out of range", m)
		}
		if _, err := io.ReadFull(br, e.images.Store(m)); err != nil {
			return nil, err
		}
		midxs = append(midxs, m)
	}

	if _, err := e.tr.ReadFrom(br); err != nil {
		return nil, err
	}
	if expectRoot != nil {
		// Hashed afresh, not through the tree's digest cache: the pin
		// check is the rollback defense and stays independent of it.
		got := sha256.Sum256(e.tr.TopLevel())
		if got != *expectRoot {
			return nil, &IntegrityError{Reason: "persistent image root digest mismatch (rollback or corruption)", Stage: StageResume}
		}
	}

	// Verify every restored counter block against the tree before
	// trusting it, then rebuild the scheme state machines from the
	// verified images.
	for _, m := range midxs {
		img := e.images.Load(m)
		if err := e.tr.VerifyLeafFast(e.metaLeaf(m), img); err != nil {
			e.stats.IntegrityFailures.Add(1)
			return nil, &IntegrityError{
				Addr:   m * BlockBytes,
				Reason: "persistent counter block failed tree verification: " + err.Error(),
				Stage:  StageResume,
			}
		}
		if err := loader.LoadMetadata(m, *(*[BlockBytes]byte)(img)); err != nil {
			return nil, &IntegrityError{
				Addr:   m * BlockBytes,
				Reason: "persistent counter block undecodable: " + err.Error(),
				Stage:  StageResume,
			}
		}
	}
	return e, nil
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func writeU64(w io.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("core: truncated image: %w", err)
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

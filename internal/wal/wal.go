// Package wal implements the sealed append-only delta log behind the
// engine's incremental persistence: a write-ahead log of opaque records
// whose integrity — and whose *position in history* — is cryptographically
// authenticated.
//
// The log lives on untrusted storage, so every property the engine relies
// on must be checkable, not assumed:
//
//   - Torn writes. Records are length-prefixed and CRC-summed, so a crash
//     mid-append leaves a tail that replay detects and cuts at the last
//     whole record (VerdictTruncated), never a misparse.
//   - Tampering and splicing. Each record carries an HMAC-SHA256 seal over
//     a running chain digest: chain_i = SHA256(chain_{i-1} || seq_i ||
//     payload_i). Because the chain folds in every earlier record, a forged,
//     reordered, dropped, or substituted record invalidates every seal from
//     that point on (VerdictCorrupt).
//   - Rollback across logs. The chain is seeded with a caller digest — the
//     root digest of the base snapshot the log extends — and the seed is
//     recorded in the header. A log replayed against the wrong base (an
//     older snapshot, say) fails the seed check before any record applies.
//
// What the log cannot do by itself is prevent an attacker from truncating
// at a record boundary and presenting a shorter-but-valid prefix: that is
// indistinguishable from an honest crash. Callers that need stronger
// freshness pin the last sealed state digest (or epoch count) in trusted
// storage and check it after replay — see core.ResumeShardedIncremental and the
// memserved manifest.
package wal

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"slices"
)

// headerMagic identifies delta logs (format version 1).
var headerMagic = [8]byte{'A', 'M', 'E', 'M', 'W', 'A', 'L', '1'}

// SeedSize is the chain-seed digest length (SHA-256).
const SeedSize = sha256.Size

// macSize is the per-record HMAC-SHA256 seal length.
const macSize = sha256.Size

// HeaderSize is the fixed log header length: magic + seed digest.
const HeaderSize = 8 + SeedSize

// recordOverhead is the per-record framing cost beyond the payload:
// u32 length | u64 seq | payload | u32 crc | 32-byte seal.
const recordOverhead = 4 + 8 + 4 + macSize

// MaxPayload bounds a single record so a corrupted length prefix cannot
// drive an unbounded allocation. Core group records are a few KB; 16MB
// leaves room for any future batched record shape.
const MaxPayload = 16 << 20

// RecordOverhead reports the framing bytes each Append adds beyond its
// payload (for storage accounting).
func RecordOverhead() int { return recordOverhead }

// Verdict classifies how a replay ended.
type Verdict int

const (
	// VerdictClean: the log was consumed to EOF at a record boundary and
	// every seal verified.
	VerdictClean Verdict = iota
	// VerdictTruncated: a torn or damaged tail — short read or CRC
	// mismatch at record FailedAt. Records before it replayed cleanly;
	// everything from it on is cut. The expected outcome of a crash.
	VerdictTruncated
	// VerdictCorrupt: a record's chained seal failed with intact framing —
	// forgery, reordering, splicing, or a wrong/rolled-back base seed.
	// Nothing from the failing record on can be trusted.
	VerdictCorrupt
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictClean:
		return "clean"
	case VerdictTruncated:
		return "truncated"
	case VerdictCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// ReplayResult reports how far a replay got and why it stopped.
type ReplayResult struct {
	Verdict Verdict
	// Records is the number of records delivered to the callback.
	Records int
	// FailedAt is the zero-based index of the record replay stopped at
	// (-1 for a clean replay).
	FailedAt int
	// Reason is a human-readable cause for non-clean verdicts.
	Reason string
}

// Writer appends sealed records to a fresh log.
//
// A Writer always starts a new log: the header (magic + chain seed) is
// written by NewWriter, and the chain state lives in the Writer. Continuing
// a log across process restarts is deliberately unsupported — the engine
// folds the log into a new base snapshot on restart instead, which keeps
// the chain state machine single-owner.
//
// Records are framed into one reused buffer (Stage) and reach the io.Writer
// when the caller closes its batch (Append, Flush): an epoch is one write of
// the bytes record-by-record writes would produce, so a torn write leaves
// what a crash always could — sealed records with no commit.
type Writer struct {
	w     io.Writer
	seal  *sealer
	chain [sha256.Size]byte
	seq   uint64
	off   int64  // log length, staged records included
	buf   []byte // records staged since the last flush
	err   error  // the first failed write; every later call returns it
}

// stageLimit is the most the staging buffer holds before Stage writes early,
// in chunks of exactly this size: an epoch that dirties a whole region never
// buffers it, and the buffer stays bounded by the limit plus one record.
const stageLimit = 256 << 10

// NewWriter writes the log header and returns a Writer whose record chain
// is seeded with seed (the base snapshot's root digest). key is the HMAC
// sealing key; it must be non-empty and is copied.
func NewWriter(w io.Writer, key []byte, seed [SeedSize]byte) (*Writer, error) {
	if len(key) == 0 {
		return nil, fmt.Errorf("wal: sealing key must be non-empty")
	}
	var hdr [HeaderSize]byte
	copy(hdr[:8], headerMagic[:])
	copy(hdr[8:], seed[:])
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("wal: writing header: %w", err)
	}
	return &Writer{
		w:     w,
		seal:  newSealer(key),
		chain: seed,
		off:   HeaderSize,
	}, nil
}

// Stage seals payload into the next record and frames it into the staging
// buffer; nothing reaches the io.Writer before Flush unless the buffer passes
// stageLimit. Payloads must be non-empty and at most MaxPayload.
func (w *Writer) Stage(payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if len(payload) == 0 {
		return fmt.Errorf("wal: empty payload")
	}
	if len(payload) > MaxPayload {
		return fmt.Errorf("wal: payload %d bytes exceeds cap %d", len(payload), MaxPayload)
	}
	need := recordOverhead + len(payload)
	start := len(w.buf)
	w.buf = slices.Grow(w.buf, need)[:start+need]
	rec := w.buf[start:]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(rec[4:12], w.seq)
	copy(rec[12:], payload)
	crcEnd := 12 + len(payload)
	binary.LittleEndian.PutUint32(rec[crcEnd:crcEnd+4], crc32.ChecksumIEEE(rec[4:crcEnd]))

	w.seal.nextChain(&w.chain, rec[4:12], rec[12:crcEnd])
	w.seal.seal(rec[:crcEnd+4], w.chain)
	w.seq++
	w.off += int64(need)

	for len(w.buf) >= stageLimit {
		if err := w.write(w.buf[:stageLimit]); err != nil {
			return err
		}
		w.buf = w.buf[:copy(w.buf, w.buf[stageLimit:])]
	}
	return nil
}

// Flush hands every staged record to the io.Writer in one write. A failed
// write poisons the Writer: the log may hold any prefix of the batch, so the
// only safe continuation is a fresh log over a fresh base.
func (w *Writer) Flush() error {
	if w.err != nil || len(w.buf) == 0 {
		return w.err
	}
	err := w.write(w.buf)
	w.buf = w.buf[:0]
	return err
}

func (w *Writer) write(p []byte) error {
	if _, err := w.w.Write(p); err != nil {
		w.err = fmt.Errorf("wal: appending through record %d: %w", w.seq-1, err)
	}
	return w.err
}

// Append stages payload and flushes: the record that closes a batch (the
// engine's epoch commit), or a batch of one.
func (w *Writer) Append(payload []byte) error {
	if err := w.Stage(payload); err != nil {
		return err
	}
	return w.Flush()
}

// Records returns the number of records appended so far, staged included.
func (w *Writer) Records() uint64 { return w.seq }

// Offset returns the log length in bytes (header plus all records, staged
// included).
func (w *Writer) Offset() int64 { return w.off }

// sealer computes the record chain and HMAC-SHA256 seals with one SHA-256
// state and the key's inner/outer pad blocks hashed once up front (their
// compression-function states are snapshotted via the digest's binary
// marshalling). The seal input is a fixed 32-byte chain value, so the pad
// hashing is half the per-record MAC cost — precomputing it roughly doubles
// append/replay seal throughput. Output is bit-identical to crypto/hmac.
// Everything the hasher reads is heap-resident already (the sealer's own
// array, the caller's buffers), so a record allocates nothing.
type sealer struct {
	h          hash.Hash
	ipad, opad []byte // marshalled sha256 states primed with the key pads
	in         [sha256.Size]byte
}

func newSealer(key []byte) *sealer {
	if len(key) > sha256.BlockSize {
		sum := sha256.Sum256(key)
		key = sum[:]
	}
	var ipad, opad [sha256.BlockSize]byte
	copy(ipad[:], key)
	copy(opad[:], key)
	for i := range ipad {
		ipad[i] ^= 0x36
		opad[i] ^= 0x5c
	}
	h := sha256.New()
	prime := func(pad []byte) []byte {
		h.Reset()
		h.Write(pad)
		state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			panic("wal: sha256 state not marshallable: " + err.Error())
		}
		return state
	}
	return &sealer{h: h, ipad: prime(ipad[:]), opad: prime(opad[:])}
}

// nextChain folds one record into the running chain digest, in place:
// chain = SHA256(chain || seq || payload), seq as framed (8 bytes LE).
func (s *sealer) nextChain(chain *[sha256.Size]byte, seq, payload []byte) {
	s.h.Reset()
	s.h.Write(chain[:])
	s.h.Write(seq)
	s.h.Write(payload)
	s.h.Sum(chain[:0])
}

// seal appends HMAC(key, chain) to dst and returns the extended slice.
func (s *sealer) seal(dst []byte, chain [sha256.Size]byte) []byte {
	s.in = chain
	s.load(s.ipad)
	s.h.Write(s.in[:])
	s.h.Sum(s.in[:0])
	s.load(s.opad)
	s.h.Write(s.in[:])
	return s.h.Sum(dst)
}

func (s *sealer) load(state []byte) {
	if err := s.h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		panic("wal: sha256 state not unmarshallable: " + err.Error())
	}
}

// Replay reads a log from r, verifying the header seed and every record's
// framing and chained seal, and delivers each verified payload to fn in
// order. It stops at the first defect and reports how via the verdict:
// short reads and CRC failures cut the tail (VerdictTruncated), seal or
// seed failures poison it (VerdictCorrupt). A payload is only ever
// delivered after its seal verifies, so fn never sees unauthenticated
// bytes.
//
// The returned error is non-nil only for callback failures and for I/O
// errors other than EOF; log damage is a verdict, not an error, so callers
// can distinguish "storage said no" from "storage lied".
func Replay(r io.Reader, key []byte, seed [SeedSize]byte, fn func(seq uint64, payload []byte) error) (ReplayResult, error) {
	res := ReplayResult{FailedAt: -1}
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			res.Verdict, res.FailedAt, res.Reason = VerdictTruncated, 0, "log header truncated"
			return res, nil
		}
		return res, fmt.Errorf("wal: reading header: %w", err)
	}
	if [8]byte(hdr[:8]) != headerMagic {
		res.Verdict, res.FailedAt, res.Reason = VerdictCorrupt, 0, "not a delta log (bad magic)"
		return res, nil
	}
	if [SeedSize]byte(hdr[8:]) != seed {
		res.Verdict, res.FailedAt, res.Reason = VerdictCorrupt, 0,
			"log seed does not match the base snapshot (wrong or rolled-back base)"
		return res, nil
	}

	chain := seed
	sl := newSealer(key)
	var frame [12]byte
	var tail [4 + macSize]byte
	var want [macSize]byte
	var payload []byte
	for i := 0; ; i++ {
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			if err == io.EOF {
				res.Verdict = VerdictClean
				return res, nil
			}
			if err == io.ErrUnexpectedEOF {
				res.Verdict, res.FailedAt, res.Reason = VerdictTruncated, i, "record frame truncated"
				return res, nil
			}
			return res, fmt.Errorf("wal: reading record %d: %w", i, err)
		}
		plen := binary.LittleEndian.Uint32(frame[0:4])
		seq := binary.LittleEndian.Uint64(frame[4:12])
		if plen == 0 || plen > MaxPayload {
			res.Verdict, res.FailedAt = VerdictTruncated, i
			res.Reason = fmt.Sprintf("record %d length %d implausible", i, plen)
			return res, nil
		}
		if uint64(cap(payload)) < uint64(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				res.Verdict, res.FailedAt, res.Reason = VerdictTruncated, i, "record payload truncated"
				return res, nil
			}
			return res, fmt.Errorf("wal: reading record %d: %w", i, err)
		}
		if _, err := io.ReadFull(r, tail[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				res.Verdict, res.FailedAt, res.Reason = VerdictTruncated, i, "record seal truncated"
				return res, nil
			}
			return res, fmt.Errorf("wal: reading record %d: %w", i, err)
		}
		// CRC localizes accidental damage (torn write, bit rot) cheaply;
		// the seal below is the security check.
		if crc32.Update(crc32.ChecksumIEEE(frame[4:12]), crc32.IEEETable, payload) != binary.LittleEndian.Uint32(tail[0:4]) {
			res.Verdict, res.FailedAt = VerdictTruncated, i
			res.Reason = fmt.Sprintf("record %d CRC mismatch (torn write or bit rot)", i)
			return res, nil
		}
		if seq != uint64(i) {
			res.Verdict, res.FailedAt = VerdictCorrupt, i
			res.Reason = fmt.Sprintf("record %d carries sequence %d (reordered or spliced)", i, seq)
			return res, nil
		}
		sl.nextChain(&chain, frame[4:12], payload)
		sl.seal(want[:0], chain)
		if !hmac.Equal(want[:], tail[4:]) {
			res.Verdict, res.FailedAt = VerdictCorrupt, i
			res.Reason = fmt.Sprintf("record %d seal mismatch (forged, spliced, or wrong key)", i)
			return res, nil
		}
		if err := fn(seq, payload); err != nil {
			res.FailedAt = i
			return res, fmt.Errorf("wal: applying record %d: %w", i, err)
		}
		res.Records++
	}
}

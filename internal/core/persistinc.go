package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"authmem/internal/ctr"
	"authmem/internal/tree"
	"authmem/internal/wal"
)

// Incremental persistence: O(blocks written) checkpoints instead of
// O(region).
//
// Engine.Persist serializes the whole image even when a handful of blocks
// changed since the last checkpoint. This file applies the paper's delta
// idea to the durability plane: a write to one block disturbs nothing around
// it, so the engine keeps a block-granular dirty set (one mask per counter
// group), and AppendDelta serializes, per dirty group, the counter-block
// image plus only the blocks written since the group's last record, with
// their MAC/check storage — as sealed records in an append-only delta log
// (internal/wal), one write per epoch, each epoch closed by a commit record
// that carries the post-epoch root digest.
//
// Trust model. The log lives on the same untrusted storage as the base
// image. Three layers keep replay honest:
//
//  1. The log's own chained HMAC seals (see internal/wal): torn tails are
//     cut with a typed verdict, and forged/reordered/spliced records fail
//     their seal — nothing unauthenticated ever reaches the apply path.
//  2. Every commit record seals the engine root digest at that epoch.
//     After applying an epoch's group records, replay recomputes the root
//     from the rebuilt tree and compares: a log that claims state the tree
//     does not hash to is rejected (rollback verdict), so a sealed-but-
//     inconsistent base+log pairing cannot resume silently.
//  3. The chain seed is the base snapshot's root digest, binding each log
//     to exactly the base it extends: replaying yesterday's log over
//     today's base (or vice versa) fails before any record applies.
//
// What remains out of reach from inside untrusted storage — exactly as
// with whole-image persist — is discarding a *suffix* of sealed epochs at
// a record boundary: indistinguishable from an honest crash. Callers close
// that hole by pinning the last root (or epoch count) in trusted storage
// and passing expectRoot, or checking RecoveryReport.EpochRoots against
// the pin (what cmd/memserved's sealed manifest does).

// Delta-record types (first payload byte).
const (
	deltaRecGroup  = 1 // one dirty group: counter image + the blocks written
	deltaRecCommit = 2 // epoch commit: sealed root digest
)

// deltaTracker is the engine's dirty set for incremental persistence: one
// mask word per metadata block (bit j = block j of its metaSpan was sealed
// since the group's last record) plus an append list of the groups whose mask
// is non-zero. deferCommit marks the blocks its caller just sealed and the
// re-encryption sweep marks the whole group. Read-path scrub write-back and
// repairMetadata deliberately do not mark: they restore stored bits to the
// logical state the log has already sealed.
type deltaTracker struct {
	mask  []uint64
	list  []uint64
	epoch uint64
	// scratch backs encodeGroupRecord between wal appends (the record is
	// copied into the log's staging buffer before the next group).
	scratch []byte
}

func (t *deltaTracker) mark(midx, blocks uint64) {
	if t.mask[midx] == 0 {
		t.list = append(t.list, midx)
	}
	t.mask[midx] |= blocks
}

func (t *deltaTracker) reset() {
	for _, m := range t.list {
		t.mask[m] = 0
	}
	t.list = t.list[:0]
}

// EnableDeltaTracking turns on the dirty-block set behind AppendDelta.
// Call before traffic (an incremental resume enables it automatically);
// blocks written while tracking is off are not observed.
// A no-op when already enabled.
func (e *Engine) EnableDeltaTracking() {
	if e.delta != nil {
		return
	}
	e.delta = &deltaTracker{
		mask: make([]uint64, e.scheme.MetadataBlocks(e.cfg.DataBlocks())),
		list: make([]uint64, 0, 64),
	}
}

// DirtyGroups returns the number of groups an AppendDelta would serialize
// right now (0 without tracking).
func (e *Engine) DirtyGroups() int {
	if e.delta == nil {
		return 0
	}
	return len(e.delta.list)
}

// DeltaStats reports what one AppendDelta epoch wrote.
type DeltaStats struct {
	// Groups is the number of dirty-group records appended.
	Groups int
	// Bytes is the log growth, framing included.
	Bytes int64
	// Epoch is the zero-based epoch number sealed into the commit record.
	Epoch uint64
	// Root is the root digest sealed into the commit record — the trusted
	// pin for this epoch.
	Root RootDigest
}

// walKeyMaterial derives the delta-log sealing key from the engine's key
// material. Sharded engines derive per-shard key material, so each shard's
// log seals under its own key and records cannot migrate between shards.
func (e *Engine) walKeyMaterial() []byte {
	h := sha256.New()
	h.Write([]byte("authmem/wal/seal/v1"))
	h.Write(e.cfg.KeyMaterial)
	return h.Sum(nil)
}

// NewDeltaWriter starts a fresh delta log on w, seeded with the engine's
// current root digest. The log extends exactly the state the engine holds
// now — persist the base image first, then open the log, and every
// AppendDelta epoch extends that base.
func (e *Engine) NewDeltaWriter(w io.Writer) (*wal.Writer, error) {
	// A new log is a new epoch sequence: its first commit record must carry
	// epoch 0, whatever was appended to earlier logs (a checkpoint fold
	// opens a fresh log mid-life; the old one is dead the moment the new
	// base exists). The dirty set survives here: only a caller that
	// persisted the base under the same lock hold knows the base covers
	// it, and CheckpointShard clears it there.
	if e.delta != nil {
		e.delta.epoch = 0
	}
	seed := e.RootDigest()
	return wal.NewWriter(w, e.walKeyMaterial(), seed)
}

// metaSpan returns the contiguous data-block span [first, first+n) covered
// by metadata block midx: one 4KB group for the grouped schemes, one
// 8-counter block for the monolithic scheme.
func (e *Engine) metaSpan(midx uint64) (first, n uint64) {
	bpm := uint64(ctr.GroupBlocks)
	if e.cfg.Scheme == ctr.Monolithic {
		bpm = ctr.CountersPerMetadataBlock
	}
	first = midx * bpm
	n = bpm
	if rem := e.cfg.DataBlocks() - first; n > rem {
		n = rem
	}
	return first, n
}

// AppendDelta flushes deferred Merkle maintenance, stages every dirty group
// as a sealed record carrying the blocks written since its last one, closes
// the epoch with a commit record carrying the post-epoch root digest — which
// hands the whole epoch to w's io.Writer in one write — and clears the dirty
// set. An epoch with no dirty groups still writes its commit record (a
// sealed heartbeat); callers that want to skip empty epochs check DirtyGroups
// first. After an error w is dead (see wal.Writer) and the dirty set is kept.
func (e *Engine) AppendDelta(w *wal.Writer) (DeltaStats, error) {
	var st DeltaStats
	if e.delta == nil {
		return st, fmt.Errorf("core: delta tracking not enabled (call EnableDeltaTracking)")
	}
	// The log must only ever see flushed state: the commit record's root
	// covers every accepted write, and group images are re-packed from the
	// trusted scheme state machine by Flush before they are read here.
	if err := e.Flush(); err != nil {
		return st, err
	}
	start := w.Offset()

	// Ascending group order makes the log deterministic for a given dirty
	// set, like the full image's arena iteration order.
	slices.Sort(e.delta.list)
	for _, midx := range e.delta.list {
		if err := w.Stage(e.encodeGroupRecord(midx)); err != nil {
			return st, err
		}
		st.Groups++
	}

	root := e.RootDigest()
	var commit [1 + 8 + sha256.Size]byte
	commit[0] = deltaRecCommit
	binary.LittleEndian.PutUint64(commit[1:9], e.delta.epoch)
	copy(commit[9:], root[:])
	if err := w.Append(commit[:]); err != nil {
		return st, err
	}

	st.Epoch = e.delta.epoch
	st.Root = root
	st.Bytes = w.Offset() - start
	e.delta.epoch++
	e.delta.reset()
	return st, nil
}

// encodeGroupRecord serializes what changed in one group since its last
// record:
//
//	u8 type=1 | u64 midx | counter image [64] | u64 block bitmap |
//	per carried block: ciphertext [64] | u64 metadata lane | check bytes
//
// The bitmap names the blocks this record carries — the resident blocks in
// the group's dirty mask — over the group's data-block span (at most 64
// blocks, one word). Every other block keeps the bytes the base image and
// earlier records gave it: its counter did not move. Check bytes appear only
// under the inline-MAC placement, with the codec's stride.
func (e *Engine) encodeGroupRecord(midx uint64) []byte {
	first, n := e.metaSpan(midx)
	checkBytes := e.store.checkBytes
	var present uint64
	for m := e.delta.mask[midx]; m != 0; m &= m - 1 {
		if j := uint64(bits.TrailingZeros64(m)); j < n && e.store.Present(first+j) {
			present |= 1 << j
		}
	}
	cnt := bits.OnesCount64(present)
	need := 1 + 8 + BlockBytes + 8 + cnt*(BlockBytes+8+checkBytes)
	if cap(e.delta.scratch) < need {
		e.delta.scratch = make([]byte, need)
	}
	buf := e.delta.scratch[:need]
	buf[0] = deltaRecGroup
	binary.LittleEndian.PutUint64(buf[1:9], midx)
	copy(buf[9:9+BlockBytes], e.images.Load(midx))
	binary.LittleEndian.PutUint64(buf[9+BlockBytes:], present)
	off := 9 + BlockBytes + 8
	for j := uint64(0); j < n; j++ {
		if present>>j&1 == 0 {
			continue
		}
		blk := first + j
		copy(buf[off:], e.store.Ciphertext(blk))
		off += BlockBytes
		binary.LittleEndian.PutUint64(buf[off:], e.store.Meta(blk))
		off += 8
		if checkBytes > 0 {
			copy(buf[off:], e.store.Check(blk))
			off += checkBytes
		}
	}
	return buf
}

// applyGroupRecord installs one sealed group record into the engine: the
// blocks it carries into the arena (the rest of the group stays as the base
// and earlier records left it), the counter image into the image store and
// the trusted scheme state machine, and the image's leaf into the tree. The
// record's seal has already verified; errors here mean the sealed content
// does not fit this engine's geometry — corruption of the pairing, never
// something to paper over.
func (e *Engine) applyGroupRecord(payload []byte, loader ctr.MetadataLoader) error {
	if len(payload) < 1+8+BlockBytes+8 {
		return fmt.Errorf("group record too short (%d bytes)", len(payload))
	}
	midx := binary.LittleEndian.Uint64(payload[1:9])
	if midx >= e.scheme.MetadataBlocks(e.cfg.DataBlocks()) {
		return fmt.Errorf("group record metadata block %d out of range", midx)
	}
	first, n := e.metaSpan(midx)
	img := payload[9 : 9+BlockBytes]
	present := binary.LittleEndian.Uint64(payload[9+BlockBytes:])
	if n < 64 && present>>n != 0 {
		return fmt.Errorf("group record %d marks blocks beyond its span", midx)
	}
	checkBytes := e.store.checkBytes
	cnt := bits.OnesCount64(present)
	if want := 1 + 8 + BlockBytes + 8 + cnt*(BlockBytes+8+checkBytes); len(payload) != want {
		return fmt.Errorf("group record %d is %d bytes, geometry says %d", midx, len(payload), want)
	}

	off := 9 + BlockBytes + 8
	for j := uint64(0); j < n; j++ {
		if present>>j&1 == 0 {
			continue
		}
		blk := first + j
		copy(e.store.Materialize(blk), payload[off:off+BlockBytes])
		off += BlockBytes
		e.store.SetMeta(blk, binary.LittleEndian.Uint64(payload[off:]))
		off += 8
		if checkBytes > 0 {
			copy(e.store.Check(blk), payload[off:off+checkBytes])
			off += checkBytes
		}
	}

	copy(e.images.Store(midx), img)
	if err := loader.LoadMetadata(midx, [BlockBytes]byte(img)); err != nil {
		return fmt.Errorf("group record %d counter image undecodable: %w", midx, err)
	}
	return e.tr.UpdateLeafFast(midx, img)
}

// RecoveryStatus classifies how an incremental resume ended.
type RecoveryStatus int

const (
	// RecoveryClean: the whole log replayed and every epoch's sealed root
	// matched the rebuilt tree.
	RecoveryClean RecoveryStatus = iota
	// RecoveryTruncated: a torn or damaged tail (or uncommitted trailing
	// group records) was cut at the last committed epoch. The engine is
	// valid at that epoch — the expected outcome of a crash.
	RecoveryTruncated
	// RecoveryRollback: authenticated-state mismatch — a sealed record
	// failed its chain seal, an epoch's sealed root did not match the
	// rebuilt tree, or the pinned expectRoot was not reached. The resume
	// is refused.
	RecoveryRollback
)

// String names the status.
func (s RecoveryStatus) String() string {
	switch s {
	case RecoveryClean:
		return "clean"
	case RecoveryTruncated:
		return "truncated"
	case RecoveryRollback:
		return "rollback-detected"
	default:
		return fmt.Sprintf("RecoveryStatus(%d)", int(s))
	}
}

// RecoveryReport is the typed verdict of an incremental resume.
type RecoveryReport struct {
	Status RecoveryStatus
	// Epochs is the number of committed epochs applied.
	Epochs int
	// Groups is the number of group records applied (committed epochs
	// only).
	Groups int
	// Dropped counts sealed records read but discarded because no commit
	// record followed them (the uncommitted tail of a crash).
	Dropped int
	// FailedAt is the log record index where replay stopped (-1 when the
	// whole log replayed).
	FailedAt int
	// Reason is a human-readable cause for non-clean statuses.
	Reason string
	// BaseRoot is the base snapshot's root digest (the log's chain seed).
	BaseRoot RootDigest
	// Root is the root digest after recovery: the last committed epoch's
	// sealed root, or BaseRoot when no epoch committed.
	Root RootDigest
	// EpochRoots holds every committed epoch's sealed root in order —
	// what a caller with a trusted (epoch, root) pin checks freshness
	// against.
	EpochRoots []RootDigest
}

// RecoveryError is returned when an incremental resume detects rollback or
// sealed-state corruption. It wraps the full report; callers match it with
// errors.As through every resume path, including sharded ones.
type RecoveryError struct {
	Report *RecoveryReport
}

// Error implements error. It names a log record only when replay stopped
// at one: a refusal by a root pin or a manifest has FailedAt = -1.
func (e *RecoveryError) Error() string {
	r := e.Report
	if r.FailedAt < 0 {
		return fmt.Sprintf("core: recovery %s: %s", r.Status, r.Reason)
	}
	return fmt.Sprintf("core: incremental resume %s at log record %d: %s", r.Status, r.FailedAt, r.Reason)
}

// replayDelta replays a delta log into a freshly-resumed engine. Group
// records buffer until their epoch's commit record arrives, then apply as a
// unit and the rebuilt tree's root is checked against the commit's sealed
// root — so a crash mid-epoch rolls back to the previous commit, and a log
// whose sealed claims disagree with its own records is refused.
func (e *Engine) replayDelta(r io.Reader, rep *RecoveryReport) error {
	loader, ok := e.scheme.(ctr.MetadataLoader)
	if !ok {
		return fmt.Errorf("core: scheme %s cannot restore metadata", e.scheme.Name())
	}
	// The open epoch's group payloads back to back; ends[i] ends record i.
	var pending []byte
	var ends []int
	res, err := wal.Replay(r, e.walKeyMaterial(), rep.BaseRoot, func(seq uint64, payload []byte) error {
		switch payload[0] {
		case deltaRecGroup:
			pending = append(pending, payload...)
			ends = append(ends, len(pending))
			return nil
		case deltaRecCommit:
			if len(payload) != 1+8+sha256.Size {
				return fmt.Errorf("commit record is %d bytes", len(payload))
			}
			epoch := binary.LittleEndian.Uint64(payload[1:9])
			if epoch != uint64(rep.Epochs) {
				return fmt.Errorf("commit record claims epoch %d, log position says %d", epoch, rep.Epochs)
			}
			start := 0
			for _, end := range ends {
				if err := e.applyGroupRecord(pending[start:end], loader); err != nil {
					return err
				}
				start = end
			}
			root := e.RootDigest()
			if root != RootDigest(payload[9:]) {
				return fmt.Errorf("epoch %d sealed root does not match the rebuilt tree", epoch)
			}
			rep.Groups += len(ends)
			pending, ends = pending[:0], ends[:0]
			rep.Epochs++
			rep.EpochRoots = append(rep.EpochRoots, root)
			rep.Root = root
			return nil
		default:
			return fmt.Errorf("unknown record type %d", payload[0])
		}
	})
	if err != nil {
		// A sealed record that fails to apply or contradicts its commit's
		// root: authenticated framing carrying inconsistent state. Refuse.
		rep.Status = RecoveryRollback
		rep.FailedAt = res.FailedAt
		rep.Reason = err.Error()
		return &RecoveryError{Report: rep}
	}
	switch res.Verdict {
	case wal.VerdictCorrupt:
		rep.Status = RecoveryRollback
		rep.FailedAt = res.FailedAt
		rep.Reason = res.Reason
		return &RecoveryError{Report: rep}
	case wal.VerdictTruncated:
		rep.Status = RecoveryTruncated
		rep.FailedAt = res.FailedAt
		rep.Reason = res.Reason
	}
	if len(ends) > 0 {
		// Sealed group records with no commit: the in-flight epoch of a
		// crash. They never applied, so the engine sits exactly at the
		// last committed epoch.
		rep.Dropped = len(ends)
		if rep.Status == RecoveryClean {
			rep.Status = RecoveryTruncated
			rep.FailedAt = res.Records
			rep.Reason = fmt.Sprintf("%d group records with no commit (in-flight epoch)", len(ends))
		}
	}
	return nil
}

// resumeDelta finishes an incremental resume for one engine: enables delta
// tracking (so the next AppendDelta observes post-resume writes) and
// replays the log when one is supplied.
func (e *Engine) resumeDelta(walR io.Reader) (*RecoveryReport, error) {
	e.EnableDeltaTracking()
	rep := &RecoveryReport{FailedAt: -1, BaseRoot: e.RootDigest()}
	rep.Root = rep.BaseRoot
	if walR == nil {
		return rep, nil
	}
	if err := e.replayDelta(walR, rep); err != nil {
		return rep, err
	}
	return rep, nil
}

// Sharded incremental persistence: one delta log per shard, sealed under
// the shard's derived key, with the combined root (tree.CombineRoots over
// the per-shard recovered roots) as the single trusted attestation value.

// EnableDeltaTracking enables the dirty-block set on every shard.
func (s *ShardedEngine) EnableDeltaTracking() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.eng.EnableDeltaTracking()
		sh.mu.Unlock()
	}
}

// DirtyGroups sums the dirty groups pending across all shards.
func (s *ShardedEngine) DirtyGroups() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += sh.eng.DirtyGroups()
		sh.mu.Unlock()
	}
	return total
}

// NewShardDeltaWriter starts shard i's delta log on w, seeded with the
// shard's current root. Persist the sharded base image first, then open
// each shard's log.
func (s *ShardedEngine) NewShardDeltaWriter(i int, w io.Writer) (*wal.Writer, error) {
	sh, err := s.shard(i)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.eng.NewDeltaWriter(w)
}

// AppendDeltaShard appends one epoch of shard i's dirty groups to its log,
// locking only that shard. The combined attestation over an append round is
// RootDigest() (CombineRoots of the shard roots); the durable store
// (authmem.Durable) seals the per-shard roots into its manifest.
func (s *ShardedEngine) AppendDeltaShard(i int, w *wal.Writer) (DeltaStats, error) {
	sh, err := s.shard(i)
	if err != nil {
		return DeltaStats{}, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.eng.AppendDelta(w)
}

// BeginShardedImage writes the v2 container header for an image whose
// shard sections will be produced one CheckpointShard call at a time. A
// 1-shard engine writes nothing: its single section IS the (v1-compatible)
// image, mirroring Persist.
func (s *ShardedEngine) BeginShardedImage(w io.Writer) error {
	if len(s.shards) == 1 {
		return nil
	}
	if _, err := w.Write(persistMagic2[:]); err != nil {
		return err
	}
	return writeU64(w, uint64(len(s.shards)))
}

// CheckpointShard persists shard i's image section to baseW and opens a
// fresh delta log for it on logW — atomically under the shard's lock, so
// the log's seed is exactly the root of the persisted section even while
// other shards keep serving traffic. Calling it for every shard in order
// after BeginShardedImage produces a valid sharded image whose per-shard
// sections may legitimately be snapshots of different instants: each
// shard's log covers its own section, which is all incremental recovery
// needs. The persisted section covers every block the shard's dirty set
// names, so the set is cleared: the new log's first epoch carries only
// what is written after the fold. Returns the shard root sealed into the
// log's seed.
func (s *ShardedEngine) CheckpointShard(i int, baseW, logW io.Writer) (RootDigest, *wal.Writer, error) {
	sh, err := s.shard(i)
	if err != nil {
		return RootDigest{}, nil, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	root, err := sh.eng.Persist(baseW)
	if err != nil {
		return RootDigest{}, nil, fmt.Errorf("core: checkpointing shard %d: %w", i, err)
	}
	w, err := sh.eng.NewDeltaWriter(logW)
	if err != nil {
		return RootDigest{}, nil, err
	}
	if sh.eng.delta != nil {
		sh.eng.delta.reset()
	}
	return root, w, nil
}

// ResumeShardedIncremental rebuilds a sharded engine from a base image plus
// one delta log per shard. Each shard's section resumes through the verified
// Resume path, then its log replays epoch by epoch to the newest record whose
// chained seal and sealed root digest verify; reports holds one typed verdict
// per shard — clean, truncated at the crash point (shard valid at its last
// committed epoch), or rollback-detected (resume refused with a
// *RecoveryError). wals may be nil (base only); individual entries may be nil
// for shards with no log.
//
// If expectRoot is non-nil the combined root over the *recovered* shards must
// equal it: pin the RootDigest taken after the last append round (or epoch
// roots from a sealed manifest) in trusted storage and a truncation attack
// that presents a shorter-but-valid log prefix is detected too.
func ResumeShardedIncremental(cfg Config, shards int, base io.Reader, wals []io.Reader, expectRoot *RootDigest) (*ShardedEngine, []*RecoveryReport, error) {
	if wals != nil && len(wals) != shards {
		return nil, nil, fmt.Errorf("core: %d delta logs for %d shards", len(wals), shards)
	}
	engines, err := resumeSections(cfg, shards, base)
	if err != nil {
		return nil, nil, err
	}
	reports := make([]*RecoveryReport, shards)
	roots := make([][sha256.Size]byte, shards)
	for i, eng := range engines {
		var walR io.Reader
		if wals != nil {
			walR = wals[i]
		}
		rep, err := eng.resumeDelta(walR)
		reports[i] = rep
		if err != nil {
			return nil, reports, fmt.Errorf("core: recovering shard %d: %w", i, err)
		}
		roots[i] = rep.Root
	}
	if expectRoot != nil {
		if got := tree.CombineRoots(roots); got != *expectRoot {
			rep := &RecoveryReport{
				Status:   RecoveryRollback,
				FailedAt: -1,
				Reason:   "combined root over recovered shards does not match the pinned digest (rollback or truncated history)",
				Root:     got,
			}
			return nil, reports, &RecoveryError{Report: rep}
		}
	}
	return wrapShards(cfg, engines), reports, nil
}

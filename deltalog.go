package authmem

import (
	"io"

	"authmem/internal/core"
	"authmem/internal/wal"
)

// Incremental persistence: dirty-delta checkpoints and a sealed group WAL.
//
// Persist serializes the whole region even when a handful of blocks changed.
// The incremental path keeps a block-granular dirty set (one mask per 4KB
// group, fed by the write path's commit points and the re-encryption sweep)
// and appends, per dirty group, the counter image and only the blocks written
// since the group's last record to an append-only delta log: a base image
// plus a log replays to the exact pre-crash state, paying O(blocks written)
// per checkpoint instead of O(region).
//
// Lifecycle, one delta log per shard (a one-shard Memory has one):
//
//	m.EnableDeltaTracking()
//	m.Persist(baseFile)                         // full base snapshot
//	dl, _ := m.NewShardDeltaLog(i, logFile[i])  // seeded with shard i's root
//	... traffic ...
//	m.AppendDeltaShard(i, dl)                   // sealed epoch: written blocks + root
//	pin := m.RootDigest()                       // after a round over every shard
//	... crash ...
//	m, reports, err := ResumeShardedIncremental(cfg, shards, baseFile, logFiles, &pin)
//
// A fold under traffic takes the base and the fresh logs together, shard by
// shard: BeginShardedImage, then CheckpointShard for every shard.
//
// Every record is length-prefixed, CRC-framed, and sealed with a chained
// HMAC keyed from the device secret; each epoch closes with a commit record
// carrying the root digest the rebuilt tree must hash to. Torn tails recover
// to the last committed epoch with a typed verdict; tampered or spliced logs
// are refused. Pin the newest root (or use the RecoveryReport.EpochRoots
// list against a sealed manifest, as cmd/memserved does) to also detect a
// maliciously shortened-but-valid log.

// DeltaLog is one shard's open append-only delta log, bound to the Memory
// that created it: records are sealed under the shard's derived key (they can
// never migrate between shards) and chained from the root digest of the
// shard's section of the base snapshot.
type DeltaLog struct {
	w *wal.Writer
}

// Records returns the number of sealed records appended so far.
func (l *DeltaLog) Records() uint64 { return l.w.Records() }

// Offset returns the log length in bytes (header included). After an
// AppendDeltaShard returns, all of it has been handed to the log's io.Writer.
func (l *DeltaLog) Offset() int64 { return l.w.Offset() }

// DeltaStats reports what one AppendDeltaShard epoch wrote: group records, log
// growth in bytes, the epoch number, and the sealed root digest — the value
// to pin in trusted storage.
type DeltaStats = core.DeltaStats

// RecoveryStatus classifies how an incremental resume ended.
type RecoveryStatus = core.RecoveryStatus

const (
	// RecoveryClean: the whole log replayed and every epoch verified.
	RecoveryClean = core.RecoveryClean
	// RecoveryTruncated: a torn or damaged tail was cut at the last
	// committed epoch — the expected outcome of a crash.
	RecoveryTruncated = core.RecoveryTruncated
	// RecoveryRollback: authenticated-state mismatch; the resume is
	// refused with a *RecoveryError.
	RecoveryRollback = core.RecoveryRollback
)

// RecoveryReport is the typed verdict of an incremental resume.
type RecoveryReport = core.RecoveryReport

// RecoveryError wraps a rollback-detected RecoveryReport; it round-trips
// through errors.As from ResumeShardedIncremental.
type RecoveryError = core.RecoveryError

// CodecMismatchError reports a persisted image whose check bytes were
// written by a different ECC codec than the resuming Config selects. It
// round-trips through errors.As from every resume path.
type CodecMismatchError = core.CodecMismatchError

// EnableDeltaTracking turns on the dirty-block set on every shard. Call
// before traffic (ResumeShardedIncremental enables it automatically); writes
// landed while tracking is off are not observed by the next delta epoch.
func (m *Memory) EnableDeltaTracking() { m.eng.EnableDeltaTracking() }

// DirtyGroups sums the groups the next round of AppendDeltaShard calls would
// serialize, across all shards.
func (m *Memory) DirtyGroups() int { return m.eng.DirtyGroups() }

// NewShardDeltaLog starts shard i's delta log on w, seeded with the shard's
// current subtree root. Persist the base image first, then open each shard's
// log; the log extends exactly that state.
func (m *Memory) NewShardDeltaLog(i int, w io.Writer) (*DeltaLog, error) {
	lw, err := m.eng.NewShardDeltaWriter(i, w)
	if err != nil {
		return nil, err
	}
	return &DeltaLog{w: lw}, nil
}

// AppendDeltaShard seals one checkpoint epoch of shard i onto its log, in one
// write and locking only that shard: a record per dirty group (counter image
// + the blocks written since its last record) plus a commit record carrying
// the shard's post-epoch root digest, clearing the shard's dirty set. Cost is
// O(blocks written), not O(dirty groups) or O(region). An epoch with no dirty
// groups writes only its commit record. The combined attestation for a full
// round of shard appends is RootDigest(). After an error the log is dead:
// fold into a fresh base and logs (BeginShardedImage + CheckpointShard).
func (m *Memory) AppendDeltaShard(i int, l *DeltaLog) (DeltaStats, error) {
	return m.eng.AppendDeltaShard(i, l.w)
}

// BeginShardedImage writes the image container header for a checkpoint
// assembled one CheckpointShard call at a time (a one-shard memory writes
// nothing — its single section is the image).
func (m *Memory) BeginShardedImage(w io.Writer) error { return m.eng.BeginShardedImage(w) }

// CheckpointShard persists shard i's image section to baseW and opens a
// fresh delta log for it on logW, atomically under the shard's lock — other
// shards keep serving while this shard folds. Call BeginShardedImage first,
// then CheckpointShard for every shard in order. Returns the shard root the
// new log is seeded with; pin it (cmd/memserved seals it into its manifest).
func (m *Memory) CheckpointShard(i int, baseW, logW io.Writer) (RootDigest, *DeltaLog, error) {
	root, lw, err := m.eng.CheckpointShard(i, baseW, logW)
	if err != nil {
		return RootDigest{}, nil, err
	}
	return root, &DeltaLog{w: lw}, nil
}

// ResumeShardedIncremental rebuilds a Memory from a base image plus one
// delta log per shard (wals may be nil for base-only; entries may be nil for
// shards without a log). Each shard's section resumes through the verified
// ResumeSharded path, then its log replays epoch by epoch to the newest
// record whose chained seal and sealed root verify. reports holds one typed
// verdict per shard — clean, truncated at the crash point (shard valid at
// its last committed epoch), or rollback-detected (resume refused, err is a
// *RecoveryError).
//
// If expectRoot is non-nil the combined root over the recovered shards must
// equal it, which also catches a shortened-but-valid log prefix (truncation
// attack).
func ResumeShardedIncremental(cfg Config, shards int, base io.Reader, wals []io.Reader, expectRoot *RootDigest) (*Memory, []*RecoveryReport, error) {
	icfg, err := cfg.internal()
	if err != nil {
		return nil, nil, err
	}
	eng, reports, err := core.ResumeShardedIncremental(icfg, shards, base, wals, expectRoot)
	if err != nil {
		return nil, reports, err
	}
	return &Memory{eng: eng}, reports, nil
}

// CombinedRecoveredRoot recomputes the combined attestation digest from the
// per-shard recovery reports of a ResumeShardedIncremental that ran without
// a pin — compare it against the trusted combined root yourself.
func CombinedRecoveredRoot(reports []*RecoveryReport) RootDigest {
	return core.CombinedRecoveredRoot(reports)
}

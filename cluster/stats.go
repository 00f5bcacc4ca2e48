package cluster

import (
	"sync/atomic"

	"authmem/internal/counter"
)

// Stats is a point-in-time snapshot of the cluster client's counters:
// quorum traffic, degraded-mode events broken down by verdict, repairs, and
// rebalance volume. Cumulative since New.
type Stats struct {
	// QuorumReads and QuorumWrites count stripe-level quorum operations
	// (a spanning Read/Write contributes one per stripe touched).
	QuorumReads  uint64 `json:"quorum_reads"`
	QuorumWrites uint64 `json:"quorum_writes"`

	// DegradedReads/DegradedWrites count quorum operations that completed
	// without full replica participation.
	DegradedReads  uint64 `json:"degraded_reads"`
	DegradedWrites uint64 `json:"degraded_writes"`

	// Outvote verdicts, one counter per cause. See Verdict.
	OutvotedFault       uint64 `json:"outvoted_fault"`
	OutvotedUnreachable uint64 `json:"outvoted_unreachable"`
	OutvotedStale       uint64 `json:"outvoted_stale"`
	OutvotedEpoch       uint64 `json:"outvoted_epoch"`
	OutvotedRoot        uint64 `json:"outvoted_root"`
	OutvotedMajority    uint64 `json:"outvoted_majority"`

	// Unresolved counts quorum operations that failed with a
	// *QuorumError: divergence detected, no evidence to resolve it.
	Unresolved uint64 `json:"unresolved"`

	// Repairs counts stripes re-written onto a losing replica from the
	// quorum winner; RepairedBytes is their volume.
	Repairs       uint64 `json:"repairs"`
	RepairedBytes uint64 `json:"repaired_bytes"`

	// Revivals counts dead nodes brought back by a probe; EpochResets
	// counts revivals that found a new epoch (node restarted — all its
	// stripes were voided and queued for repair).
	Revivals    uint64 `json:"revivals"`
	EpochResets uint64 `json:"epoch_resets"`

	// RebalancedStripes and TransferredBytes measure verified stripe
	// transfers performed by AddNode/RemoveNode.
	RebalancedStripes uint64 `json:"rebalanced_stripes"`
	TransferredBytes  uint64 `json:"transferred_bytes"`
}

// countVerdict banks one quorum verdict in its per-cause counter.
func (s *Stats) countVerdict(v Verdict) {
	switch v {
	case VerdictOutvotedFault:
		atomic.AddUint64(&s.OutvotedFault, 1)
	case VerdictOutvotedUnreachable:
		atomic.AddUint64(&s.OutvotedUnreachable, 1)
	case VerdictOutvotedStale:
		atomic.AddUint64(&s.OutvotedStale, 1)
	case VerdictOutvotedEpoch:
		atomic.AddUint64(&s.OutvotedEpoch, 1)
	case VerdictOutvotedRoot:
		atomic.AddUint64(&s.OutvotedRoot, 1)
	case VerdictOutvotedMajority:
		atomic.AddUint64(&s.OutvotedMajority, 1)
	case VerdictUnresolved:
		atomic.AddUint64(&s.Unresolved, 1)
	}
}

// Stats returns the cluster client's counters.
func (c *Cluster) Stats() Stats { return counter.Load(&c.ctr) }

package wire

import "authmem"

// StatsSnapshot is the JSON payload of an OpStats response: the engine's
// cumulative statistics plus the server's own protocol counters. It is part
// of the wire contract — the client returns it verbatim — so both halves
// live here rather than in the server package.
type StatsSnapshot struct {
	ProtoVersion int                 `json:"proto_version"`
	Server       ServerCounters      `json:"server"`
	Engine       authmem.EngineStats `json:"engine"`
}

// ServerCounters aggregates protocol-level events across every connection
// the server has handled.
type ServerCounters struct {
	ConnsOpened uint64 `json:"conns_opened"`
	ConnsClosed uint64 `json:"conns_closed"`

	// Per-op accepted request counts.
	ReadOps  uint64 `json:"read_ops"`
	WriteOps uint64 `json:"write_ops"`
	FlushOps uint64 `json:"flush_ops"`
	StatsOps uint64 `json:"stats_ops"`
	RootOps  uint64 `json:"root_ops"`
	HelloOps uint64 `json:"hello_ops"`

	// RootPinned counts responses that carried a root-pin suffix
	// (requests asking via FlagRootPin). Each pin is a quiescent point for
	// the shards written since the last one (their deferred leaves flush);
	// pins with nothing pending cost a cached digest.
	RootPinned uint64 `json:"root_pinned"`

	// Data moved, in blocks.
	BlocksRead    uint64 `json:"blocks_read"`
	BlocksWritten uint64 `json:"blocks_written"`

	// Admission-control outcomes.
	BusyRejected     uint64 `json:"busy_rejected"`
	DeadlineRejected uint64 `json:"deadline_rejected"`
	DrainRejected    uint64 `json:"drain_rejected"`
	BadRequests      uint64 `json:"bad_requests"`
	MalformedFrames  uint64 `json:"malformed_frames"`

	// InlineServed counts reads and writes that ran to completion on their
	// connection's reader goroutine — the connection was idle and the
	// backend needed to wait for nothing — instead of taking the queue.
	// They are counted in ReadOps/WriteOps like any other, so ReadOps +
	// WriteOps − InlineServed is the number of data requests queued.
	InlineServed uint64 `json:"inline_served"`

	// AffinityBypassed and CoalescedRequests are always 0: the server has
	// no shard-pinned workers and no span coalescer. They stay in the
	// document only because the benchmark harness (bench/) reads them.
	AffinityBypassed  uint64 `json:"affinity_bypassed"`
	CoalescedRequests uint64 `json:"coalesced_requests"`

	// Engine verdicts surfaced on the wire.
	MACFails    uint64 `json:"mac_fails"`
	Quarantined uint64 `json:"quarantined"`
	Recovered   uint64 `json:"recovered"`
}

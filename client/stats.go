package client

import "authmem/internal/counter"

// Stats is a point-in-time snapshot of the client's own transport counters:
// how hard this client has had to work to get its calls through, independent
// of anything the server reports. Cumulative since New.
//
// The server's view of the same conversation is ServerStats.
type Stats struct {
	// Attempts counts request attempts put on the wire, including
	// re-attempts of the same logical call.
	Attempts uint64 `json:"attempts"`

	// Retries counts attempts beyond each call's first — Attempts minus
	// the number of logical calls that reached the transport.
	Retries uint64 `json:"retries"`

	// BusyDeferrals and DeadlineDeferrals count BUSY and DEADLINE
	// rejections from the server's admission control; each one backs off
	// and re-attempts (until MaxRetries).
	BusyDeferrals     uint64 `json:"busy_deferrals"`
	DeadlineDeferrals uint64 `json:"deadline_deferrals"`

	// Timeouts counts attempts abandoned because no response arrived
	// within RequestTimeout.
	Timeouts uint64 `json:"timeouts"`

	// TransportErrors counts attempts that failed below the protocol:
	// dial failures, broken writes, connections lost mid-read.
	TransportErrors uint64 `json:"transport_errors"`

	// Reconnects counts pool slots re-dialed after their session broke.
	// The initial dials in New are not reconnects.
	Reconnects uint64 `json:"reconnects"`

	// RetriesExhausted counts logical calls that failed after their last
	// permitted attempt.
	RetriesExhausted uint64 `json:"retries_exhausted"`
}

// Stats returns the client-side transport counters.
func (c *Client) Stats() Stats { return counter.Load(&c.ctr) }

package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"testing"
)

// statsSnapshotKeys is the OpStats document's key sequence, in encoding
// order, with each half's keys prefixed by its own. Clients and tools parse
// this document, so changing this list is a protocol change.
var statsSnapshotKeys = []string{
	"proto_version",
	"server",
	"server.conns_opened", "server.conns_closed",
	"server.read_ops", "server.write_ops", "server.flush_ops",
	"server.stats_ops", "server.root_ops", "server.hello_ops",
	"server.root_pinned",
	"server.blocks_read", "server.blocks_written",
	"server.busy_rejected", "server.deadline_rejected", "server.drain_rejected",
	"server.bad_requests", "server.malformed_frames",
	"server.inline_served",
	"server.affinity_bypassed", "server.coalesced_requests",
	"server.mac_fails", "server.quarantined", "server.recovered",
	"engine",
	"engine.Reads", "engine.Writes", "engine.FreshReads",
	"engine.IntegrityFailures", "engine.CorrectedDataBits", "engine.CorrectedMACBits",
	"engine.SECDEDCorrected", "engine.ScrubPasses", "engine.ScrubFlagged",
	"engine.GroupReencrypts",
	"engine.RetriedReads", "engine.RetryRecoveries", "engine.MetadataRepairs",
	"engine.Quarantined", "engine.QuarantineRefusals",
	"engine.MetaCacheHits", "engine.MetaCacheMisses",
	"engine.DataCacheHits", "engine.DataCacheMisses",
	"engine.WriteCombines", "engine.DeferredLeafFlushes",
	"engine.LockFreeHits", "engine.SeqlockRetries", "engine.SlowPathReads",
}

// TestStatsSnapshotJSONKeys pins the full key set of an encoded
// StatsSnapshot, server and engine halves, in the order it is written.
func TestStatsSnapshotJSONKeys(t *testing.T) {
	doc, err := json.Marshal(StatsSnapshot{})
	if err != nil {
		t.Fatal(err)
	}
	// The document holds objects and scalars only, so after a key comes its
	// value, and after a value or a closed object comes the next key.
	dec := json.NewDecoder(bytes.NewReader(doc))
	var keys []string
	var top string
	depth, wantKey := 0, false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch v := tok.(type) {
		case json.Delim:
			if v == '{' {
				depth++
			} else {
				depth--
			}
			wantKey = v == '{' || depth > 0
		case string:
			if !wantKey {
				wantKey = true
			} else if depth == 1 {
				top = v
				keys = append(keys, v)
				wantKey = false
			} else {
				keys = append(keys, top+"."+v)
				wantKey = false
			}
		default:
			wantKey = true
		}
	}
	if !slices.Equal(keys, statsSnapshotKeys) {
		t.Fatalf("StatsSnapshot keys changed:\n got %q\nwant %q", keys, statsSnapshotKeys)
	}
}

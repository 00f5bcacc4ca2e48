package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// spanName is one call boundary the benchmark can see from outside.
type spanName uint8

const (
	spanOp spanName = iota
	spanCoreRead
	spanCoreWrite
	spanCodecRead
	spanCodecWrite
	spanClientRead
	spanClientWrite
	spanClusterRead
	spanClusterWrite
	spanConnWrite
	spanEpoch
	spanFlushAll
	spanAppendDelta
	spanSync
	spanCheckpoint
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "core.ReadBlocks", "core.WriteBlocks", "codec.Read", "codec.Write",
	"client.Read", "client.Write", "cluster.Read", "cluster.Write", "conn.Write",
	"persist.epoch", "core.FlushAll", "persist.AppendDeltaShard", "device.Sync",
	"persist.checkpoint",
}

// span is one recorded call: when it ran, the span that caused it (Parent, 0
// for a root) and the op span it serves.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxKeptSpans bounds the trace file; durations of every span still feed
// the per-layer medians.
const maxKeptSpans = 20000

// recorder keeps the traced run's spans in memory. A nil recorder, or one
// that is switched off, records nothing: the untraced windows run the same
// code.
type recorder struct {
	base time.Time
	on   atomic.Bool // spans are recorded only while set

	mu    sync.Mutex
	next  int32
	kept  []span
	durs  [numSpanNames][]float64 // ns, spans ended since the last drain
	norms [numSpanNames][]float64 // per slice: median duration / reference iteration
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) off() bool { return r == nil || !r.on.Load() }

func (r *recorder) now() time.Duration {
	if r.off() {
		return 0
	}
	return time.Since(r.base)
}

// reserve hands out a span ID before the span ends, so its children can name
// it as their parent.
func (r *recorder) reserve() int32 {
	if r.off() {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records a span that started at start and ends now, caused by span
// parent on behalf of op (both 0 when unknown, as for connection writes that
// carry several callers' requests).
func (r *recorder) add(name spanName, start time.Duration, parent, op int32) {
	if !r.off() {
		r.addReserved(r.reserve(), name, start, parent, op)
	}
}

func (r *recorder) addReserved(id int32, name spanName, start time.Duration, parent, op int32) {
	if r.off() {
		return
	}
	end := time.Since(r.base)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.durs[name] = append(r.durs[name], float64(end-start))
	if len(r.kept) < maxKeptSpans {
		r.kept = append(r.kept, span{spanNames[name], id, parent, op, int64(start), int64(end)})
	}
}

// drain closes a work slice: each span name's median duration in the slice,
// divided by refIterNs, becomes one sample of that name's normalised cost.
func (r *recorder) drain(refIterNs float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for n := range r.durs {
		if len(r.durs[n]) > 0 {
			r.norms[n] = append(r.norms[n], median(r.durs[n])/refIterNs)
			r.durs[n] = r.durs[n][:0]
		}
	}
}

// cost is the median over slices of name's normalised span duration.
func (r *recorder) cost(name spanName) float64 { return median(r.norms[name]) }

func (r *recorder) writeFile(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.kept)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}

package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"authmem"
)

// durable is the persistence side of embed-durable: a base image plus one
// delta log per shard in real files, an epoch sealed every epochOps ops
// (FlushAll, AppendDeltaShard and one File.Sync per shard file), and a fold
// into a fresh base every foldEvery epochs. Flush policy: sync once per
// epoch per file. It is driven by op count only, so what it writes is a
// function of the seed.
type durable struct {
	mem   *authmem.ShardedMemory
	dir   string
	rec   *recorder
	gen   int
	logFs []*os.File
	logs  []*authmem.DeltaLog

	epochs      int // sealed since the last fold
	epochsTotal int
	groups      int   // dirty groups appended, all epochs
	epochBytes  int64 // log growth, all epochs
	bytes       int64 // everything appended to durable files, folds included
	fsyncs      int
	fsyncNs     []float64
	stallNs     int64 // foreground time spent sealing and folding
}

func newDurable(mem *authmem.ShardedMemory, dir string, rec *recorder) (*durable, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &durable{mem: mem, dir: dir, rec: rec}
	return d, d.fold(0, 0)
}

func (d *durable) basePath(gen int) string {
	return filepath.Join(d.dir, fmt.Sprintf("base-%d.img", gen))
}

func (d *durable) logPath(gen, shard int) string {
	return filepath.Join(d.dir, fmt.Sprintf("wal-%d-%d.log", gen, shard))
}

func (d *durable) sync(f *os.File, parent, op int32) error {
	t0 := time.Now()
	s0 := d.rec.now()
	err := f.Sync()
	d.rec.add(spanSync, s0, parent, op)
	d.fsyncs++
	d.fsyncNs = append(d.fsyncNs, float64(time.Since(t0)))
	return err
}

// fold checkpoints every shard into a new generation (base image + fresh
// logs), syncs it, and removes the generation it replaces.
func (d *durable) fold(parent, op int32) (err error) {
	id := d.rec.reserve()
	s0 := d.rec.now()
	gen := d.gen + 1
	base, err := os.Create(d.basePath(gen))
	if err != nil {
		return err
	}
	logFs := make([]*os.File, 0, shards)
	defer func() {
		if err != nil {
			base.Close()
			for _, f := range logFs {
				f.Close()
			}
		}
	}()
	if err := d.mem.BeginShardedImage(base); err != nil {
		return err
	}
	logs := make([]*authmem.DeltaLog, shards)
	for i := range logs {
		f, err := os.Create(d.logPath(gen, i))
		if err != nil {
			return err
		}
		logFs = append(logFs, f)
		if _, logs[i], err = d.mem.CheckpointShard(i, base, f); err != nil {
			return err
		}
		if err := d.sync(f, id, op); err != nil {
			return err
		}
		d.bytes += logs[i].Offset()
	}
	if err := d.sync(base, id, op); err != nil {
		return err
	}
	size, err := base.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	if err := base.Close(); err != nil {
		return err
	}
	d.bytes += size
	d.closeLogs()
	os.Remove(d.basePath(d.gen))
	for i := 0; i < shards; i++ {
		os.Remove(d.logPath(d.gen, i))
	}
	d.gen, d.logFs, d.logs, d.epochs = gen, logFs, logs, 0
	d.rec.addReserved(id, spanCheckpoint, s0, parent, op)
	return nil
}

// sealEpoch makes every write so far durable. It runs inside the work slice:
// the op that triggers it (span op, 0 when untraced) pays for it.
func (d *durable) sealEpoch(op int32) error {
	t0 := time.Now()
	defer func() { d.stallNs += int64(time.Since(t0)) }()
	id := d.rec.reserve()
	s0 := d.rec.now()
	if err := d.mem.FlushAll(); err != nil {
		return err
	}
	d.rec.add(spanFlushAll, s0, id, op)
	for i, l := range d.logs {
		a0 := d.rec.now()
		st, err := d.mem.AppendDeltaShard(i, l)
		if err != nil {
			return err
		}
		d.rec.add(spanAppendDelta, a0, id, op)
		d.groups += st.Groups
		d.epochBytes += st.Bytes
		d.bytes += st.Bytes
		if err := d.sync(d.logFs[i], id, op); err != nil {
			return err
		}
	}
	d.rec.addReserved(id, spanEpoch, s0, op, op)
	d.epochs++
	d.epochsTotal++
	if d.epochs == foldEvery {
		return d.fold(id, op)
	}
	return nil
}

// reopen rebuilds the region from the files alone, pinned to root: what a
// restart after the last sealed epoch sees. The caller discards the engine.
func (d *durable) reopen(region uint64, root authmem.RootDigest) (*authmem.ShardedMemory, error) {
	d.closeLogs()
	base, err := os.Open(d.basePath(d.gen))
	if err != nil {
		return nil, err
	}
	defer base.Close()
	wals := make([]io.Reader, shards)
	for i := range wals {
		f, err := os.Open(d.logPath(d.gen, i))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		wals[i] = f
	}
	mem, reports, err := authmem.ResumeShardedIncremental(benchConfig(region), shards, base, wals, &root)
	if err != nil {
		return nil, err
	}
	for i, rep := range reports {
		if rep.Status != authmem.RecoveryClean {
			return nil, fmt.Errorf("shard %d resumed %v: %s", i, rep.Status, rep.Reason)
		}
	}
	return mem, nil
}

func (d *durable) closeLogs() {
	for _, f := range d.logFs {
		f.Close()
	}
	d.logFs, d.logs = nil, nil
}

func (d *durable) close() {
	d.closeLogs()
	os.RemoveAll(d.dir)
}

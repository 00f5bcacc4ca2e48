// Durable mode: -wal <dir> keeps the served region on disk as a base
// snapshot plus per-shard delta logs, checkpointed in the background at
// -checkpoint-interval. A restart replays the logs through the verified
// resume path and refuses to start on rollback — the daemon never silently
// serves stale state.
//
// Directory layout (one generation live at a time):
//
//	base-<gen>.img        sharded base image
//	wal-<gen>-<shard>.log sealed delta log, one per shard
//	MANIFEST              sealed pin: generation + per-shard (epoch, root)
//
// The manifest is the trust anchor. It is HMAC-sealed under a key derived
// from the device secret and rewritten (write-temp, fsync, rename, fsync
// dir) after every checkpoint epoch, so its per-shard (epoch, root) pins
// always name durable log state. Recovery accepts a log with MORE committed
// epochs than the manifest pins (a crash between log fsync and manifest
// rename) but refuses fewer or a different root — that is a rollback.
//
// Writers never append to a recovered log: startup always folds into a
// fresh generation (new base, empty logs, manifest at epoch 0), so every
// log is written by exactly one process start. The background loop appends
// an epoch per interval when dirty groups exist and folds into a new
// generation when the logs outgrow the fold threshold.
package main

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"authmem"
)

var manifestMagic = [8]byte{'A', 'M', 'E', 'M', 'M', 'A', 'N', '1'}

const manifestName = "MANIFEST"

// manifest is the sealed durable pin: which generation's files are live and
// how many epochs of each shard's log are trusted, with the root each pin
// must hash to.
type manifest struct {
	Gen    uint64
	Epochs []uint64             // committed epochs per shard
	Roots  []authmem.RootDigest // root at Epochs[i] per shard
}

func manifestKey(deviceKey []byte) []byte {
	h := sha256.New()
	h.Write([]byte("authmem/manifest/seal/v1"))
	h.Write(deviceKey)
	return h.Sum(nil)
}

func (m *manifest) marshal(key []byte) []byte {
	var buf bytes.Buffer
	buf.Write(manifestMagic[:])
	var u [8]byte
	binary.LittleEndian.PutUint64(u[:], m.Gen)
	buf.Write(u[:])
	binary.LittleEndian.PutUint64(u[:], uint64(len(m.Epochs)))
	buf.Write(u[:])
	for i := range m.Epochs {
		binary.LittleEndian.PutUint64(u[:], m.Epochs[i])
		buf.Write(u[:])
		buf.Write(m.Roots[i][:])
	}
	mac := hmac.New(sha256.New, key)
	mac.Write(buf.Bytes())
	buf.Write(mac.Sum(nil))
	return buf.Bytes()
}

var errManifestSeal = errors.New("manifest seal verification failed (wrong key or tampered pin)")

func parseManifest(data, key []byte) (*manifest, error) {
	if len(data) < 8+8+8+sha256.Size {
		return nil, fmt.Errorf("manifest too short (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:8], manifestMagic[:]) {
		return nil, fmt.Errorf("bad manifest magic")
	}
	body, seal := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	mac := hmac.New(sha256.New, key)
	mac.Write(body)
	if !hmac.Equal(mac.Sum(nil), seal) {
		return nil, errManifestSeal
	}
	m := &manifest{Gen: binary.LittleEndian.Uint64(body[8:16])}
	shards := binary.LittleEndian.Uint64(body[16:24])
	want := 24 + int(shards)*(8+len(authmem.RootDigest{}))
	if shards > 1<<16 || len(body) != want {
		return nil, fmt.Errorf("manifest body %d bytes, want %d for %d shards", len(body), want, shards)
	}
	off := 24
	for i := 0; i < int(shards); i++ {
		m.Epochs = append(m.Epochs, binary.LittleEndian.Uint64(body[off:off+8]))
		var r authmem.RootDigest
		copy(r[:], body[off+8:off+8+len(r)])
		m.Roots = append(m.Roots, r)
		off += 8 + len(r)
	}
	return m, nil
}

// writeManifest commits the pin atomically: temp file, fsync, rename over
// MANIFEST, fsync the directory. Everything the manifest points at must be
// durable before this is called.
func writeManifest(dir string, m *manifest, key []byte) error {
	path := filepath.Join(dir, manifestName)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(m.marshal(key)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func basePath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("base-%d.img", gen))
}

func walPath(dir string, gen uint64, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%d-%d.log", gen, shard))
}

// rootAt returns a recovered shard's root after `epochs` committed epochs.
func rootAt(rep *authmem.RecoveryReport, epochs uint64) (authmem.RootDigest, bool) {
	if epochs == 0 {
		return rep.BaseRoot, true
	}
	if int(epochs) > len(rep.EpochRoots) {
		return authmem.RootDigest{}, false
	}
	return rep.EpochRoots[epochs-1], true
}

type durableOptions struct {
	dir       string
	interval  time.Duration
	foldBytes int64 // fold when logs exceed this; 0 = max(base/4, 1MB)
	logf      func(format string, args ...any)
}

// durableStore owns the on-disk generation behind a Memory: the open
// log files, the epoch/root pins, and the fold machinery. All disk-side
// state is guarded by mu; the memory itself takes its own shard locks.
type durableStore struct {
	mem  *authmem.Memory
	opts durableOptions
	key  []byte // manifest seal key

	mu      sync.Mutex
	gen     uint64
	baseLen int64
	logFs   []*os.File
	logs    []*authmem.DeltaLog
	man     *manifest
	closed  bool
}

// openDurable builds (or recovers) the region from opts.dir and leaves it
// checkpointed into a fresh generation with open, empty delta logs.
func openDurable(cfg authmem.Config, shards int, opts durableOptions) (*durableStore, error) {
	if opts.logf == nil {
		opts.logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(opts.dir, 0o755); err != nil {
		return nil, err
	}
	d := &durableStore{opts: opts, key: manifestKey(cfg.Key)}

	manData, err := os.ReadFile(filepath.Join(opts.dir, manifestName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		opts.logf("durable: no manifest in %s, starting fresh", opts.dir)
		mem, err := authmem.NewSharded(cfg, shards)
		if err != nil {
			return nil, err
		}
		mem.EnableDeltaTracking()
		d.mem = mem
	case err != nil:
		return nil, err
	default:
		man, err := parseManifest(manData, d.key)
		if err != nil {
			return nil, fmt.Errorf("durable: %w", err)
		}
		if len(man.Epochs) != shards {
			return nil, fmt.Errorf("durable: manifest pins %d shards, daemon configured for %d", len(man.Epochs), shards)
		}
		mem, err := d.recover(cfg, shards, man)
		if err != nil {
			return nil, err
		}
		d.mem = mem
		d.gen = man.Gen
	}

	// Fold into a fresh generation so this process start owns its logs
	// end to end — recovered logs are never appended to.
	if err := d.checkpoint(); err != nil {
		return nil, fmt.Errorf("durable: initial checkpoint: %w", err)
	}
	return d, nil
}

// recover resumes the manifest's generation through the verified incremental
// path, then checks every shard's recovered history against the sealed pins.
func (d *durableStore) recover(cfg authmem.Config, shards int, man *manifest) (*authmem.Memory, error) {
	base, err := os.Open(basePath(d.opts.dir, man.Gen))
	if err != nil {
		return nil, fmt.Errorf("durable: manifest names generation %d but %w", man.Gen, err)
	}
	defer base.Close()
	wals := make([]io.Reader, shards)
	for i := 0; i < shards; i++ {
		f, err := os.Open(walPath(d.opts.dir, man.Gen, i))
		if errors.Is(err, os.ErrNotExist) {
			continue // shard never got a log written; pin must be epoch 0
		}
		if err != nil {
			return nil, err
		}
		defer f.Close()
		wals[i] = f
	}

	mem, reports, err := authmem.ResumeShardedIncremental(cfg, shards, base, wals, nil)
	if err != nil {
		return nil, fmt.Errorf("durable: recovery refused: %w", err)
	}
	for i, rep := range reports {
		// The log may run ahead of the manifest (crash between log fsync
		// and manifest rename): extra sealed epochs are trusted. Fewer
		// epochs than the pin, or a different root at the pinned epoch,
		// is a rollback and the daemon refuses to serve.
		if uint64(rep.Epochs) < man.Epochs[i] {
			return nil, fmt.Errorf("durable: shard %d recovered only %d epochs, manifest pins %d — rollback", i, rep.Epochs, man.Epochs[i])
		}
		got, ok := rootAt(rep, man.Epochs[i])
		if !ok || got != man.Roots[i] {
			return nil, fmt.Errorf("durable: shard %d root at pinned epoch %d does not match manifest — rollback", i, man.Epochs[i])
		}
		if rep.Status != authmem.RecoveryClean || uint64(rep.Epochs) > man.Epochs[i] {
			d.opts.logf("durable: shard %d: %s, %d epochs (%d pinned), %d groups, %d dropped %s",
				i, rep.Status, rep.Epochs, man.Epochs[i], rep.Groups, rep.Dropped, rep.Reason)
		}
	}
	d.opts.logf("durable: recovered generation %d (%d shards) to verified roots", man.Gen, shards)
	return mem, nil
}

// checkpoint folds the whole region into a new generation: fresh base image,
// fresh empty logs, manifest pinned at epoch 0. Shards are persisted one at
// a time under their own locks, so traffic on other shards keeps flowing.
// Caller must NOT hold d.mu... it is taken here.
func (d *durableStore) checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.checkpointLocked()
}

func (d *durableStore) checkpointLocked() error {
	gen := d.gen + 1
	shards := d.mem.Shards()
	baseF, err := os.Create(basePath(d.opts.dir, gen))
	if err != nil {
		return err
	}
	if err := d.mem.BeginShardedImage(baseF); err != nil {
		baseF.Close()
		return err
	}
	newLogFs := make([]*os.File, shards)
	newLogs := make([]*authmem.DeltaLog, shards)
	man := &manifest{Gen: gen, Epochs: make([]uint64, shards), Roots: make([]authmem.RootDigest, shards)}
	fail := func(err error) error {
		baseF.Close()
		for _, f := range newLogFs {
			if f != nil {
				f.Close()
			}
		}
		return err
	}
	for i := 0; i < shards; i++ {
		logF, err := os.Create(walPath(d.opts.dir, gen, i))
		if err != nil {
			return fail(err)
		}
		newLogFs[i] = logF
		root, dl, err := d.mem.CheckpointShard(i, baseF, logF)
		if err != nil {
			return fail(err)
		}
		newLogs[i] = dl
		man.Roots[i] = root
		if err := logF.Sync(); err != nil {
			return fail(err)
		}
	}
	if err := baseF.Sync(); err != nil {
		return fail(err)
	}
	baseLen, err := baseF.Seek(0, io.SeekCurrent)
	if err != nil {
		return fail(err)
	}
	if err := baseF.Close(); err != nil {
		return fail(err)
	}
	// The new generation is durable; the manifest rename is the commit
	// point. A crash before it leaves the old generation live and the new
	// files inert (they are recreated with O_TRUNC next time).
	if err := writeManifest(d.opts.dir, man, d.key); err != nil {
		for _, f := range newLogFs {
			f.Close()
		}
		return err
	}
	oldGen, oldLogs := d.gen, d.logFs
	d.gen, d.man, d.baseLen = gen, man, baseLen
	d.logFs, d.logs = newLogFs, newLogs
	for _, f := range oldLogs {
		if f != nil {
			f.Close()
		}
	}
	d.pruneLocked(oldGen)
	d.opts.logf("durable: checkpointed generation %d (%d bytes base)", gen, baseLen)
	return nil
}

// pruneLocked removes superseded generation files; best effort.
func (d *durableStore) pruneLocked(oldGen uint64) {
	if oldGen == d.gen {
		return
	}
	os.Remove(basePath(d.opts.dir, oldGen))
	for i := 0; i < d.mem.Shards(); i++ {
		os.Remove(walPath(d.opts.dir, oldGen, i))
	}
}

// appendEpoch seals one delta epoch across all shards and re-pins the
// manifest. When nothing is dirty it is a no-op — the logs and manifest
// already name current state. When the logs outgrow the fold threshold, or a
// log can no longer be appended to, the epoch is taken as a full checkpoint
// instead.
func (d *durableStore) appendEpoch() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("durable: store closed")
	}
	if d.mem.DirtyGroups() == 0 {
		return nil
	}
	threshold := d.opts.foldBytes
	if threshold <= 0 {
		threshold = d.baseLen / 4
		if threshold < 1<<20 {
			threshold = 1 << 20
		}
	}
	var logBytes int64
	for _, l := range d.logs {
		logBytes += l.Offset()
	}
	if logBytes >= threshold {
		return d.checkpointLocked()
	}

	man := &manifest{Gen: d.gen, Epochs: make([]uint64, len(d.logs)), Roots: make([]authmem.RootDigest, len(d.logs))}
	var groups int
	for i, l := range d.logs {
		st, err := d.mem.AppendDeltaShard(i, l)
		if err == nil {
			err = d.logFs[i].Sync()
		}
		if err != nil {
			// A log whose write or sync failed never seals another epoch
			// (wal.Writer is dead after a failed write): take this epoch as
			// a fold — fresh base, fresh logs, manifest re-pinned — now,
			// instead of failing at every interval from here on.
			d.opts.logf("durable: shard %d log failed (%v); folding into a fresh generation", i, err)
			return d.checkpointLocked()
		}
		man.Epochs[i] = st.Epoch + 1
		man.Roots[i] = st.Root
		groups += st.Groups
	}
	if err := writeManifest(d.opts.dir, man, d.key); err != nil {
		return err
	}
	d.man = man
	d.opts.logf("durable: epoch sealed (%d dirty groups, logs %d bytes)", groups, logBytes)
	return nil
}

// run is the background checkpoint loop; it exits when stop is closed.
func (d *durableStore) run(stop <-chan struct{}) {
	t := time.NewTicker(d.opts.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := d.appendEpoch(); err != nil {
				d.opts.logf("durable: checkpoint epoch failed: %v", err)
			}
		case <-stop:
			return
		}
	}
}

// close seals a final epoch (the drain already quiesced traffic), commits
// the manifest, and closes the log files.
func (d *durableStore) close() error {
	if err := d.appendEpoch(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	var firstErr error
	for _, f := range d.logFs {
		if f != nil {
			if err := f.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	d.logFs = nil
	return firstErr
}

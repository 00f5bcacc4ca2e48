package authmem

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

	"authmem/internal/wal"
)

// The durable store keeps a Memory on disk as a base image plus one sealed
// delta log per shard, pinned by a sealed manifest:
//
//	base-<gen>.img        sharded base image
//	wal-<gen>-<shard>.log sealed delta log, one per shard
//	MANIFEST              sealed pin: generation + per-shard (epoch, root)
//
// One generation is live at a time. The manifest is the trust anchor: it is
// HMAC-sealed under a key derived from the device secret and rewritten
// (write-temp, fsync, rename, fsync dir) after every epoch, so its per-shard
// (epoch, root) pins always name durable log state. Recovery accepts a log
// with MORE committed epochs than the manifest pins (a crash between log
// fsync and manifest rename) but refuses fewer or a different root — that is
// a rollback.
//
// Writers never append to a recovered log: opening always folds into a fresh
// generation (new base, empty logs, manifest at epoch 0), so every log is
// written by exactly one open.

var manifestMagic = [8]byte{'A', 'M', 'E', 'M', 'M', 'A', 'N', '1'}

const manifestName = "MANIFEST"

// manifest is the sealed durable pin: which generation's files are live and
// how many epochs of each shard's log are trusted, with the root each pin
// must hash to.
type manifest struct {
	Gen    uint64
	Epochs []uint64     // committed epochs per shard
	Roots  []RootDigest // root at Epochs[i] per shard
}

func manifestKey(deviceKey []byte) []byte {
	h := sha256.New()
	h.Write([]byte("authmem/manifest/seal/v1"))
	h.Write(deviceKey)
	return h.Sum(nil)
}

func (m *manifest) marshal(key []byte) []byte {
	b := append([]byte(nil), manifestMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, m.Gen)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(m.Epochs)))
	for i := range m.Epochs {
		b = binary.LittleEndian.AppendUint64(b, m.Epochs[i])
		b = append(b, m.Roots[i][:]...)
	}
	mac := hmac.New(sha256.New, key)
	mac.Write(b)
	return mac.Sum(b)
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
	want := 24 + int(shards)*(8+len(RootDigest{}))
	if shards > 1<<16 || len(body) != want {
		return nil, fmt.Errorf("manifest body %d bytes, want %d for %d shards", len(body), want, shards)
	}
	for off := 24; off < len(body); off += 8 + len(RootDigest{}) {
		m.Epochs = append(m.Epochs, binary.LittleEndian.Uint64(body[off:]))
		m.Roots = append(m.Roots, RootDigest(body[off+8:]))
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
	_, err = f.Write(m.marshal(key))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
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
func rootAt(rep *RecoveryReport, epochs uint64) (RootDigest, bool) {
	if epochs == 0 {
		return rep.BaseRoot, true
	}
	if int(epochs) > len(rep.EpochRoots) {
		return RootDigest{}, false
	}
	return rep.EpochRoots[epochs-1], true
}

// Durable is a Memory kept on disk in a directory: the embedded Memory is
// the live region, and Seal makes everything written to it so far durable.
// Its disk-side state is guarded by its own lock; the Memory takes its shard
// locks as usual, so traffic keeps flowing while an epoch is sealed.
//
// The store owns the region's delta log: calling BeginShardedImage,
// CheckpointShard or AppendDeltaShard on a Durable moves the engine's epoch
// counters and dirty sets behind the store's back and corrupts its next
// Seal. Those methods exist only for the frozen benchmark harness.
type Durable struct {
	*Memory

	// Pinned holds the epochs the manifest pinned per shard at open (nil
	// when fresh); a log may be ahead of its pin, never behind.
	Pinned []uint64
	// Opened is the fold OpenDurable ended with.
	Opened SealReport

	dir string
	key []byte // manifest seal key

	mu      sync.Mutex
	gen     uint64
	baseLen int64
	logFs   []*os.File
	logs    []*wal.Writer
	man     *manifest
	closed  bool
	// refold is set when a fold failed, maybe after clearing dirty sets:
	// the logs may miss writes, so the next seal folds even with nothing
	// dirty. Until then gen names the failed generation, not the logs'.
	refold bool

	// foldBytes overrides the fold threshold when non-zero (tests only).
	foldBytes int64
}

// SealReport says what one Seal did.
type SealReport struct {
	// Groups is the number of dirty-group records the epoch sealed across
	// all shards (0 when nothing was dirty or the seal folded).
	Groups int
	// FoldReason is non-empty when the seal wrote a fresh generation (base
	// image, empty logs, manifest at epoch 0) instead of an epoch, and says
	// why: open, log growth, a failed log, or an earlier failed fold.
	FoldReason string
	// Generation is the generation pinned after the seal, BaseBytes its
	// base size, LogBytes its logs' combined length before the seal.
	Generation uint64
	BaseBytes  int64
	LogBytes   int64
}

// OpenDurable opens the durable region kept in dir, creating the directory
// and a fresh region when it holds no manifest. An existing region resumes
// through the verified incremental path and is checked against the sealed
// manifest: a log behind its pin, a different root at the pinned epoch, a
// tampered manifest or the wrong key is refused, never served. reports holds
// one recovery verdict per shard (nil for a fresh region). Either way the
// region is folded into a fresh generation before OpenDurable returns, and
// every file of any other generation is removed.
func OpenDurable(dir string, cfg Config, shards int) (*Durable, []*RecoveryReport, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	d := &Durable{dir: dir, key: manifestKey(cfg.Key)}
	var reports []*RecoveryReport
	manData, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		if d.Memory, err = NewSharded(cfg, shards); err != nil {
			return nil, nil, err
		}
		d.eng.EnableDeltaTracking()
	case err != nil:
		return nil, nil, err
	default:
		man, err := parseManifest(manData, d.key)
		if err != nil {
			return nil, nil, fmt.Errorf("durable: %w", err)
		}
		if len(man.Epochs) != shards {
			return nil, nil, fmt.Errorf("durable: manifest pins %d shards, opened with %d", len(man.Epochs), shards)
		}
		if d.Memory, reports, err = recoverGeneration(dir, cfg, man); err != nil {
			return nil, reports, err
		}
		d.gen, d.Pinned = man.Gen, man.Epochs
	}
	if d.Opened, err = d.fold(); err != nil {
		return nil, reports, fmt.Errorf("durable: initial fold: %w", err)
	}
	d.Opened.FoldReason = "opened"
	return d, reports, nil
}

// recoverGeneration resumes the manifest's generation through the verified
// incremental path, then checks every shard's recovered history against the
// sealed pins.
func recoverGeneration(dir string, cfg Config, man *manifest) (*Memory, []*RecoveryReport, error) {
	base, err := os.Open(basePath(dir, man.Gen))
	if err != nil {
		return nil, nil, fmt.Errorf("durable: manifest names generation %d but %w", man.Gen, err)
	}
	defer base.Close()
	wals := make([]io.Reader, len(man.Epochs))
	for i := range wals {
		f, err := os.Open(walPath(dir, man.Gen, i))
		if errors.Is(err, os.ErrNotExist) {
			continue // shard never got a log written; pin must be epoch 0
		}
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		wals[i] = f
	}
	mem, reports, err := ResumeShardedIncremental(cfg, len(wals), base, wals, nil)
	if err != nil {
		return nil, reports, fmt.Errorf("durable: recovery refused: %w", err)
	}
	for i, rep := range reports {
		// The log may run ahead of the manifest (crash between log fsync
		// and manifest rename): extra sealed epochs are trusted. Fewer
		// epochs than the pin, or a different root at the pinned epoch, is
		// a rollback.
		if uint64(rep.Epochs) < man.Epochs[i] {
			return nil, reports, fmt.Errorf("durable: shard %d recovered only %d epochs, manifest pins %d — rollback", i, rep.Epochs, man.Epochs[i])
		}
		if got, ok := rootAt(rep, man.Epochs[i]); !ok || got != man.Roots[i] {
			return nil, reports, fmt.Errorf("durable: shard %d root at pinned epoch %d does not match manifest — rollback", i, man.Epochs[i])
		}
	}
	return mem, reports, nil
}

// fold writes the whole region into a new generation: fresh base image,
// fresh empty logs, manifest pinned at epoch 0, then removes every file of
// any other generation. Shards are persisted one at a time under their own
// locks, so traffic on other shards keeps flowing. Each CheckpointShard
// clears its shard's dirty set, so a failed fold sets d.refold. The caller
// holds d.mu or owns d exclusively.
func (d *Durable) fold() (SealReport, error) {
	gen := d.gen + 1
	shards := d.Shards()
	baseF, err := os.Create(basePath(d.dir, gen))
	if err != nil {
		return SealReport{}, err
	}
	newLogFs := make([]*os.File, shards)
	newLogs := make([]*wal.Writer, shards)
	man := &manifest{Gen: gen, Epochs: make([]uint64, shards), Roots: make([]RootDigest, shards)}
	fail := func(err error) (SealReport, error) {
		// The manifest may already name gen (a failed directory fsync
		// after the rename), so the next fold must not rewrite its files.
		d.gen, d.refold = gen, true
		baseF.Close()
		for _, f := range newLogFs {
			if f != nil {
				f.Close()
			}
		}
		return SealReport{}, err
	}
	if err := d.eng.BeginShardedImage(baseF); err != nil {
		return fail(err)
	}
	for i := 0; i < shards; i++ {
		logF, err := os.Create(walPath(d.dir, gen, i))
		if err != nil {
			return fail(err)
		}
		newLogFs[i] = logF
		if man.Roots[i], newLogs[i], err = d.eng.CheckpointShard(i, baseF, logF); err != nil {
			return fail(err)
		}
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
	// files inert (they are recreated with O_TRUNC by the next fold).
	if err := writeManifest(d.dir, man, d.key); err != nil {
		return fail(err)
	}
	for _, f := range d.logFs {
		f.Close()
	}
	d.gen, d.man, d.baseLen, d.refold = gen, man, baseLen, false
	d.logFs, d.logs = newLogFs, newLogs
	d.prune()
	return SealReport{Generation: gen, BaseBytes: baseLen}, nil
}

// prune removes every generation file that is not the live generation's,
// and any manifest temp file a crash left behind; best effort. Sweeping the
// whole directory, not just the generation a fold replaced, also collects a
// generation whose prune a crash interrupted.
func (d *Durable) prune() {
	live := map[string]bool{basePath(d.dir, d.gen): true}
	for i := range d.logs {
		live[walPath(d.dir, d.gen, i)] = true
	}
	ents, _ := os.ReadDir(d.dir)
	for _, e := range ents {
		path := filepath.Join(d.dir, e.Name())
		base, _ := filepath.Match("base-*.img", e.Name())
		log, _ := filepath.Match("wal-*-*.log", e.Name())
		if (base || log) && !live[path] || e.Name() == manifestName+".tmp" {
			os.Remove(path)
		}
	}
}

// foldThreshold is the combined log size at which a seal folds instead:
// a quarter of the base image, at least 1 MiB.
func (d *Durable) foldThreshold() int64 {
	if d.foldBytes > 0 {
		return d.foldBytes
	}
	return max(d.baseLen/4, 1<<20)
}

// Seal makes every write accepted so far durable: it seals one delta epoch
// on every shard's log, fsyncs the logs and re-pins the manifest. When
// nothing is dirty it does nothing — the logs and manifest already name the
// current state. When the logs have outgrown the fold threshold, or a log
// can no longer be appended to, the seal folds into a fresh generation
// instead; the report says which and why.
func (d *Durable) Seal() (SealReport, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return SealReport{}, errors.New("durable: store closed")
	}
	return d.sealLocked()
}

func (d *Durable) sealLocked() (SealReport, error) {
	rep := SealReport{Generation: d.gen}
	if d.DirtyGroups() == 0 && !d.refold {
		return rep, nil
	}
	for _, l := range d.logs {
		rep.LogBytes += l.Offset()
	}
	foldWhy := func(reason string) (SealReport, error) {
		f, err := d.fold()
		f.LogBytes, f.FoldReason = rep.LogBytes, reason
		return f, err
	}
	if d.refold {
		return foldWhy("an earlier fold failed")
	}
	if threshold := d.foldThreshold(); rep.LogBytes >= threshold {
		return foldWhy(fmt.Sprintf("logs at %d bytes reached the fold threshold %d", rep.LogBytes, threshold))
	}
	man := &manifest{Gen: d.gen, Epochs: make([]uint64, len(d.logs)), Roots: make([]RootDigest, len(d.logs))}
	for i, l := range d.logs {
		st, err := d.eng.AppendDeltaShard(i, l)
		if err == nil {
			err = d.logFs[i].Sync()
		}
		if err != nil {
			// A log whose write or sync failed never seals another epoch
			// (wal.Writer is dead after a failed write): take this epoch
			// as a fold now, instead of failing at every seal from here on.
			return foldWhy(fmt.Sprintf("shard %d log failed (%v)", i, err))
		}
		man.Epochs[i] = st.Epoch + 1
		man.Roots[i] = st.Root
		rep.Groups += st.Groups
	}
	if err := writeManifest(d.dir, man, d.key); err != nil {
		return rep, err
	}
	d.man = man
	return rep, nil
}

// Close seals a final epoch, so the manifest pins the exact state the region
// holds (quiesce traffic first), and closes the log files. The Memory stays
// usable, but nothing written to it afterwards is durable.
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("durable: store closed")
	}
	_, err := d.sealLocked()
	d.closed = true
	for _, f := range d.logFs {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	d.logFs, d.logs = nil, nil
	return err
}

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

	"authmem/internal/core"
	"authmem/internal/tree"
	"authmem/internal/wal"
)

// The durable store keeps a Memory on disk as a base image plus one sealed
// delta log per shard, pinned by a sealed manifest:
//
//	base-<gen>.img        sharded base image
//	wal-<gen>-<shard>.log sealed delta log, one per shard
//	MANIFEST              sealed pin: generation, parent root, per-shard (epoch, root)
//
// One generation is live at a time. The manifest is the trust anchor: it is
// HMAC-sealed under a key derived from the device secret and rewritten
// (write-temp, fsync, rename, fsync dir) after every epoch, so its per-shard
// (epoch, root) pins always name durable log state. Their combined root,
// SealReport.Root, is the caller's pin for the next OpenDurable; one rule
// (core.CheckPin) holds both pins to the recovered history, so a log
// AHEAD of the manifest (a crash between log fsync and manifest rename) opens
// and a log behind it, or another history, is a rollback.
//
// Writers never append to a recovered log: opening always folds into a fresh
// generation (new base, empty logs, manifest at epoch 0), so every log is
// written by exactly one open.

// AMEMMAN2 adds the parent root after the generation; an AMEMMAN1 manifest
// (no parent) still opens.
var (
	manifestMagic  = [8]byte{'A', 'M', 'E', 'M', 'M', 'A', 'N', '2'}
	manifestMagic1 = [8]byte{'A', 'M', 'E', 'M', 'M', 'A', 'N', '1'}
)

const manifestName = "MANIFEST"

// manifest is the sealed durable pin: which generation's files are live and
// how many epochs of each shard's log are trusted, with the root each pin
// must hash to.
type manifest struct {
	Gen    uint64
	Parent RootDigest          // the previous generation's pinned root; zero when none
	Epochs []uint64            // committed epochs per shard
	Roots  [][sha256.Size]byte // root at Epochs[i] per shard
}

// root combines the per-shard pins the way RootDigest combines shard roots.
func (m *manifest) root() RootDigest { return tree.CombineRoots(m.Roots) }

func manifestKey(deviceKey []byte) []byte {
	h := sha256.New()
	h.Write([]byte("authmem/manifest/seal/v1"))
	h.Write(deviceKey)
	return h.Sum(nil)
}

func (m *manifest) marshal(key []byte) []byte {
	b := append([]byte(nil), manifestMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, m.Gen)
	b = append(b, m.Parent[:]...)
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
	head := 8 + 8 + len(RootDigest{}) + 8
	switch {
	case len(data) >= 8 && bytes.Equal(data[:8], manifestMagic1[:]):
		head -= len(RootDigest{})
	case len(data) >= 8 && !bytes.Equal(data[:8], manifestMagic[:]):
		return nil, fmt.Errorf("bad manifest magic")
	}
	if len(data) < head+sha256.Size {
		return nil, fmt.Errorf("manifest too short (%d bytes)", len(data))
	}
	body, seal := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	mac := hmac.New(sha256.New, key)
	mac.Write(body)
	if !hmac.Equal(mac.Sum(nil), seal) {
		return nil, errManifestSeal
	}
	m := &manifest{Gen: binary.LittleEndian.Uint64(body[8:16])}
	copy(m.Parent[:], body[16:head-8])
	shards := binary.LittleEndian.Uint64(body[head-8 : head])
	want := head + int(shards)*(8+len(RootDigest{}))
	if shards > 1<<16 || len(body) != want {
		return nil, fmt.Errorf("manifest body %d bytes, want %d for %d shards", len(body), want, shards)
	}
	for off := head; off < len(body); off += 8 + len(RootDigest{}) {
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
	// Root is the combined root the manifest pins after the seal, combined
	// as RootDigest combines shard roots. Keep the newest one in trusted
	// storage and pass it to the next OpenDurable.
	Root RootDigest
}

// OpenDurable opens the durable region kept in dir, creating the directory
// and a fresh region when it holds no manifest; an invalid cfg or shard
// count fails before anything is created. An existing region resumes
// through the verified incremental path and is checked against the sealed
// manifest: a log behind its pin, another history, a tampered manifest or
// the wrong key is refused, never served. pin, when non-nil, is the newest
// SealReport.Root the caller kept in trusted storage; a region older than it,
// or a directory with no manifest, is refused with a *RecoveryError whose
// status is RecoveryRollback. With a nil pin a directory rolled back
// wholesale opens (SECURITY.md). reports
// holds one recovery verdict per shard (nil for a fresh region). Either way
// the region is folded into a fresh generation before OpenDurable returns,
// and every file of any other generation is removed.
func OpenDurable(dir string, cfg Config, shards int, pin *RootDigest) (*Durable, []*RecoveryReport, error) {
	d := &Durable{dir: dir, key: manifestKey(cfg.Key)}
	var reports []*RecoveryReport
	var parent RootDigest // the root a caller may hold if it misses Opened
	manData, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case errors.Is(err, os.ErrNotExist) && pin != nil:
		return nil, nil, fmt.Errorf("durable: %w", &RecoveryError{Report: &RecoveryReport{Status: RecoveryRollback, FailedAt: -1, Reason: "no manifest, but the caller pins a root"}})
	case errors.Is(err, os.ErrNotExist):
		if d.Memory, err = NewSharded(cfg, shards); err != nil {
			return nil, nil, err // before anything is created on disk
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
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
		if d.Memory, reports, err = recoverGeneration(dir, cfg, man, pin); err != nil {
			return nil, reports, err
		}
		d.gen, d.man, d.Pinned = man.Gen, man, man.Epochs
		parent = man.root()
		if pin != nil {
			parent = *pin // it may be man.Parent: keep it acceptable
		}
	}
	if d.Opened, err = d.fold(parent); err != nil {
		return nil, reports, fmt.Errorf("durable: initial fold: %w", err)
	}
	d.Opened.FoldReason = "opened"
	return d, reports, nil
}

// recoverGeneration resumes the manifest's generation through the one resume
// and holds the manifest's pin and the caller's to its one rule (core.CheckPin):
// a pinned root must be the combined root of a committed seal round of the
// recovered history. The caller's pin may also be the manifest's parent:
// after a crash past a fold's manifest rename, the caller holds the previous
// generation's root (or, when that fold was an open's, the pin it opened
// under).
func recoverGeneration(dir string, cfg Config, man *manifest, pin *RootDigest) (*Memory, []*RecoveryReport, error) {
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
	manRoot := man.root()
	mem, reports, err := resume(cfg, len(wals), base, wals, &manRoot)
	if err != nil {
		return nil, reports, fmt.Errorf("durable: generation %d under the manifest's pin: %w", man.Gen, err)
	}
	if pin != nil && *pin != man.Parent {
		if err := core.CheckPin(reports, *pin); err != nil {
			return nil, reports, fmt.Errorf("durable: generation %d under the caller's pin: %w", man.Gen, err)
		}
	}
	return mem, reports, nil
}

// resume is the facade over core.ResumeShardedIncremental, the one resume:
// the region is wrapped in a Memory.
func resume(cfg Config, shards int, base io.Reader, wals []io.Reader, pin *RootDigest) (*Memory, []*RecoveryReport, error) {
	icfg, err := cfg.internal()
	if err != nil {
		return nil, nil, err
	}
	eng, reports, err := core.ResumeShardedIncremental(icfg, shards, base, wals, pin)
	if err != nil {
		return nil, reports, err
	}
	return &Memory{eng: eng}, reports, nil
}

// fold writes the whole region into a new generation: fresh base image,
// fresh empty logs, manifest pinned at epoch 0 with parent, the root a caller
// that misses this fold's report still holds, then removes every file of any
// other generation. Shards are persisted one at a time under their own
// locks, so traffic on other shards keeps flowing. Each CheckpointShard
// clears its shard's dirty set, so a failed fold sets d.refold. The caller
// holds d.mu or owns d exclusively.
func (d *Durable) fold(parent RootDigest) (SealReport, error) {
	gen := d.gen + 1
	shards := d.Shards()
	baseF, err := os.Create(basePath(d.dir, gen))
	if err != nil {
		return SealReport{}, err
	}
	newLogFs := make([]*os.File, shards)
	newLogs := make([]*wal.Writer, shards)
	man := &manifest{Gen: gen, Parent: parent, Epochs: make([]uint64, shards), Roots: make([][sha256.Size]byte, shards)}
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
	return SealReport{Generation: gen, BaseBytes: baseLen, Root: man.root()}, nil
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
// current state, whose root it reports. When the logs have outgrown the fold
// threshold, or a log can no longer be appended to, the seal folds into a
// fresh generation instead; the report says which and why.
func (d *Durable) Seal() (SealReport, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return SealReport{}, errors.New("durable: store closed")
	}
	return d.sealLocked()
}

func (d *Durable) sealLocked() (SealReport, error) {
	rep := SealReport{Generation: d.gen, Root: d.man.root()}
	if d.DirtyGroups() == 0 && !d.refold {
		return rep, nil
	}
	for _, l := range d.logs {
		rep.LogBytes += l.Offset()
	}
	foldWhy := func(reason string) (SealReport, error) {
		f, err := d.fold(d.man.root())
		f.LogBytes, f.FoldReason = rep.LogBytes, reason
		return f, err
	}
	if d.refold {
		return foldWhy("an earlier fold failed")
	}
	if threshold := d.foldThreshold(); rep.LogBytes >= threshold {
		return foldWhy(fmt.Sprintf("logs at %d bytes reached the fold threshold %d", rep.LogBytes, threshold))
	}
	man := &manifest{Gen: d.gen, Parent: d.man.Parent, Epochs: make([]uint64, len(d.logs)), Roots: make([][sha256.Size]byte, len(d.logs))}
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
	d.man, rep.Root = man, man.root()
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

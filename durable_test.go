package authmem

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"authmem/internal/wal"
)

func durableTestConfig() Config {
	cfg := DefaultConfig(1 << 20)
	cfg.Key = bytes.Repeat([]byte{0x5a}, KeySize)
	return cfg
}

func durableBlock(seed byte) []byte {
	b := make([]byte, BlockSize)
	for i := range b {
		b[i] = seed ^ byte(i*7)
	}
	return b
}

// openDurable is OpenDurable that fails the test on error.
func openDurable(t *testing.T, dir string, cfg Config, shards int) *Durable {
	t.Helper()
	d, _, err := OpenDurable(dir, cfg, shards, nil)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return d
}

// writeSpread writes distinct blocks across all four shards and returns the
// address -> content oracle.
func writeSpread(t *testing.T, mem *Memory, seed byte, n int) map[uint64][]byte {
	t.Helper()
	oracle := make(map[uint64][]byte)
	shardSize := mem.ShardSize()
	for i := 0; i < n; i++ {
		addr := uint64(i%4)*shardSize + uint64(i/4)*BlockSize
		blk := durableBlock(seed + byte(i))
		if err := mem.Write(addr, blk); err != nil {
			t.Fatalf("write %#x: %v", addr, err)
		}
		oracle[addr] = blk
	}
	return oracle
}

func checkOracle(t *testing.T, mem *Memory, oracle map[uint64][]byte) {
	t.Helper()
	buf := make([]byte, BlockSize)
	for addr, want := range oracle {
		if _, err := mem.Read(addr, buf); err != nil {
			t.Fatalf("read %#x: %v", addr, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("block %#x did not survive the durability cycle", addr)
		}
	}
}

// abandon is a crash: the files are dropped with nothing sealed.
func abandon(d *Durable) {
	for _, f := range d.logFs {
		f.Close()
	}
}

// checkOneGeneration asserts that dir holds exactly the live generation:
// one base image, one log per shard, the manifest and nothing else.
func checkOneGeneration(t *testing.T, dir string, shards int) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	bases, logs := 0, 0
	for _, e := range ents {
		names = append(names, e.Name())
		switch {
		case strings.HasPrefix(e.Name(), "base-"):
			bases++
		case strings.HasPrefix(e.Name(), "wal-"):
			logs++
		}
	}
	if bases != 1 || logs != shards || len(names) != 1+shards+1 {
		t.Fatalf("directory holds %v, want one base, %d logs and the manifest", names, shards)
	}
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := durableTestConfig()

	d, reports, err := OpenDurable(dir, cfg, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reports != nil || d.Pinned != nil {
		t.Fatalf("fresh directory returned recovery reports %v, pins %v", reports, d.Pinned)
	}
	if d.Opened.FoldReason != "opened" || d.Opened.Generation != d.gen || d.Opened.BaseBytes == 0 {
		t.Fatalf("open's fold report %+v", d.Opened)
	}
	oracle := writeSpread(t, d.Memory, 1, 64)
	if rep, err := d.Seal(); err != nil || rep.Groups == 0 || rep.FoldReason != "" {
		t.Fatalf("seal: %+v, %v", rep, err)
	}
	// More traffic after the sealed epoch; Close must seal it too.
	for addr, blk := range writeSpread(t, d.Memory, 101, 32) {
		oracle[addr] = blk
	}
	root := d.RootDigest()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, reports, err := OpenDurable(dir, cfg, 4, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(reports) != 4 {
		t.Fatalf("%d recovery reports for 4 shards", len(reports))
	}
	for i, rep := range reports {
		if rep.Status != RecoveryClean || rep.Epochs != 2 {
			t.Fatalf("shard %d: %+v, want 2 clean epochs", i, rep)
		}
	}
	if got := d2.RootDigest(); got != root {
		t.Fatal("recovered root differs from the root at shutdown")
	}
	checkOracle(t, d2.Memory, oracle)
	// A reopened region is the same engine as a fresh one: the second pass
	// over the now-warm blocks is served entirely by the lock-free path.
	warm := d2.Stats()
	checkOracle(t, d2.Memory, oracle)
	st := d2.Stats()
	if hits := st.LockFreeHits - warm.LockFreeHits; hits != uint64(len(oracle)) || st.SlowPathReads != warm.SlowPathReads {
		t.Fatalf("warm reads after reopen: %d lock-free hits, %d slow-path reads, want %d/0",
			hits, st.SlowPathReads-warm.SlowPathReads, len(oracle))
	}
	// The reopen folded into a fresh generation whose logs are writable
	// going forward.
	checkOneGeneration(t, dir, 4)
	writeSpread(t, d2.Memory, 200, 8)
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableFoldsWhenLogPoisoned: a delta log that can no longer be written
// (its file closed underneath the store) costs one fold, not the durability of
// every epoch after it — the next Seal lands in a fresh generation, says why,
// and a reopen recovers every acknowledged write to the pinned roots.
func TestDurableFoldsWhenLogPoisoned(t *testing.T) {
	dir := t.TempDir()
	cfg := durableTestConfig()

	d := openDurable(t, dir, cfg, 4)
	oracle := writeSpread(t, d.Memory, 3, 64)
	if _, err := d.Seal(); err != nil {
		t.Fatal(err)
	}
	gen := d.gen
	if err := d.logFs[1].Close(); err != nil {
		t.Fatal(err)
	}
	for addr, blk := range writeSpread(t, d.Memory, 77, 32) {
		oracle[addr] = blk
	}
	rep, err := d.Seal()
	if err != nil {
		t.Fatalf("epoch over a poisoned log: %v", err)
	}
	if rep.FoldReason == "" || rep.Generation != gen+1 || d.gen != gen+1 {
		t.Fatalf("poisoned epoch: %+v, store at generation %d, want a fold into %d", rep, d.gen, gen+1)
	}
	if strings.Count(rep.FoldReason, "shard 1 log failed") != 1 {
		t.Fatalf("fold reason %q does not name the failed log once", rep.FoldReason)
	}
	// The fresh logs seal epochs again.
	for addr, blk := range writeSpread(t, d.Memory, 150, 16) {
		oracle[addr] = blk
	}
	if rep, err := d.Seal(); err != nil || rep.FoldReason != "" {
		t.Fatalf("epoch after the fold: %+v, %v", rep, err)
	}
	if d.gen != gen+1 || d.man.Epochs[1] != 1 {
		t.Fatalf("epoch after the fold: generation %d, shard 1 pinned at epoch %d", d.gen, d.man.Epochs[1])
	}
	root := d.RootDigest()
	// No Close: the reopen sees exactly what the epochs made durable.
	abandon(d)
	d2 := openDurable(t, dir, cfg, 4)
	if got := d2.RootDigest(); got != root {
		t.Fatal("recovered root differs from the pinned root")
	}
	checkOracle(t, d2.Memory, oracle)
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableFoldsWhenLogsGrow(t *testing.T) {
	dir := t.TempDir()
	cfg := durableTestConfig()

	d := openDurable(t, dir, cfg, 4)
	d.foldBytes = 1 // absurdly low: the second epoch must fold
	gen0 := d.gen
	oracle := writeSpread(t, d.Memory, 7, 48)
	if _, err := d.Seal(); err != nil {
		t.Fatal(err)
	}
	for addr, blk := range writeSpread(t, d.Memory, 9, 4) {
		oracle[addr] = blk
	}
	rep, err := d.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if d.gen == gen0 || !strings.Contains(rep.FoldReason, "fold threshold") {
		t.Fatalf("fold threshold never triggered a new generation: %+v", rep)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openDurable(t, dir, cfg, 4)
	checkOracle(t, d2.Memory, oracle)
	d2.Close()
}

// TestDurableFoldDoesNotRelog: a fold persists every block the dirty set
// names, so the set is cleared with it — the next epoch logs only the writes
// made after the fold, and base + log still resume to the live root.
func TestDurableFoldDoesNotRelog(t *testing.T) {
	dir := t.TempDir()
	cfg := durableTestConfig()

	d := openDurable(t, dir, cfg, 4)
	oracle := writeSpread(t, d.Memory, 21, 64)
	if d.DirtyGroups() == 0 {
		t.Fatal("writes left nothing dirty")
	}
	d.foldBytes = 1 // the fresh logs' headers already pass it: fold now
	if rep, err := d.Seal(); err != nil || rep.FoldReason == "" {
		t.Fatalf("seal with writes pending: %+v, %v", rep, err)
	}
	d.foldBytes = 0
	if n := d.DirtyGroups(); n != 0 {
		t.Fatalf("%d groups still dirty after the fold", n)
	}
	if err := d.Write(0, durableBlock(99)); err != nil {
		t.Fatal(err)
	}
	oracle[0] = durableBlock(99)
	rep, err := d.Seal()
	if err != nil || rep.FoldReason != "" || rep.Groups != 1 {
		t.Fatalf("first epoch after the fold: %+v, %v; want one group record", rep, err)
	}
	root := d.RootDigest()
	abandon(d)
	d2 := openDurable(t, dir, cfg, 4)
	if d2.RootDigest() != root {
		t.Fatal("base + log after a fold do not resume to the live root")
	}
	checkOracle(t, d2.Memory, oracle)
	d2.Close()
}

// TestDurableFailedFoldRefolds: a fold that fails after its checkpoints
// cleared the dirty sets (here the manifest cannot be written) must not let
// a later Close find nothing dirty and return success over an older pin. The
// next seal folds again, and a reopen reaches the live root.
func TestDurableFailedFoldRefolds(t *testing.T) {
	dir := t.TempDir()
	cfg := durableTestConfig()

	d := openDurable(t, dir, cfg, 4)
	oracle := writeSpread(t, d.Memory, 23, 64)
	if _, err := d.Seal(); err != nil {
		t.Fatal(err)
	}
	maps.Copy(oracle, writeSpread(t, d.Memory, 88, 32))
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil { // writeManifest cannot create it
		t.Fatal(err)
	}
	d.foldBytes = 1
	if _, err := d.Seal(); err == nil {
		t.Fatal("fold over an unwritable manifest succeeded")
	}
	if n := d.DirtyGroups(); n != 0 {
		t.Fatalf("%d groups dirty after the failed fold; the test needs them cleared", n)
	}
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	d.foldBytes = 0
	root := d.RootDigest()
	if err := d.Close(); err != nil {
		t.Fatalf("close after a failed fold: %v", err)
	}
	d2 := openDurable(t, dir, cfg, 4)
	if d2.RootDigest() != root {
		t.Fatal("reopen after a failed fold did not reach the live root")
	}
	checkOracle(t, d2.Memory, oracle)
	checkOneGeneration(t, dir, 4)
	d2.Close()
}

// TestDurableSealUnderTraffic seals epochs and forced folds while writers
// run on every shard (run it under -race): the reopened region must hold
// every write acknowledged before Close.
func TestDurableSealUnderTraffic(t *testing.T) {
	dir := t.TempDir()
	cfg := durableTestConfig()
	d := openDurable(t, dir, cfg, 4)
	const writers = 4
	oracles := make([]map[uint64][]byte, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			oracles[w] = make(map[uint64][]byte)
			for i := 0; i < 200; i++ {
				addr := uint64(w)*d.ShardSize() + uint64(i%50)*BlockSize
				blk := durableBlock(byte(w*31 + i))
				if err := d.Write(addr, blk); err != nil {
					t.Errorf("write %#x: %v", addr, err)
					return
				}
				oracles[w][addr] = blk
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		if i%7 == 6 {
			d.mu.Lock()
			d.foldBytes = 1
			d.mu.Unlock()
		}
		if _, err := d.Seal(); err != nil {
			t.Fatalf("seal %d under traffic: %v", i, err)
		}
		d.mu.Lock()
		d.foldBytes = 0
		d.mu.Unlock()
	}
	wg.Wait()
	root := d.RootDigest()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openDurable(t, dir, cfg, 4)
	if d2.RootDigest() != root {
		t.Fatal("reopen after sealing under traffic did not reach the root at Close")
	}
	for _, o := range oracles {
		checkOracle(t, d2.Memory, o)
	}
	d2.Close()
}

func TestDurableTamperedManifestRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := durableTestConfig()
	d := openDurable(t, dir, cfg, 4)
	writeSpread(t, d.Memory, 3, 16)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0x01 // inside the sealed body
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenDurable(dir, cfg, 4, nil); !errors.Is(err, errManifestSeal) {
		t.Fatalf("tampered manifest: got %v, want seal failure", err)
	}
}

func TestDurableRollbackRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := durableTestConfig()
	d := openDurable(t, dir, cfg, 4)
	writeSpread(t, d.Memory, 5, 64) // dirties all four shards
	if _, err := d.Seal(); err != nil {
		t.Fatal(err)
	}
	gen := d.gen
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Roll shard 0's log back to empty while the manifest pins epoch >= 1:
	// a classic replay-old-state attack. The open must be refused.
	if err := os.Truncate(walPath(dir, gen, 0), int64(wal.HeaderSize)); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenDurable(dir, cfg, 4, nil)
	if err == nil {
		t.Fatal("rolled-back shard log accepted")
	}
	if !strings.Contains(err.Error(), "rollback") {
		t.Fatalf("want a rollback refusal, got: %v", err)
	}
}

func TestDurableStaleManifestAccepted(t *testing.T) {
	dir := t.TempDir()
	cfg := durableTestConfig()
	d := openDurable(t, dir, cfg, 4)
	oracle := writeSpread(t, d.Memory, 11, 64)
	if _, err := d.Seal(); err != nil {
		t.Fatal(err)
	}
	stale, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	for addr, blk := range writeSpread(t, d.Memory, 77, 64) {
		oracle[addr] = blk
	}
	root := d.RootDigest()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash window: logs carry epoch 2 but the manifest rename never
	// happened. Extra sealed epochs beyond the pin are trusted — recovery
	// lands on the LOG's newest state, not the manifest's older pin.
	if err := os.WriteFile(filepath.Join(dir, manifestName), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	d2, reports, err := OpenDurable(dir, cfg, 4, nil)
	if err != nil {
		t.Fatalf("stale manifest (log ahead) refused: %v", err)
	}
	if got := d2.RootDigest(); got != root {
		t.Fatal("recovery with a stale manifest did not reach the newest sealed epoch")
	}
	for i, rep := range reports {
		if rep.Epochs != 2 || d2.Pinned[i] != 1 {
			t.Fatalf("shard %d: %d epochs recovered, %d pinned; want the log one epoch ahead of the pin", i, rep.Epochs, d2.Pinned[i])
		}
	}
	checkOracle(t, d2.Memory, oracle)
	d2.Close()
}

func TestDurableWrongKeyRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := durableTestConfig()
	d := openDurable(t, dir, cfg, 4)
	writeSpread(t, d.Memory, 13, 16)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Key = bytes.Repeat([]byte{0xa5}, KeySize)
	if _, _, err := OpenDurable(dir, bad, 4, nil); err == nil {
		t.Fatal("wrong device key accepted")
	}
}

// saveFiles reads every file in dir.
func saveFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range ents {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

func restoreFiles(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableGenerationSwapCrashStates builds, around a real fold or epoch,
// each state a crash can leave the directory in, and opens it: the open must
// reach the newest root the manifest pins or the logs carry past it (or
// refuse), never older state, and must leave exactly the live generation on
// disk.
func TestDurableGenerationSwapCrashStates(t *testing.T) { runCrashStates(t, false) }

// crashStates is the one table of crash states both crash tests open. Each
// builder drives an open store, whose last seal the caller holds, into its
// state and returns the root the reopen must reach and the in-flight seal's
// root; reached is whether the directory holds the in-flight seal's state
// (its manifest rename landed, or its fsynced logs carry it), which decides
// the pins a pinned reopen must accept.
var crashStates = []struct {
	name    string
	reached bool
	crash   func(t *testing.T, dir string, d *Durable, oracle map[uint64][]byte) (want, inflight RootDigest)
}{
	{"new generation written, old manifest in place", false, func(t *testing.T, dir string, d *Durable, oracle map[uint64][]byte) (RootDigest, RootDigest) {
		old := saveFiles(t, dir)
		root := d.RootDigest()
		writeSpread(t, d.Memory, 40, 32) // never pinned: the fold below is undone
		rep := crashSeal(t, d, true)
		abandon(d)
		restoreFiles(t, dir, old)
		return root, rep.Root
	}},
	{"manifest renamed, old generation not pruned", true, func(t *testing.T, dir string, d *Durable, oracle map[uint64][]byte) (RootDigest, RootDigest) {
		old := saveFiles(t, dir)
		delete(old, manifestName)
		maps.Copy(oracle, writeSpread(t, d.Memory, 50, 32))
		rep := crashSeal(t, d, true)
		abandon(d)
		restoreFiles(t, dir, old)
		return rep.Root, rep.Root
	}},
	{"torn MANIFEST.tmp beside a good MANIFEST", true, func(t *testing.T, dir string, d *Durable, oracle map[uint64][]byte) (RootDigest, RootDigest) {
		maps.Copy(oracle, writeSpread(t, d.Memory, 60, 32))
		rep := crashSeal(t, d, false)
		abandon(d)
		good := saveFiles(t, dir)[manifestName]
		if err := os.WriteFile(filepath.Join(dir, manifestName+".tmp"), good[:len(good)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		return rep.Root, rep.Root
	}},
	{"log fsynced, manifest one epoch behind", true, func(t *testing.T, dir string, d *Durable, oracle map[uint64][]byte) (RootDigest, RootDigest) {
		stale := saveFiles(t, dir)[manifestName]
		maps.Copy(oracle, writeSpread(t, d.Memory, 70, 32))
		rep := crashSeal(t, d, false)
		abandon(d)
		restoreFiles(t, dir, map[string][]byte{manifestName: stale})
		return rep.Root, rep.Root
	}},
}

// crashSeal seals, folding if fold is set, and fails unless the seal folded
// exactly then and reports the region's root.
func crashSeal(t *testing.T, d *Durable, fold bool) SealReport {
	t.Helper()
	if fold {
		d.foldBytes = 1
	}
	rep, err := d.Seal()
	if err != nil || fold != (rep.FoldReason != "") || rep.Root != d.RootDigest() {
		t.Fatalf("seal (fold %v): %+v, %v; want the region's root", fold, rep, err)
	}
	return rep
}

// runCrashStates drives every crash state from a store whose oracle is
// sealed, then reopens it unpinned, or under each pin the caller may hold.
func runCrashStates(t *testing.T, pinned bool) {
	const shards = 4
	cfg := durableTestConfig()
	for _, c := range crashStates {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			d := openDurable(t, dir, cfg, shards)
			oracle := writeSpread(t, d.Memory, 30, 64)
			held := crashSeal(t, d, false).Root
			want, inflight := c.crash(t, dir, d, oracle)
			if !pinned {
				d2 := openDurable(t, dir, cfg, shards)
				if d2.RootDigest() != want {
					t.Fatal("reopen did not reach the newest pinned-or-ahead root")
				}
				checkOracle(t, d2.Memory, oracle)
				checkOneGeneration(t, dir, shards)
				if err := d2.Close(); err != nil {
					t.Fatal(err)
				}
				return
			}
			state := saveFiles(t, dir)
			pins := []RootDigest{held}
			if c.reached {
				pins = append(pins, inflight)
			} else {
				_, _, err := OpenDurable(dir, cfg, shards, &inflight)
				refusedRollback(t, err)
			}
			for i, pin := range pins {
				dir2 := t.TempDir()
				restoreFiles(t, dir2, state)
				// The second open follows a crash right after the first
				// open's fold: the caller never stored Opened.Root.
				for open := 0; open < 2; open++ {
					d2, _, err := OpenDurable(dir2, cfg, shards, &pin)
					if err != nil {
						t.Fatalf("pin %d, open %d: honest crash state refused: %v", i, open, err)
					}
					if d2.RootDigest() != want || d2.Opened.Root != want {
						t.Fatalf("pin %d, open %d: reopen did not reach the newest pinned-or-ahead root", i, open)
					}
					checkOracle(t, d2.Memory, oracle)
					checkOneGeneration(t, dir2, shards)
					if open == 0 {
						abandon(d2)
					} else if err := d2.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// refusedRollback fails the test unless err is OpenDurable's rollback
// refusal: a *RecoveryError whose status is RecoveryRollback. The store's
// pin check stops at no log record, so its message must name none.
func refusedRollback(t *testing.T, err error) {
	t.Helper()
	var rerr *RecoveryError
	if !errors.As(err, &rerr) || rerr.Report.Status != RecoveryRollback || !strings.Contains(err.Error(), "rollback") {
		t.Fatalf("want a rollback refusal (*RecoveryError), got %v", err)
	}
	if rerr.Report.FailedAt < 0 && strings.Contains(err.Error(), "log record") {
		t.Fatalf("a pin refusal names a log record: %v", err)
	}
}

// TestDurableBadConfigTouchesNothing: an open its arguments doom fails before
// it creates anything on disk.
func TestDurableBadConfigTouchesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	for _, c := range []struct {
		name   string
		cfg    Config
		shards int
	}{
		{"zero config", Config{}, 4},
		{"three shards", durableTestConfig(), 3},
	} {
		if _, _, err := OpenDurable(dir, c.cfg, c.shards, nil); err == nil {
			t.Fatalf("%s: open succeeded", c.name)
		}
		if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: the failed open left %s behind (stat: %v)", c.name, dir, err)
		}
	}
}

// TestDurableDirectoryRollbackRefused: a store directory copied after one
// seal and put back after a later one is self-consistent, so only the
// caller's pin can tell. Under the later seal's root the open is refused;
// unpinned, the directory opens and serves the older state (the residual
// risk SECURITY.md names).
func TestDurableDirectoryRollbackRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := durableTestConfig()
	d := openDurable(t, dir, cfg, 4)
	if d.Opened.Root != d.RootDigest() {
		t.Fatal("the open's report does not carry the region's root")
	}
	oracleA := writeSpread(t, d.Memory, 1, 64)
	repA, err := d.Seal()
	if err != nil || repA.Root != d.RootDigest() {
		t.Fatalf("seal A: %+v, %v; want the region's root", repA, err)
	}
	copyA := saveFiles(t, dir)
	writeSpread(t, d.Memory, 90, 64) // the same addresses, new contents
	repB, err := d.Seal()
	if err != nil || repB.Root != d.RootDigest() || repB.Root == repA.Root {
		t.Fatalf("seal B: %+v, %v; want the region's new root", repB, err)
	}
	if idle, err := d.Seal(); err != nil || idle.Groups != 0 || idle.Root != repB.Root {
		t.Fatalf("a seal with nothing dirty: %+v, %v; want seal B's root", idle, err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	restoreFiles(t, dir, copyA)
	_, _, err = OpenDurable(dir, cfg, 4, &repB.Root)
	refusedRollback(t, err)
	// Without its manifest, or with no directory at all, the open would make
	// a blank region: under a pin that is a rollback too, and creates nothing.
	noManifest, absent := filepath.Join(t.TempDir(), "store"), filepath.Join(t.TempDir(), "store")
	if err := os.Mkdir(noManifest, 0o755); err != nil {
		t.Fatal(err)
	}
	restoreFiles(t, noManifest, copyA)
	if err := os.Remove(filepath.Join(noManifest, manifestName)); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{noManifest, absent} {
		_, _, err = OpenDurable(dir, cfg, 4, &repB.Root)
		refusedRollback(t, err)
	}
	if _, err := os.Stat(absent); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the refused open created %s (stat: %v)", absent, err)
	}

	d2, _, err := OpenDurable(dir, cfg, 4, nil)
	if err != nil {
		t.Fatalf("unpinned open of the rolled-back directory: %v", err)
	}
	if d2.RootDigest() != repA.Root || d2.Opened.Root != repA.Root {
		t.Fatal("the unpinned open did not serve seal A's state")
	}
	checkOracle(t, d2.Memory, oracleA)
	d2.Close()
}

// TestDurablePinnedCrashStates reopens each crash state of
// TestDurableGenerationSwapCrashStates under the pin the caller held before
// the seal in flight and, where the directory holds that seal's state, under
// the seal's own root, then once more after a crash past that open's own
// fold: every reopen reaches the root and oracle the unpinned reopen does. A
// pin from a seal the directory never reached is refused.
func TestDurablePinnedCrashStates(t *testing.T) { runCrashStates(t, true) }

// parentPlain is the plaintext testdata/parent_durable's writer stored at
// block blk for its ver-th write (generate_test.go.txt there).
func parentPlain(blk, ver uint64) []byte {
	b := make([]byte, BlockSize)
	x := blk*0x9E3779B97F4A7C15 ^ ver*0xD1B54A32D192ED03 ^ 0x5851F42D4C957F2D
	for i := range b {
		x = x*6364136223846793005 + 1442695040888963407
		b[i] = byte(x >> 56)
	}
	return b
}

// TestDurableResumesParentWrittenDirectory pins on-disk compatibility with
// the store as memserved kept it before the library owned it:
// testdata/parent_durable is a 2-shard directory written at a3f83e0 (two
// epochs, a fold with writes pending, two more epochs, a final sealed epoch).
// OpenDurable must resume it to the recorded root and plaintext. The files
// are never regenerated.
func TestDurableResumesParentWrittenDirectory(t *testing.T) {
	src := filepath.Join("testdata", "parent_durable")
	data, err := os.ReadFile(filepath.Join(src, "expect.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		RegionBytes uint64            `json:"region_bytes"`
		Shards      int               `json:"shards"`
		KeyHex      string            `json:"key_hex"`
		Generation  uint64            `json:"generation"`
		Epochs      []int             `json:"manifest_epochs"`
		Root        string            `json:"root"`
		Blocks      map[uint64]uint64 `json:"blocks"`
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(want.RegionBytes)
	if cfg.Key, err = hex.DecodeString(want.KeyHex); err != nil {
		t.Fatal(err)
	}
	var root RootDigest
	if n, err := hex.Decode(root[:], []byte(want.Root)); err != nil || n != len(root) {
		t.Fatalf("bad root %q", want.Root)
	}

	dir := t.TempDir()
	files := saveFiles(t, src)
	for name := range files {
		if !strings.HasPrefix(name, "base-") && !strings.HasPrefix(name, "wal-") && name != manifestName {
			delete(files, name)
		}
	}
	restoreFiles(t, dir, files)

	d, reports, err := OpenDurable(dir, cfg, want.Shards, nil)
	if err != nil {
		t.Fatalf("open the parent-written directory: %v", err)
	}
	for i, rep := range reports {
		if rep.Status != RecoveryClean || rep.Epochs != want.Epochs[i] {
			t.Fatalf("shard %d: %+v, want %d clean epochs", i, rep, want.Epochs[i])
		}
	}
	check := func(d *Durable) {
		t.Helper()
		if d.RootDigest() != root {
			t.Fatal("root differs from the one the parent recorded")
		}
		dst := make([]byte, BlockSize)
		for blk, ver := range want.Blocks {
			if _, err := d.Read(blk*BlockSize, dst); err != nil {
				t.Fatalf("block %d: %v", blk, err)
			}
			if !bytes.Equal(dst, parentPlain(blk, ver)) {
				t.Fatalf("block %d: plaintext differs from what the parent wrote (version %d)", blk, ver)
			}
		}
	}
	check(d)
	if d.gen != want.Generation+1 {
		t.Fatalf("opened into generation %d, want %d", d.gen, want.Generation+1)
	}
	checkOneGeneration(t, dir, want.Shards)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d = openDurable(t, dir, cfg, want.Shards)
	check(d)
	d.Close()
}

package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"authmem"
	"authmem/internal/wal"
)

func durableTestConfig(t *testing.T) authmem.Config {
	t.Helper()
	cfg := authmem.DefaultConfig(1 << 20)
	cfg.Key = bytes.Repeat([]byte{0x5a}, authmem.KeySize)
	return cfg
}

func durableBlock(seed byte) []byte {
	b := make([]byte, authmem.BlockSize)
	for i := range b {
		b[i] = seed ^ byte(i*7)
	}
	return b
}

// writeSpread writes distinct blocks across all four shards and returns the
// address -> content oracle.
func writeSpread(t *testing.T, mem *authmem.Memory, seed byte, n int) map[uint64][]byte {
	t.Helper()
	oracle := make(map[uint64][]byte)
	shardSize := mem.ShardSize()
	for i := 0; i < n; i++ {
		addr := uint64(i%4)*shardSize + uint64(i/4)*authmem.BlockSize
		blk := durableBlock(seed + byte(i))
		if err := mem.Write(addr, blk); err != nil {
			t.Fatalf("write %#x: %v", addr, err)
		}
		oracle[addr] = blk
	}
	return oracle
}

func checkOracle(t *testing.T, mem *authmem.Memory, oracle map[uint64][]byte) {
	t.Helper()
	buf := make([]byte, authmem.BlockSize)
	for addr, want := range oracle {
		if _, err := mem.Read(addr, buf); err != nil {
			t.Fatalf("read %#x: %v", addr, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("block %#x did not survive the durability cycle", addr)
		}
	}
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := durableTestConfig(t)
	opts := durableOptions{dir: dir, interval: time.Second}

	d, err := openDurable(cfg, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle := writeSpread(t, d.mem, 1, 64)
	if err := d.appendEpoch(); err != nil {
		t.Fatal(err)
	}
	// More traffic after the sealed epoch; close() must fold it in too.
	for addr, blk := range writeSpread(t, d.mem, 101, 32) {
		oracle[addr] = blk
	}
	root := d.mem.RootDigest()
	if err := d.close(); err != nil {
		t.Fatal(err)
	}

	d2, err := openDurable(cfg, 4, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := d2.mem.RootDigest(); got != root {
		t.Fatal("recovered root differs from the root at shutdown")
	}
	checkOracle(t, d2.mem, oracle)
	// A restarted daemon is the same engine as a fresh one: the second pass
	// over the now-warm blocks is served entirely by the lock-free path.
	warm := d2.mem.Stats()
	checkOracle(t, d2.mem, oracle)
	st := d2.mem.Stats()
	if hits := st.LockFreeHits - warm.LockFreeHits; hits != uint64(len(oracle)) || st.SlowPathReads != warm.SlowPathReads {
		t.Fatalf("warm reads after restart: %d lock-free hits, %d slow-path reads, want %d/0",
			hits, st.SlowPathReads-warm.SlowPathReads, len(oracle))
	}
	// The reopen folded into a fresh generation: exactly one base image on
	// disk, and its logs are writable going forward.
	imgs, _ := filepath.Glob(filepath.Join(dir, "base-*.img"))
	if len(imgs) != 1 {
		t.Fatalf("found %d base images after fold, want 1: %v", len(imgs), imgs)
	}
	writeSpread(t, d2.mem, 200, 8)
	if err := d2.close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableFoldsWhenLogPoisoned: a delta log that can no longer be written
// (its file closed underneath the store) costs one fold, not the durability of
// every epoch after it — the next appendEpoch lands in a fresh generation and
// a restart recovers every acknowledged write to the pinned roots.
func TestDurableFoldsWhenLogPoisoned(t *testing.T) {
	dir := t.TempDir()
	cfg := durableTestConfig(t)
	var logged []string
	opts := durableOptions{dir: dir, interval: time.Second, logf: func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}}

	d, err := openDurable(cfg, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle := writeSpread(t, d.mem, 3, 64)
	if err := d.appendEpoch(); err != nil {
		t.Fatal(err)
	}
	gen := d.gen
	if err := d.logFs[1].Close(); err != nil {
		t.Fatal(err)
	}
	for addr, blk := range writeSpread(t, d.mem, 77, 32) {
		oracle[addr] = blk
	}
	if err := d.appendEpoch(); err != nil {
		t.Fatalf("epoch over a poisoned log: %v", err)
	}
	if d.gen != gen+1 {
		t.Fatalf("generation %d after the poisoned epoch, want %d", d.gen, gen+1)
	}
	causes := 0
	for _, line := range logged {
		if strings.Contains(line, "shard 1 log failed") {
			causes++
		}
	}
	if causes != 1 {
		t.Fatalf("cause logged %d times, want once:\n%s", causes, strings.Join(logged, "\n"))
	}
	// The fresh logs seal epochs again.
	for addr, blk := range writeSpread(t, d.mem, 150, 16) {
		oracle[addr] = blk
	}
	if err := d.appendEpoch(); err != nil {
		t.Fatal(err)
	}
	if d.gen != gen+1 || d.man.Epochs[1] != 1 {
		t.Fatalf("epoch after the fold: generation %d, shard 1 pinned at epoch %d", d.gen, d.man.Epochs[1])
	}
	root := d.mem.RootDigest()
	// No close(): the restart sees exactly what the epochs made durable.
	for _, f := range d.logFs {
		f.Close()
	}
	d2, err := openDurable(cfg, 4, durableOptions{dir: dir, interval: time.Second})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := d2.mem.RootDigest(); got != root {
		t.Fatal("recovered root differs from the pinned root")
	}
	checkOracle(t, d2.mem, oracle)
	if err := d2.close(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableFoldsWhenLogsGrow(t *testing.T) {
	dir := t.TempDir()
	cfg := durableTestConfig(t)
	// Absurdly low threshold: the second epoch must trigger a fold.
	opts := durableOptions{dir: dir, interval: time.Second, foldBytes: 1}

	d, err := openDurable(cfg, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	gen0 := d.gen
	oracle := writeSpread(t, d.mem, 7, 48)
	if err := d.appendEpoch(); err != nil {
		t.Fatal(err)
	}
	for addr, blk := range writeSpread(t, d.mem, 9, 4) {
		oracle[addr] = blk
	}
	if err := d.appendEpoch(); err != nil {
		t.Fatal(err)
	}
	if d.gen == gen0 {
		t.Fatal("fold threshold never triggered a new generation")
	}
	if err := d.close(); err != nil {
		t.Fatal(err)
	}
	d2, err := openDurable(cfg, 4, opts)
	if err != nil {
		t.Fatalf("reopen after fold: %v", err)
	}
	checkOracle(t, d2.mem, oracle)
	d2.close()
}

func TestDurableTamperedManifestRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := durableTestConfig(t)
	opts := durableOptions{dir: dir, interval: time.Second}
	d, err := openDurable(cfg, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	writeSpread(t, d.mem, 3, 16)
	if err := d.close(); err != nil {
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
	if _, err := openDurable(cfg, 4, opts); !errors.Is(err, errManifestSeal) {
		t.Fatalf("tampered manifest: got %v, want seal failure", err)
	}
}

func TestDurableRollbackRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := durableTestConfig(t)
	opts := durableOptions{dir: dir, interval: time.Second}
	d, err := openDurable(cfg, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	writeSpread(t, d.mem, 5, 64) // dirties all four shards
	if err := d.appendEpoch(); err != nil {
		t.Fatal(err)
	}
	gen := d.gen
	if err := d.close(); err != nil {
		t.Fatal(err)
	}

	// Roll shard 0's log back to empty while the manifest pins epoch >= 1:
	// a classic replay-old-state attack. The daemon must refuse to start.
	if err := os.Truncate(walPath(dir, gen, 0), int64(wal.HeaderSize)); err != nil {
		t.Fatal(err)
	}
	_, err = openDurable(cfg, 4, opts)
	if err == nil {
		t.Fatal("rolled-back shard log accepted")
	}
	if !strings.Contains(err.Error(), "rollback") {
		t.Fatalf("want a rollback refusal, got: %v", err)
	}
}

func TestDurableStaleManifestAccepted(t *testing.T) {
	dir := t.TempDir()
	cfg := durableTestConfig(t)
	opts := durableOptions{dir: dir, interval: time.Second}
	d, err := openDurable(cfg, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle := writeSpread(t, d.mem, 11, 64)
	if err := d.appendEpoch(); err != nil {
		t.Fatal(err)
	}
	stale, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	for addr, blk := range writeSpread(t, d.mem, 77, 64) {
		oracle[addr] = blk
	}
	root := d.mem.RootDigest()
	if err := d.close(); err != nil {
		t.Fatal(err)
	}
	// Crash window: logs carry epoch 2 but the manifest rename never
	// happened. Extra sealed epochs beyond the pin are trusted — recovery
	// lands on the LOG's newest state, not the manifest's older pin.
	if err := os.WriteFile(filepath.Join(dir, manifestName), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := openDurable(cfg, 4, opts)
	if err != nil {
		t.Fatalf("stale manifest (log ahead) refused: %v", err)
	}
	if got := d2.mem.RootDigest(); got != root {
		t.Fatal("recovery with a stale manifest did not reach the newest sealed epoch")
	}
	checkOracle(t, d2.mem, oracle)
	d2.close()
}

func TestDurableWrongKeyRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := durableTestConfig(t)
	opts := durableOptions{dir: dir, interval: time.Second}
	d, err := openDurable(cfg, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	writeSpread(t, d.mem, 13, 16)
	if err := d.close(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Key = bytes.Repeat([]byte{0xa5}, authmem.KeySize)
	if _, err := openDurable(bad, 4, opts); err == nil {
		t.Fatal("wrong device key accepted")
	}
}

package core

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"authmem/internal/ctr"
)

// storedImagePlain is the plaintext the image's writer stored at block blk
// for its ver-th write (testdata/parent_image/generate_test.go.txt).
func storedImagePlain(blk, ver uint64) []byte {
	b := make([]byte, BlockBytes)
	x := blk*0x9E3779B97F4A7C15 ^ ver*0xD1B54A32D192ED03 ^ 0x5851F42D4C957F2D
	for i := range b {
		x = x*6364136223846793005 + 1442695040888963407
		b[i] = byte(x >> 56)
	}
	return b
}

// TestResumesParentWrittenImage pins stored-bit compatibility across the
// change of cipher: testdata/parent_image holds a flat base image and a
// two-epoch delta log written at commit 4e5034b by that commit's default
// engine — the from-scratch T-table AES, the last commit at which it sealed
// anything, and a lone Engine, before the one-shard region replaced it. The
// one-shard region (crypto/aes) must resume both to the roots recorded then
// and read back every block's recorded plaintext. The files are never
// regenerated: a failure here means stored images no longer open.
func TestResumesParentWrittenImage(t *testing.T) {
	dir := filepath.Join("testdata", "parent_image")
	read := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var want struct {
		RegionBytes uint64            `json:"region_bytes"`
		BaseRoot    string            `json:"base_root"`
		Root        string            `json:"root"`
		Epochs      int               `json:"epochs"`
		BaseBlocks  map[uint64]uint64 `json:"base_blocks"`
		Blocks      map[uint64]uint64 `json:"blocks"`
	}
	if err := json.Unmarshal(read("expect.json"), &want); err != nil {
		t.Fatal(err)
	}
	root := func(s string) (d RootDigest) {
		t.Helper()
		if n, err := hex.Decode(d[:], []byte(s)); err != nil || n != len(d) {
			t.Fatalf("bad digest %q", s)
		}
		return d
	}
	base, log := read("base.img"), read("delta.wal")
	cfg := Default(ctr.Delta, MACInECC)
	cfg.RegionBytes = want.RegionBytes

	verify := func(e *ShardedEngine, wantRoot RootDigest, blocks map[uint64]uint64) {
		t.Helper()
		if got := e.RootDigest(); got != wantRoot {
			t.Fatalf("root %x, recorded %x", got, wantRoot)
		}
		dst := make([]byte, BlockBytes)
		for blk, ver := range blocks {
			if _, err := e.Read(blk*BlockBytes, dst); err != nil {
				t.Fatalf("block %d: %v", blk, err)
			}
			if !bytes.Equal(dst, storedImagePlain(blk, ver)) {
				t.Fatalf("block %d: plaintext differs from what the parent commit wrote (version %d)", blk, ver)
			}
		}
	}

	baseRoot, finalRoot := root(want.BaseRoot), root(want.Root)
	e, err := ResumeSharded(cfg, 1, bytes.NewReader(base), &baseRoot)
	if err != nil {
		t.Fatalf("ResumeSharded: %v", err)
	}
	verify(e, baseRoot, want.BaseBlocks)

	e, reports, err := ResumeShardedIncremental(cfg, 1, bytes.NewReader(base), []io.Reader{bytes.NewReader(log)}, &finalRoot)
	if err != nil {
		t.Fatalf("ResumeShardedIncremental: %v", err)
	}
	if rep := reports[0]; rep.Status != RecoveryClean || rep.Epochs != want.Epochs || rep.Dropped != 0 {
		t.Fatalf("recovery report %+v, want %d clean epochs", rep, want.Epochs)
	}
	verify(e, finalRoot, want.Blocks)
}

package core

import (
	"bytes"
	"errors"
	"testing"

	"authmem/internal/ctr"
	"authmem/internal/dram"
)

func dataTreeCfg() Config {
	cfg := smallCfg(ctr.Monolithic, MACInline)
	cfg.DataTree = true
	return cfg
}

func TestDataTreeRoundTrip(t *testing.T) {
	e := newEngine(t, dataTreeCfg())
	want := block(30)
	if err := e.Write(0x500, want); err != nil {
		t.Fatal(err)
	}
	goCold(e)
	dst := make([]byte, BlockBytes)
	if _, err := e.Read(0x500, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, want) {
		t.Fatal("data-tree round trip corrupted data")
	}
}

// TestDataTreeCatchesDataReplayDirectly: in the classic design, restoring
// stale ciphertext+MAC (a valid pair under a stale counter... or even the
// *current* counter if the attacker also rolls the counter block) is caught
// by the data leaf itself.
func TestDataTreeCatchesDataReplayDirectly(t *testing.T) {
	e := newEngine(t, dataTreeCfg())
	addr := uint64(0x600)
	if err := e.Write(addr, block(31)); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Write(addr, block(32)); err != nil {
		t.Fatal(err)
	}
	if err := e.Replay(snap); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockBytes)
	var ie *IntegrityError
	if _, err := e.Read(addr, dst); !errors.As(err, &ie) {
		t.Fatalf("data-tree replay undetected: %v", err)
	}
}

func TestDataTreeSurvivesReencryption(t *testing.T) {
	cfg := smallCfg(ctr.Split, MACInECC)
	cfg.DataTree = true
	e := newEngine(t, cfg)
	neighbor := block(33)
	if err := e.Write(3*BlockBytes, neighbor); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := e.Write(0, block(34)); err != nil {
			t.Fatal(err)
		}
	}
	if e.SchemeStats().Reencryptions == 0 {
		t.Fatal("no re-encryption")
	}
	goCold(e)
	dst := make([]byte, BlockBytes)
	if _, err := e.Read(3*BlockBytes, dst); err != nil {
		t.Fatalf("neighbor unreadable after re-encryption: %v", err)
	}
	if !bytes.Equal(dst, neighbor) {
		t.Fatal("neighbor data wrong")
	}
}

// TestDataTreeGeometryAndOverhead reproduces §2.2's motivation for Bonsai
// trees: at 512MB the data tree is ~60x larger and two levels deeper than
// the BMT over delta-encoded counters.
func TestDataTreeGeometryAndOverhead(t *testing.T) {
	classic := Default(ctr.Monolithic, MACInline)
	classic.DataTree = true
	co, err := ComputeOverhead(classic)
	if err != nil {
		t.Fatal(err)
	}
	bmt, err := ComputeOverhead(Default(ctr.Delta, MACInECC))
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(co.TreeBytes) / float64(bmt.TreeBytes); ratio < 40 {
		t.Fatalf("data tree only %.1fx larger than bonsai tree", ratio)
	}
	// ~14% tree overhead for the classic design (1/7th of the region).
	pct := 100 * float64(co.TreeBytes) / float64(co.RegionBytes)
	if pct < 12 || pct > 17 {
		t.Fatalf("data tree overhead %.1f%%", pct)
	}
	if co.TreeLevels <= bmt.TreeLevels {
		t.Fatalf("data tree depth %d not above bonsai %d", co.TreeLevels, bmt.TreeLevels)
	}
}

// TestDataTreeTimingCost shows the per-access tree-walk penalty BMTs remove:
// the classic design issues strictly more DRAM transactions for the same
// miss stream.
func TestDataTreeTimingCost(t *testing.T) {
	run := func(dataTree bool) uint64 {
		cfg := Default(ctr.Monolithic, MACInline)
		cfg.DataTree = dataTree
		tm, err := NewTimingModel(cfg, dram.MustNew(dram.DDR3_1600(4)))
		if err != nil {
			t.Fatal(err)
		}
		var now uint64
		for i := uint64(0); i < 3000; i++ {
			addr := (i * 2654435761 % (1 << 22)) * BlockBytes % cfg.RegionBytes
			now = tm.ReadMiss(now, addr)
		}
		return tm.Stats().Transactions()
	}
	classic, bmt := run(true), run(false)
	if classic <= bmt+bmt/4 {
		t.Fatalf("classic tree (%d txns) should cost well above BMT (%d)", classic, bmt)
	}
}

func TestDataTreePersistResume(t *testing.T) {
	cfg := dataTreeCfg()
	e := newEngine(t, cfg)
	truth := persistCampaign(t, e)
	var buf bytes.Buffer
	digest, err := e.Persist(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Resume(cfg, bytes.NewReader(buf.Bytes()), &digest)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockBytes)
	for addr, want := range truth {
		if _, err := r.Read(addr, dst); err != nil {
			t.Fatalf("read %#x: %v", addr, err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("block %#x wrong", addr)
		}
	}
	// Config mismatch on the DataTree flag is rejected.
	plain := cfg
	plain.DataTree = false
	if _, err := Resume(plain, bytes.NewReader(buf.Bytes()), nil); err == nil {
		t.Fatal("DataTree flag mismatch should fail")
	}
}

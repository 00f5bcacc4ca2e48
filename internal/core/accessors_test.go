package core

import (
	"bytes"
	"errors"
	"testing"

	"authmem/internal/ctr"
	"authmem/internal/dram"
)

func TestEngineAccessors(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	e := newEngine(t, cfg)
	if e.Config().Scheme != ctr.Delta {
		t.Fatal("Config accessor wrong")
	}
	if e.Tree() == nil || e.Tree().Leaves() == 0 {
		t.Fatal("Tree accessor wrong")
	}

	if e.ECCCodec() != "macsecded" || e.SchemeStats() != (ctr.Stats{}) {
		t.Fatalf("ECCCodec %q / SchemeStats %+v on a fresh engine", e.ECCCodec(), e.SchemeStats())
	}
	_, err := NewEngine(plainMemory())
	refusesPlain(t, "NewEngine", err)
}

func TestTamperCounterBlockUnwrittenGroup(t *testing.T) {
	// Tampering the counter block of a group that was never written
	// materializes a corrupt image; reads in that group must fail.
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	if err := e.TamperCounterBlock(3, 100); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockBytes)
	var ie *IntegrityError
	if _, err := e.Read(3*ctr.GroupBlocks*BlockBytes, dst); !errors.As(err, &ie) {
		t.Fatalf("corrupt fresh counter block accepted: %v", err)
	}
}

func TestReplayInlinePlacement(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Delta, MACInline))
	addr := uint64(0x300)
	old := block(60)
	if err := e.Write(addr, old); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Write(addr, block(61)); err != nil {
		t.Fatal(err)
	}
	if err := e.Replay(snap); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockBytes)
	var ie *IntegrityError
	if _, err := e.Read(addr, dst); !errors.As(err, &ie) {
		t.Fatalf("inline replay undetected: %v", err)
	}
}

func TestReplaySnapshotOfFreshBlock(t *testing.T) {
	// Snapshot of a never-written block captures only the counter image;
	// replaying it after writes rolls the counters back -> detected.
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	snap, err := e.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Write(0, block(62)); err != nil {
		t.Fatal(err)
	}
	if err := e.Replay(snap); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockBytes)
	if _, err := e.Read(0, dst); err == nil {
		t.Fatal("counter rollback of fresh snapshot undetected")
	}
}

func TestTimingModelAccessors(t *testing.T) {
	mem := dram.MustNew(dram.DDR3_1600(2))
	tm, err := NewTimingModel(Default(ctr.Delta, MACInECC), mem)
	if err != nil {
		t.Fatal(err)
	}
	if tm.DRAM() != mem {
		t.Fatal("DRAM accessor wrong")
	}
	cfg := Default(ctr.Delta, MACInECC)
	cfg.DisableEncryption = true
	cfg.KeyMaterial = nil
	d, err := NewTimingModel(cfg, mem)
	if err != nil {
		t.Fatal(err)
	}
	if d.MetadataCacheStats().Hits != 0 {
		t.Fatal("disabled model metadata stats should be zero")
	}
	if d.Scheme() != nil {
		t.Fatal("disabled model should have no scheme")
	}
}

func TestPersistWriterFailure(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	if err := e.Write(0, block(63)); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{1, 30, 100, 1000} {
		if _, err := e.Persist(&failingWriter{budget: budget}); err == nil {
			t.Fatalf("writer failure at %d bytes not propagated", budget)
		}
	}
}

type failingWriter struct{ budget int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.budget -= len(p); w.budget <= 0 {
		return 0, bytes.ErrTooLarge
	}
	return len(p), nil
}

func TestMetaAccessDirtyEvictionWritesBack(t *testing.T) {
	// Thrash the metadata cache with dirty counter blocks (writebacks to
	// many distinct groups) and confirm metadata writebacks reach DRAM.
	tm, err := NewTimingModel(Default(ctr.Delta, MACInECC), dram.MustNew(dram.DDR3_1600(4)))
	if err != nil {
		t.Fatal(err)
	}
	var now uint64
	for i := uint64(0); i < 3000; i++ {
		// One group per iteration: each dirties a distinct counter line.
		now = tm.WriteBack(now, i*uint64(ctr.GroupBlocks)*BlockBytes)
	}
	if tm.Stats().MetaWrites == 0 {
		t.Fatal("no metadata writebacks despite cache thrash")
	}
}

package core

import (
	"bytes"
	"errors"
	"testing"

	"authmem/internal/ctr"
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

	if e.SchemeStats() != (ctr.Stats{}) {
		t.Fatalf("SchemeStats %+v on a fresh engine", e.SchemeStats())
	}
}

func TestTamperCounterBlockUnwrittenGroup(t *testing.T) {
	// Tampering the counter block of a group that was never written
	// materializes a corrupt image; reads in that group must fail.
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	if err := flipElem(e.off, PlaneCounter, 3, 100); err != nil {
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
	snap := record(t, e.off, addr)
	if err := e.Write(addr, block(61)); err != nil {
		t.Fatal(err)
	}
	if err := replay(e.off, snap); err != nil {
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
	snap := record(t, e.off, 0)
	if err := e.Write(0, block(62)); err != nil {
		t.Fatal(err)
	}
	if err := replay(e.off, snap); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockBytes)
	if _, err := e.Read(0, dst); err == nil {
		t.Fatal("counter rollback of fresh snapshot undetected")
	}
}

func TestPersistWriterFailure(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	if err := e.Write(0, block(63)); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{1, 30, 100, 1000} {
		if _, err := e.persist(&failingWriter{budget: budget}); err == nil {
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

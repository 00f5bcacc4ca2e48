package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"authmem/internal/ctr"
)

// TestWriteBlocksMatchesWrite drives one engine through per-block Write and
// a twin through WriteBlocks with identical data, across every scheme ×
// placement point, and requires identical DRAM state: ciphertext, metadata
// lanes, check bytes, counter images, and scheme stats.
func TestWriteBlocksMatchesWrite(t *testing.T) {
	for _, cfg := range allDesignPoints() {
		one := newEngine(t, cfg)
		two := newEngine(t, cfg)
		rng := rand.New(rand.NewSource(99))

		// Several sweeps over one region rewrite the same blocks, so
		// grouped schemes exercise resets and re-encryptions through
		// the batched path too.
		const spanBlocks = 3 * ctr.GroupBlocks
		buf := make([]byte, spanBlocks*BlockBytes)
		for sweep := 0; sweep < 4; sweep++ {
			rng.Read(buf)
			base := uint64(sweep%2) * ctr.GroupBlocks * BlockBytes
			for j := 0; j < spanBlocks; j++ {
				if err := one.Write(base+uint64(j)*BlockBytes, buf[j*BlockBytes:(j+1)*BlockBytes]); err != nil {
					t.Fatal(err)
				}
			}
			if err := two.WriteBlocks(base, buf); err != nil {
				t.Fatal(err)
			}
		}

		if one.SchemeStats() != two.SchemeStats() {
			t.Fatalf("%s/%s: scheme stats diverge: %+v vs %+v",
				cfg.Scheme, cfg.Placement, one.SchemeStats(), two.SchemeStats())
		}
		if one.store.Len() != two.store.Len() {
			t.Fatalf("%s/%s: resident %d vs %d", cfg.Scheme, cfg.Placement, one.store.Len(), two.store.Len())
		}
		one.store.forEach(func(blk uint64, ct []byte, meta *uint64, check []byte) {
			ct2 := two.store.Ciphertext(blk)
			if !bytes.Equal(ct, ct2) {
				t.Fatalf("%s/%s: block %d ciphertext diverges", cfg.Scheme, cfg.Placement, blk)
			}
			if *meta != two.store.Meta(blk) {
				t.Fatalf("%s/%s: block %d metadata diverges", cfg.Scheme, cfg.Placement, blk)
			}
			if check != nil && !bytes.Equal(check, two.store.Check(blk)) {
				t.Fatalf("%s/%s: block %d check bytes diverge", cfg.Scheme, cfg.Placement, blk)
			}
		})
		one.images.forEach(func(midx uint64, img []byte) {
			if !bytes.Equal(img, two.images.Load(midx)) {
				t.Fatalf("%s/%s: counter image %d diverges", cfg.Scheme, cfg.Placement, midx)
			}
		})
	}
}

// TestReadBlocksMatchesRead writes a span, then requires ReadBlocks to
// return exactly what per-block Read does — including over a leading run of
// never-written (fresh, zero) blocks.
func TestReadBlocksMatchesRead(t *testing.T) {
	for _, cfg := range allDesignPoints() {
		e := newEngine(t, cfg)
		rng := rand.New(rand.NewSource(7))

		const spanBlocks = 2*ctr.GroupBlocks + 5
		// Leave the first half-group fresh.
		const firstWritten = ctr.GroupBlocks / 2
		want := make([]byte, spanBlocks*BlockBytes)
		for j := firstWritten; j < spanBlocks; j++ {
			pt := want[j*BlockBytes : (j+1)*BlockBytes]
			rng.Read(pt)
			if err := e.Write(uint64(j)*BlockBytes, pt); err != nil {
				t.Fatal(err)
			}
		}

		goCold(e)
		got := make([]byte, spanBlocks*BlockBytes)
		if err := e.ReadBlocks(0, got); err != nil {
			t.Fatalf("%s/%s: %v", cfg.Scheme, cfg.Placement, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s/%s: batched read diverges from written data", cfg.Scheme, cfg.Placement)
		}

		goCold(e)
		single := make([]byte, BlockBytes)
		for j := 0; j < spanBlocks; j++ {
			if _, err := e.Read(uint64(j)*BlockBytes, single); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(single, got[j*BlockBytes:(j+1)*BlockBytes]) {
				t.Fatalf("%s/%s: block %d: Read and ReadBlocks disagree", cfg.Scheme, cfg.Placement, j)
			}
		}
	}
}

// TestReadBlocksDetectsTamper: a flipped ciphertext bit inside the span
// must fail the batch with an *IntegrityError.
func TestReadBlocksDetectsTamper(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	buf := make([]byte, 8*BlockBytes)
	rand.New(rand.NewSource(3)).Read(buf)
	if err := e.WriteBlocks(0, buf); err != nil {
		t.Fatal(err)
	}
	// Three flipped bits exceed the 2-bit correction budget.
	for bit := 0; bit < 3; bit++ {
		if err := flipAt(e.off, PlaneData, 5*BlockBytes, bit*100); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, len(buf))
	var ie *IntegrityError
	if err := e.ReadBlocks(0, dst); !errors.As(err, &ie) {
		t.Fatalf("tampered span read: %v", err)
	}
}

// TestBatchSpanChecks pins the argument validation of both batch calls.
func TestBatchSpanChecks(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	buf := make([]byte, 2*BlockBytes)
	if err := e.WriteBlocks(1, buf); err == nil {
		t.Fatal("unaligned batched write accepted")
	}
	if err := e.WriteBlocks(0, buf[:70]); err == nil {
		t.Fatal("non-multiple batched write accepted")
	}
	if err := e.WriteBlocks(0, nil); err == nil {
		t.Fatal("empty batched write accepted")
	}
	if err := e.WriteBlocks(e.cfg.RegionBytes-BlockBytes, buf); err == nil {
		t.Fatal("batched write past region end accepted")
	}
	if err := e.ReadBlocks(1, buf); err == nil {
		t.Fatal("unaligned batched read accepted")
	}
	if err := e.ReadBlocks(e.cfg.RegionBytes-BlockBytes, buf); err == nil {
		t.Fatal("batched read past region end accepted")
	}
}

// TestBlockStoreBasics pins the arena semantics the engine depends on:
// presence, stable slices, ascending iteration, and the shared zero image.
func TestBlockStoreBasics(t *testing.T) {
	s := newBlockStore(3*chunkBlocks, 8)
	if s.Len() != 0 || s.Present(0) || s.Ciphertext(0) != nil {
		t.Fatal("fresh store not empty")
	}
	// Touch blocks across chunk boundaries, out of order.
	idx := []uint64{2*chunkBlocks + 7, 1, chunkBlocks - 1, chunkBlocks, 1} // one duplicate
	for _, blk := range idx {
		ct := s.Materialize(blk)
		ct[0] = byte(blk)
		s.SetMeta(blk, blk*3+1)
		s.Check(blk)[0] = byte(blk + 1)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	var order []uint64
	s.forEach(func(blk uint64, ct []byte, meta *uint64, check []byte) {
		order = append(order, blk)
		if ct[0] != byte(blk) || *meta != blk*3+1 || check[0] != byte(blk+1) {
			t.Fatalf("block %d state lost", blk)
		}
	})
	want := []uint64{1, chunkBlocks - 1, chunkBlocks, 2*chunkBlocks + 7}
	for i, blk := range want {
		if order[i] != blk {
			t.Fatalf("iteration order %v, want %v", order, want)
		}
	}

	im := newImageStore(2 * chunkBlocks)
	if im.Len() != 0 {
		t.Fatal("fresh image store not empty")
	}
	if img := im.Load(5); !bytes.Equal(img, make([]byte, BlockBytes)) {
		t.Fatal("absent image must read as zeros")
	}
	copy(im.Store(5), []byte{9, 9, 9})
	if img := im.Load(5); img[0] != 9 {
		t.Fatal("stored image lost")
	}
	if img := im.Load(chunkBlocks + 5); img[0] != 0 {
		t.Fatal("shared zero image was mutated")
	}
}

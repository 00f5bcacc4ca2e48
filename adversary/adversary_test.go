package adversary_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"authmem"
	"authmem/adversary"
)

func newMem(t *testing.T, cfg authmem.Config, shards int) *authmem.Memory {
	t.Helper()
	cfg.Key = make([]byte, authmem.KeySize)
	m, err := authmem.NewSharded(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// locate is LocateAddr that fails the test on error.
func locate(t *testing.T, m *authmem.Memory, p adversary.Plane, addr uint64) uint64 {
	t.Helper()
	phys, err := adversary.LocateAddr(m, p, addr)
	if err != nil {
		t.Fatal(err)
	}
	return phys
}

// offChipBytes reads every element an attacker can read on m: the written
// blocks' data, lane and check bytes, every counter block and every
// off-chip tree node.
func offChipBytes(t *testing.T, m *authmem.Memory, written []uint64) []byte {
	t.Helper()
	var out []byte
	read := func(phys uint64, n uint64) {
		b := make([]byte, n)
		if err := adversary.ReadRaw(m, phys, b); err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
	}
	check := adversary.PlaneSize(m, adversary.Check) / (m.Size() / authmem.BlockSize)
	for _, addr := range written {
		read(locate(t, m, adversary.Data, addr), authmem.BlockSize)
		read(locate(t, m, adversary.Lane, addr), 8)
		if check > 0 {
			read(locate(t, m, adversary.Check, addr), check)
		}
	}
	perShard := func(p adversary.Plane) uint64 {
		return adversary.PlaneSize(m, p) / uint64(m.Shards()) / authmem.BlockSize
	}
	for shard := 0; shard < m.Shards(); shard++ {
		for _, p := range []adversary.Plane{adversary.Counter, adversary.Tree} {
			for i := uint64(0); i < perShard(p); i++ {
				phys, err := adversary.Locate(m, shard, p, i)
				if err != nil {
					t.Fatal(err)
				}
				read(phys, authmem.BlockSize)
			}
		}
	}
	return out
}

// onChipLevel returns the first tree level LocateNode refuses: the trusted,
// on-chip one.
func onChipLevel(m *authmem.Memory) int {
	level := 0
	for ; ; level++ {
		if _, err := adversary.LocateNode(m, 0, level, 0); err != nil {
			return level
		}
	}
}

// TestAdversaryRejectsInvalidCalls: every call the surface refuses returns
// an error — never a panic, a negative tree level included — and changes
// nothing: the off-chip bytes stay as they were and the next read of a warm
// block is still a cache hit, so validation runs before any eviction.
func TestAdversaryRejectsInvalidCalls(t *testing.T) {
	for placement, name := range map[authmem.MACPlacement]string{authmem.MACInECC: "macecc", authmem.InlineMAC: "inline"} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/%d", name, shards), func(t *testing.T) {
				cfg := authmem.DefaultConfig(8 << 20) // the smallest with off-chip tree levels at 4 shards
				cfg.Placement = placement
				m := newMem(t, cfg, shards)
				var written []uint64
				for i := uint64(0); i < 16; i++ {
					addr := i * (m.Size() / 16)
					if err := m.Write(addr, bytes.Repeat([]byte{byte(i)}, authmem.BlockSize)); err != nil {
						t.Fatal(err)
					}
					written = append(written, addr)
				}
				if err := m.FlushAll(); err != nil {
					t.Fatal(err)
				}
				warm := written[3]
				fresh := written[3] + authmem.BlockSize // never written
				data := locate(t, m, adversary.Data, warm)
				lane := locate(t, m, adversary.Lane, warm)
				size := adversary.Size(m)
				top := onChipLevel(m)
				if top == 0 {
					t.Fatal("the region's tree has no off-chip level")
				}
				buf := make([]byte, 8)
				cases := []struct {
					name string
					call func() error
				}{
					{"flip past the map", func() error { return adversary.FlipBit(m, size, 0) }},
					{"read past the map", func() error { return adversary.ReadRaw(m, size, buf[:1]) }},
					{"write past the map", func() error { return adversary.WriteRaw(m, size+7, buf[:1]) }},
					{"bit past the data element", func() error { return adversary.FlipBit(m, data, 8*authmem.BlockSize) }},
					{"bit past the lane", func() error { return adversary.FlipBit(m, lane, 64) }},
					{"bit from the last data byte", func() error { return adversary.FlipBit(m, data+authmem.BlockSize-1, 8) }},
					{"negative bit", func() error { return adversary.FlipBit(m, data, -1) }},
					{"read across elements", func() error { return adversary.ReadRaw(m, data+authmem.BlockSize-4, buf) }},
					{"write across elements", func() error { return adversary.WriteRaw(m, lane+4, buf) }},
					{"empty write", func() error { return adversary.WriteRaw(m, data, nil) }},
					{"flip a never-written block", func() error {
						return adversary.FlipBit(m, locate(t, m, adversary.Data, fresh), 0)
					}},
					{"write a never-written lane", func() error {
						return adversary.WriteRaw(m, locate(t, m, adversary.Lane, fresh), buf)
					}},
					{"read a never-written block", func() error {
						return adversary.ReadRaw(m, locate(t, m, adversary.Data, fresh), buf)
					}},
					{"on-chip tree level", func() error { _, err := adversary.LocateNode(m, 0, top, 0); return err }},
					{"negative tree level", func() error { _, err := adversary.LocateNode(m, 0, -1, 0); return err }},
					{"tree node out of range", func() error { _, err := adversary.LocateNode(m, 0, 0, 1<<40); return err }},
					{"shard out of range", func() error { _, err := adversary.LocateNode(m, shards, 0, 0); return err }},
					{"unaligned address", func() error { _, err := adversary.LocateAddr(m, adversary.Data, 3); return err }},
					{"tree by address", func() error { _, err := adversary.LocateAddr(m, adversary.Tree, 0); return err }},
					{"unknown plane", func() error { _, err := adversary.LocateAddr(m, adversary.Plane(9), warm); return err }},
					{"negative plane", func() error { _, err := adversary.Locate(m, 0, adversary.Plane(-1), 0); return err }},
					{"counter past the plane", func() error {
						_, err := adversary.Locate(m, 0, adversary.Counter, adversary.PlaneSize(m, adversary.Counter)/uint64(shards)/authmem.BlockSize)
						return err
					}},
				}
				if placement == authmem.MACInECC {
					cases = append(cases, struct {
						name string
						call func() error
					}{"check bytes under MAC-in-ECC", func() error { _, err := adversary.LocateAddr(m, adversary.Check, warm); return err }})
				}
				dst := make([]byte, authmem.BlockSize)
				if _, err := m.Read(warm, dst); err != nil { // warm the line
					t.Fatal(err)
				}
				before := offChipBytes(t, m, written)
				for _, c := range cases {
					hits := m.Stats().DataCacheHits
					if err := c.call(); err == nil {
						t.Fatalf("%s: no error", c.name)
					}
					if !bytes.Equal(offChipBytes(t, m, written), before) {
						t.Fatalf("%s: off-chip bytes changed", c.name)
					}
					if _, err := m.Read(warm, dst); err != nil {
						t.Fatal(err)
					}
					if got := m.Stats().DataCacheHits; got != hits+1 {
						t.Fatalf("%s: the next read missed the cache (%d hits -> %d)", c.name, hits, got)
					}
				}
			})
		}
	}
}

// TestAdversaryReplayAndSplice drives the two recorded-bytes attacks through
// the surface at one and four shards: a replay (the same offsets, later) and
// a splice (another block's offsets) are both refused by the next read, and
// writing the current bytes back restores a readable block.
func TestAdversaryReplayAndSplice(t *testing.T) {
	for _, shards := range []int{1, 4} {
		m := newMem(t, authmem.DefaultConfig(1<<20), shards)
		victim, other := uint64(0), m.Size()-authmem.BlockSize
		v1 := bytes.Repeat([]byte{1}, authmem.BlockSize)
		for _, addr := range []uint64{victim, other} {
			if err := m.Write(addr, v1); err != nil {
				t.Fatal(err)
			}
		}
		record := func(addr uint64, planes ...adversary.Plane) map[adversary.Plane][]byte {
			rec := map[adversary.Plane][]byte{}
			for _, p := range planes {
				b := make([]byte, authmem.BlockSize)
				if p == adversary.Lane {
					b = b[:8]
				}
				if err := adversary.ReadRaw(m, locate(t, m, p, addr), b); err != nil {
					t.Fatal(err)
				}
				rec[p] = b
			}
			return rec
		}
		plant := func(addr uint64, rec map[adversary.Plane][]byte) {
			for p, b := range rec {
				if err := adversary.WriteRaw(m, locate(t, m, p, addr), b); err != nil {
					t.Fatal(err)
				}
			}
		}
		stale := record(victim, adversary.Data, adversary.Lane, adversary.Counter)
		if err := m.Write(victim, bytes.Repeat([]byte{2}, authmem.BlockSize)); err != nil {
			t.Fatal(err)
		}
		current := record(victim, adversary.Data, adversary.Lane, adversary.Counter)
		dst := make([]byte, authmem.BlockSize)
		var ie *authmem.IntegrityError

		plant(victim, stale)
		if _, err := m.Read(victim, dst); !errors.As(err, &ie) || ie.Addr != victim {
			t.Fatalf("%d shards: replayed block read gave %v", shards, err)
		}
		plant(victim, current)
		if _, err := m.Read(victim, dst); err != nil || dst[0] != 2 {
			t.Fatalf("%d shards: restored block read gave %v, %d", shards, err, dst[0])
		}

		otherBytes := record(other, adversary.Data, adversary.Lane)
		plant(other, record(victim, adversary.Data, adversary.Lane))
		if _, err := m.Read(other, dst); !errors.As(err, &ie) || ie.Addr != other {
			t.Fatalf("%d shards: spliced block read gave %v", shards, err)
		}
		plant(other, otherBytes)
		if _, err := m.Read(other, dst); err != nil || dst[0] != 1 {
			t.Fatalf("%d shards: restored splice target read gave %v", shards, err)
		}
	}
}

// TestAdversaryRawWritesAgainstLockFreeReaders races the surface against
// warm readers: a raw write evicts under the shard lock while the seqlock
// probe reads without it. The attacker flips single data bits (correctable,
// then undone by writing the clean bytes back) and rewrites counter blocks
// and lanes with the bytes they hold, so every read must return the written
// data with no error.
func TestAdversaryRawWritesAgainstLockFreeReaders(t *testing.T) {
	m := newMem(t, authmem.DefaultConfig(1<<20), 4)
	const blocks = 8
	stride := m.Size() / blocks
	want := func(i uint64) []byte { return bytes.Repeat([]byte{byte(i + 1)}, authmem.BlockSize) }
	for i := uint64(0); i < blocks; i++ {
		if err := m.Write(i*stride, want(i)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func() {
			dst := make([]byte, authmem.BlockSize)
			for n := uint64(0); ; n++ {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				i := n % blocks
				if _, err := m.Read(i*stride, dst); err != nil || !bytes.Equal(dst, want(i)) {
					errs <- fmt.Errorf("block %d: %v, data ok %v", i, err, bytes.Equal(dst, want(i)))
					return
				}
			}
		}()
	}
	buf := make([]byte, authmem.BlockSize)
	for n := uint64(0); n < 2000; n++ {
		addr := n % blocks * stride
		var err error
		switch n % 3 {
		case 0: // a correctable fault, then the clean bytes back
			phys := locate(t, m, adversary.Data, addr)
			if err = adversary.ReadRaw(m, phys, buf); err == nil {
				if err = adversary.FlipBit(m, phys, int(n%512)); err == nil {
					err = adversary.WriteRaw(m, phys, buf)
				}
			}
		case 1:
			phys := locate(t, m, adversary.Counter, addr)
			if err = adversary.ReadRaw(m, phys, buf); err == nil {
				err = adversary.WriteRaw(m, phys, buf)
			}
		case 2:
			phys := locate(t, m, adversary.Lane, addr)
			if err = adversary.ReadRaw(m, phys, buf[:8]); err == nil {
				err = adversary.WriteRaw(m, phys, buf[:8])
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	for r := 0; r < 2; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

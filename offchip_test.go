package authmem

import (
	"errors"
	"testing"

	"authmem/internal/core"
)

// In-package tests cannot import authmem/adversary (it imports this
// package), so these helpers drive the same off-chip surface through m.eng.

const (
	planeData    = core.PlaneData
	planeLane    = core.PlaneLane
	planeCheck   = core.PlaneCheck
	planeCounter = core.PlaneCounter
)

// flipAt flips one bit of the plane-p element holding the block at addr.
func flipAt(m *Memory, p core.Plane, addr uint64, bit int) error {
	phys, err := m.eng.LocateAddr(p, addr)
	if err != nil {
		return err
	}
	return m.eng.FlipBit(phys, bit)
}

// flipNode flips one bit of off-chip tree node (level, index) of a shard's
// subtree.
func flipNode(m *Memory, shard, level int, index uint64, bit int) error {
	o, base, err := m.eng.OffChip(shard)
	if err != nil {
		return err
	}
	phys, err := o.LocateNode(level, index)
	if err != nil {
		return err
	}
	return m.eng.FlipBit(base+phys, bit)
}

// checkBytes returns the inline codec's check bytes per block (0 under
// MACInECC).
func checkBytes(m *Memory) uint64 {
	o, _, _ := m.eng.OffChip(0)
	return o.PlaneSize(planeCheck) / (m.ShardSize() / BlockSize)
}

// rawElem is one off-chip element as an attacker read it.
type rawElem struct {
	plane core.Plane
	phys  uint64
	b     []byte
}

// record reads what DRAM holds for the block at addr: its data, lane and
// check bytes if it was ever written, and its counter block.
func record(t testing.TB, m *Memory, addr uint64) []rawElem {
	t.Helper()
	var rec []rawElem
	for _, el := range []struct {
		p core.Plane
		n uint64
	}{{planeData, BlockSize}, {planeLane, 8}, {planeCheck, checkBytes(m)}, {planeCounter, BlockSize}} {
		if el.n == 0 {
			continue // no check bytes under MACInECC
		}
		phys, err := m.eng.LocateAddr(el.p, addr)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, el.n)
		if m.eng.ReadRaw(phys, b) != nil {
			continue // a never-written block has only its counter block
		}
		rec = append(rec, rawElem{el.p, phys, b})
	}
	return rec
}

// replay writes recorded elements back where they were read.
func replay(m *Memory, rec []rawElem) error {
	for _, el := range rec {
		if err := m.eng.WriteRaw(el.phys, el.b); err != nil {
			return err
		}
	}
	return nil
}

// splice writes a recording's block bytes (data, lane, check) to the block at
// addr, in any shard; the counter block stays, it covers the source's group.
func splice(m *Memory, rec []rawElem, addr uint64) error {
	if len(rec) == 0 || rec[0].plane != planeData {
		return errors.New("recording holds no data to splice")
	}
	for _, el := range rec {
		if el.plane == planeCounter {
			continue
		}
		phys, err := m.eng.LocateAddr(el.plane, addr)
		if err != nil {
			return err
		}
		if err := m.eng.WriteRaw(phys, el.b); err != nil {
			return err
		}
	}
	return nil
}

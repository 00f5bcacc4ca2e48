package ctr

import "fmt"

// This file generalizes the two compact counter schemes over their design
// space. §4.2 of the paper notes that "there are multiple block group and
// delta size combinations" satisfying the one-metadata-block constraint;
// the paper evaluates 7-bit deltas over 64-block groups, and these
// parameterized schemes let the ablation benches sweep the alternatives
// (e.g. 5/6/7-bit deltas at group 64, or 8-bit deltas at group 56).

// ParamDeltaScheme is DeltaScheme with configurable delta width and group
// size. The reference stays 56 bits; the constraint RefBits + G*W <= 512
// keeps a group's counters within one 64-byte metadata block, which §4.2
// requires so reference and deltas load with a single read.
type ParamDeltaScheme struct {
	width  uint // delta bits
	group  int  // blocks per group
	max    uint16
	groups map[uint64]*paramDeltaGroup
	stats  Stats
	hook   ReencryptFunc
	old    []uint64 // the hook's oldCounters argument, one per group block
}

type paramDeltaGroup struct {
	ref    uint64
	deltas []uint16
}

// NewDeltaParam builds a delta scheme with the given delta width (2..15
// bits) and group size.
func NewDeltaParam(widthBits uint, groupBlocks int) (*ParamDeltaScheme, error) {
	if widthBits < 2 || widthBits > 15 {
		return nil, fmt.Errorf("ctr: delta width %d out of range 2..15", widthBits)
	}
	if groupBlocks < 2 {
		return nil, fmt.Errorf("ctr: group size %d too small", groupBlocks)
	}
	if bits := RefBits + groupBlocks*int(widthBits); bits > MetadataBlockBytes*8 {
		return nil, fmt.Errorf("ctr: %d-bit deltas x %d blocks need %d bits, exceeding one %d-byte metadata block",
			widthBits, groupBlocks, bits, MetadataBlockBytes)
	}
	return &ParamDeltaScheme{
		width:  widthBits,
		group:  groupBlocks,
		max:    uint16(1)<<widthBits - 1,
		groups: make(map[uint64]*paramDeltaGroup),
		old:    make([]uint64, groupBlocks),
	}, nil
}

// Name implements Scheme.
func (s *ParamDeltaScheme) Name() string {
	return fmt.Sprintf("delta-%d/g%d", s.width, s.group)
}

// GroupSize implements Scheme.
func (s *ParamDeltaScheme) GroupSize() int { return s.group }

func (s *ParamDeltaScheme) groupOf(block uint64) (*paramDeltaGroup, uint64, int) {
	gid := block / uint64(s.group)
	g := s.groups[gid]
	if g == nil {
		g = &paramDeltaGroup{deltas: make([]uint16, s.group)}
		s.groups[gid] = g
	}
	return g, gid, int(block % uint64(s.group))
}

// Counter implements Scheme.
func (s *ParamDeltaScheme) Counter(block uint64) uint64 {
	g, _, i := s.groupOf(block)
	return g.ref + uint64(g.deltas[i])
}

// Touch implements Scheme with the same reset / re-encode / re-encrypt
// policy as the fixed-width DeltaScheme.
func (s *ParamDeltaScheme) Touch(block uint64) WriteOutcome {
	g, gid, i := s.groupOf(block)
	s.stats.Writes++
	var out WriteOutcome

	if g.deltas[i] == s.max {
		dmin := g.deltas[0]
		for _, d := range g.deltas[1:] {
			if d < dmin {
				dmin = d
			}
		}
		if dmin > 0 {
			g.ref += uint64(dmin)
			for j := range g.deltas {
				g.deltas[j] -= dmin
			}
			s.stats.Reencodes++
			out.Reencoded = true
		} else {
			newRef := g.ref + uint64(s.max) + 1
			if s.hook != nil {
				for j := range s.old {
					s.old[j] = g.ref + uint64(g.deltas[j])
				}
				s.hook(gid*uint64(s.group), s.old, newRef)
			}
			g.ref = newRef
			clear(g.deltas)
			s.stats.Reencryptions++
			s.stats.ReencryptedBlocks += uint64(s.group)
			out.Reencrypted = true
			out.Counter = newRef
			return out
		}
	}

	g.deltas[i]++
	out.Counter = g.ref + uint64(g.deltas[i])

	// All-equal reset.
	d := g.deltas[0]
	equal := d > 0
	if equal {
		for _, v := range g.deltas[1:] {
			if v != d {
				equal = false
				break
			}
		}
	}
	if equal {
		g.ref += uint64(d)
		clear(g.deltas)
		s.stats.Resets++
		out.Reset = true
	}
	return out
}

// MetadataBits implements Scheme.
func (s *ParamDeltaScheme) MetadataBits() float64 {
	return float64(RefBits+s.group*int(s.width)) / float64(s.group)
}

// MetadataBlock implements Scheme.
func (s *ParamDeltaScheme) MetadataBlock(block uint64) uint64 {
	return block / uint64(s.group)
}

// MetadataBlocks implements Scheme.
func (s *ParamDeltaScheme) MetadataBlocks(n uint64) uint64 {
	g := uint64(s.group)
	return (n + g - 1) / g
}

// Stats implements Scheme.
func (s *ParamDeltaScheme) Stats() Stats { return s.stats }

// OnReencrypt implements Scheme.
func (s *ParamDeltaScheme) OnReencrypt(f ReencryptFunc) { s.hook = f }

// ParamSplitScheme generalizes split counters over minor width and group
// size, under the same one-metadata-block constraint (64-bit major +
// G*minor <= 512 bits).
type ParamSplitScheme struct {
	width  uint
	group  int
	max    uint16
	groups map[uint64]*paramSplitGroup
	stats  Stats
	hook   ReencryptFunc
	old    []uint64 // the hook's oldCounters argument, one per group block
}

type paramSplitGroup struct {
	major  uint64
	minors []uint16
}

// NewSplitParam builds a split-counter scheme with the given minor width
// (2..15 bits) and group size.
func NewSplitParam(widthBits uint, groupBlocks int) (*ParamSplitScheme, error) {
	if widthBits < 2 || widthBits > 15 {
		return nil, fmt.Errorf("ctr: minor width %d out of range 2..15", widthBits)
	}
	if groupBlocks < 2 {
		return nil, fmt.Errorf("ctr: group size %d too small", groupBlocks)
	}
	if bits := 64 + groupBlocks*int(widthBits); bits > MetadataBlockBytes*8 {
		return nil, fmt.Errorf("ctr: %d-bit minors x %d blocks need %d bits, exceeding one %d-byte metadata block",
			widthBits, groupBlocks, bits, MetadataBlockBytes)
	}
	return &ParamSplitScheme{
		width:  widthBits,
		group:  groupBlocks,
		max:    uint16(1)<<widthBits - 1,
		groups: make(map[uint64]*paramSplitGroup),
		old:    make([]uint64, groupBlocks),
	}, nil
}

// Name implements Scheme.
func (s *ParamSplitScheme) Name() string {
	return fmt.Sprintf("split-%d/g%d", s.width, s.group)
}

// GroupSize implements Scheme.
func (s *ParamSplitScheme) GroupSize() int { return s.group }

func (s *ParamSplitScheme) groupOf(block uint64) (*paramSplitGroup, uint64, int) {
	gid := block / uint64(s.group)
	g := s.groups[gid]
	if g == nil {
		g = &paramSplitGroup{minors: make([]uint16, s.group)}
		s.groups[gid] = g
	}
	return g, gid, int(block % uint64(s.group))
}

func (s *ParamSplitScheme) counterOf(g *paramSplitGroup, i int) uint64 {
	return g.major<<s.width | uint64(g.minors[i])
}

// Counter implements Scheme.
func (s *ParamSplitScheme) Counter(block uint64) uint64 {
	g, _, i := s.groupOf(block)
	return s.counterOf(g, i)
}

// Touch implements Scheme.
func (s *ParamSplitScheme) Touch(block uint64) WriteOutcome {
	g, gid, i := s.groupOf(block)
	s.stats.Writes++
	if g.minors[i] < s.max {
		g.minors[i]++
		return WriteOutcome{Counter: s.counterOf(g, i)}
	}
	newMajor := g.major + 1
	newCounter := newMajor << s.width
	if s.hook != nil {
		for j := range s.old {
			s.old[j] = s.counterOf(g, j)
		}
		s.hook(gid*uint64(s.group), s.old, newCounter)
	}
	g.major = newMajor
	clear(g.minors)
	g.minors[i] = 1
	s.stats.Reencryptions++
	s.stats.ReencryptedBlocks += uint64(s.group)
	return WriteOutcome{Counter: s.counterOf(g, i), Reencrypted: true}
}

// MetadataBits implements Scheme.
func (s *ParamSplitScheme) MetadataBits() float64 {
	return float64(64+s.group*int(s.width)) / float64(s.group)
}

// MetadataBlock implements Scheme.
func (s *ParamSplitScheme) MetadataBlock(block uint64) uint64 {
	return block / uint64(s.group)
}

// MetadataBlocks implements Scheme.
func (s *ParamSplitScheme) MetadataBlocks(n uint64) uint64 {
	g := uint64(s.group)
	return (n + g - 1) / g
}

// Stats implements Scheme.
func (s *ParamSplitScheme) Stats() Stats { return s.stats }

// OnReencrypt implements Scheme.
func (s *ParamSplitScheme) OnReencrypt(f ReencryptFunc) { s.hook = f }

var (
	_ Scheme = (*ParamDeltaScheme)(nil)
	_ Scheme = (*ParamSplitScheme)(nil)
)

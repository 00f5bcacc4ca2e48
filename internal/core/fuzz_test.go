package core

import (
	"bytes"
	"sync"
	"testing"

	"authmem/internal/ctr"
)

// persistFixture is a known-good persisted engine image built once and
// shared by every fuzz execution: the engine, its plaintexts, the image
// bytes, and the pinned root digest.
type persistFixture struct {
	cfg   Config
	img   []byte
	root  RootDigest
	data  map[uint64][]byte // blk -> plaintext
	blkIx []uint64
}

var (
	fixtureOnce sync.Once
	fixture     persistFixture
	fixtureErr  error
)

func buildFixture() {
	cfg := smallCfg(ctr.Delta, MACInECC)
	e, err := NewEngine(cfg)
	if err != nil {
		fixtureErr = err
		return
	}
	data := make(map[uint64][]byte)
	var blks []uint64
	// A spread of blocks across several groups, some rewritten so
	// counters move past zero.
	for i := 0; i < 48; i++ {
		blk := uint64(i * 37 % 1024)
		pt := block(int64(i + 100))
		if err := e.Write(blk*BlockBytes, pt); err != nil {
			fixtureErr = err
			return
		}
		if _, seen := data[blk]; !seen {
			blks = append(blks, blk)
		}
		data[blk] = pt
	}
	var buf bytes.Buffer
	root, err := e.persist(&buf)
	if err != nil {
		fixtureErr = err
		return
	}
	fixture = persistFixture{cfg: cfg, img: buf.Bytes(), root: root, data: data, blkIx: blks}
}

// FuzzPersistRoundTrip mutates a known-good persisted image — bit flips
// and truncations — and enforces the resume safety contract: a damaged
// image either fails Resume loudly, or resumes into an engine whose every
// read returns the original plaintext or a loud error. No mutation may
// produce an engine that silently serves wrong data.
//
// The spec bytes select flips (2-byte little-endian chunks addressing bits
// of the image); trunc shortens the image by trunc%len bytes. trunc==0 and
// an empty spec must round-trip perfectly — the fixture's own regression
// guard.
func FuzzPersistRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{}, uint16(1))                                   // drop one trailing byte
	f.Add([]byte{}, uint16(4096))                                // deep truncation
	f.Add([]byte{0x00, 0x00}, uint16(0))                         // magic bit
	f.Add([]byte{0x48, 0x00}, uint16(0))                         // config header bit
	f.Add([]byte{0x00, 0x04}, uint16(0))                         // data section bit
	f.Add([]byte{0xF0, 0x7F}, uint16(0))                         // late-image (tree) bit
	f.Add([]byte{0x20, 0x03, 0x21, 0x03, 0x22, 0x03}, uint16(0)) // burst
	f.Add([]byte{0x10, 0x01}, uint16(64))                        // flip + truncate together

	f.Fuzz(func(t *testing.T, spec []byte, trunc uint16) {
		fixtureOnce.Do(buildFixture)
		if fixtureErr != nil {
			t.Fatal(fixtureErr)
		}
		fx := &fixture

		img := append([]byte(nil), fx.img...)
		mutated := false
		for i := 0; i+1 < len(spec); i += 2 {
			bit := int(uint16(spec[i]) | uint16(spec[i+1])<<8)
			bit %= len(img) * 8
			img[bit/8] ^= 1 << uint(bit%8)
			mutated = true
		}
		if cut := int(trunc) % (len(img) + 1); cut > 0 {
			img = img[:len(img)-cut]
			mutated = true
		}

		root := fx.root
		e, _, err := ResumeShardedIncremental(fx.cfg, 1, bytes.NewReader(img), nil, &root)
		if err != nil {
			return // loud rejection: the safe outcome
		}
		// Resume accepted the image. Every stored block must now read
		// back correctly or fail loudly; silence plus wrong bytes is the
		// one forbidden result.
		dst := make([]byte, BlockBytes)
		for _, blk := range fx.blkIx {
			if _, err := e.Read(blk*BlockBytes, dst); err != nil {
				continue // detected at read time: loud
			}
			if !bytes.Equal(dst, fx.data[blk]) {
				t.Fatalf("silently wrong data at block %d after resume\nspec %x trunc %d", blk, spec, trunc)
			}
		}
		if !mutated {
			// The identity mutation must resume with zero read errors.
			for _, blk := range fx.blkIx {
				if _, err := e.Read(blk*BlockBytes, dst); err != nil {
					t.Fatalf("clean image: read %d failed: %v", blk, err)
				}
			}
		}
	})
}

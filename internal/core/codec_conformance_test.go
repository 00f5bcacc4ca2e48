package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"authmem/internal/ctr"
)

// codecConfigs returns one engine configuration per MAC placement, so one
// per codec: the placement fixes the codec.
func codecConfigs() []Config {
	return []Config{smallCfg(ctr.Delta, MACInline), smallCfg(ctr.Delta, MACInECC)}
}

// withImageCodec returns a copy of img whose headers name codec to where
// they named codec from (each a length-prefixed name): the image a build
// running the other codec would have written.
func withImageCodec(t *testing.T, img []byte, from, to string) []byte {
	t.Helper()
	field := func(name string) []byte {
		return append(binary.LittleEndian.AppendUint64(nil, uint64(len(name))), name...)
	}
	if !bytes.Contains(img, field(from)) {
		t.Fatalf("image header names no codec %q", from)
	}
	return bytes.ReplaceAll(img, field(from), field(to))
}

// imageCodec returns the codec name e's persisted image records: the one
// place an engine names its codec.
func imageCodec(t *testing.T, e *Engine) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := e.persist(&buf); err != nil {
		t.Fatal(err)
	}
	field := buf.Bytes()[len(persistMagic)+8*len(imageHeader(e.cfg)):]
	n := binary.LittleEndian.Uint64(field)
	return string(field[8 : 8+n])
}

// TestCodecConformanceCleanTrace runs the identical write/read trace under
// every codec: plaintext in must be plaintext out, bit for bit, regardless
// of which check code protects the stored blocks.
func TestCodecConformanceCleanTrace(t *testing.T) {
	type readback map[uint64][]byte
	results := map[string]readback{}

	for _, cfg := range codecConfigs() {
		e := newEngine(t, cfg)
		if got := imageCodec(t, e); got != cfg.CodecName() {
			t.Fatalf("engine records codec %q, config names %q", got, cfg.CodecName())
		}
		rng := rand.New(rand.NewSource(77))
		truth := make(map[uint64][]byte)
		for i := 0; i < 2000; i++ {
			blk := uint64(rng.Intn(300))
			data := block(rng.Int63())
			if err := e.Write(blk*BlockBytes, data); err != nil {
				t.Fatalf("%s: write: %v", cfg.CodecName(), err)
			}
			truth[blk*BlockBytes] = data
		}
		goCold(e)
		got := readback{}
		dst := make([]byte, BlockBytes)
		for addr, want := range truth {
			if _, err := e.Read(addr, dst); err != nil {
				t.Fatalf("%s: read %#x: %v", cfg.CodecName(), addr, err)
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("%s: block %#x read back wrong", cfg.CodecName(), addr)
			}
			got[addr] = append([]byte(nil), dst...)
		}
		results[cfg.CodecName()] = got
	}

	// Cross-codec: every codec returned byte-identical reads.
	var base readback
	var baseName string
	for name, rb := range results {
		if base == nil {
			base, baseName = rb, name
			continue
		}
		for addr, want := range base {
			if !bytes.Equal(rb[addr], want) {
				t.Fatalf("codecs %s and %s disagree at %#x", baseName, name, addr)
			}
		}
	}
}

// TestCodecConformanceDataFaultNeverSilent is the safety bar every codec
// must clear: random 1-4 bit ciphertext faults may be corrected (bytes must
// then match the original exactly) or refused loudly, but a successful read
// must never return wrong bytes.
func TestCodecConformanceDataFaultNeverSilent(t *testing.T) {
	for _, cfg := range codecConfigs() {
		e := newEngine(t, cfg)
		rng := rand.New(rand.NewSource(31))
		dst := make([]byte, BlockBytes)
		for trial := 0; trial < 400; trial++ {
			addr := uint64(rng.Intn(200)) * BlockBytes
			want := block(rng.Int63())
			if err := e.Write(addr, want); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1+rng.Intn(4); i++ {
				if err := flipAt(e.off, PlaneData, addr, rng.Intn(8*BlockBytes)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := e.Read(addr, dst); err == nil {
				if !bytes.Equal(dst, want) {
					t.Fatalf("%s: trial %d: silent corruption at %#x", cfg.CodecName(), trial, addr)
				}
			}
			// Restore a known-good block either way.
			if err := e.Write(addr, want); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCodecConformanceCheckFaultNeverSilent targets the check storage
// itself: the packed lane under macsecded, the inline tag and the codec's
// check bytes under the block codecs. Check-plane faults never change the
// data, so any successful read must return the original bytes.
func TestCodecConformanceCheckFaultNeverSilent(t *testing.T) {
	for _, cfg := range codecConfigs() {
		e := newEngine(t, cfg)
		rng := rand.New(rand.NewSource(41))
		dst := make([]byte, BlockBytes)
		for trial := 0; trial < 300; trial++ {
			addr := uint64(rng.Intn(200)) * BlockBytes
			want := block(rng.Int63())
			if err := e.Write(addr, want); err != nil {
				t.Fatal(err)
			}
			if cfg.Placement == MACInECC {
				if err := flipAt(e.off, PlaneLane, addr, rng.Intn(64)); err != nil {
					t.Fatal(err)
				}
			} else if trial%2 == 0 {
				if err := flipAt(e.off, PlaneLane, addr, rng.Intn(64)); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := flipAt(e.off, PlaneCheck, addr, rng.Intn(8*int(e.off.elem[PlaneCheck]))); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := e.Read(addr, dst); err == nil {
				if !bytes.Equal(dst, want) {
					t.Fatalf("%s: trial %d: silent corruption at %#x", cfg.CodecName(), trial, addr)
				}
			}
			if err := e.Write(addr, want); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCodecCorrectionSemantics pins the per-codec single-bit contract: both
// codecs repair one flipped ciphertext bit transparently.
func TestCodecCorrectionSemantics(t *testing.T) {
	for _, cfg := range codecConfigs() {
		e := newEngine(t, cfg)
		want := block(99)
		if err := e.Write(0, want); err != nil {
			t.Fatal(err)
		}
		if err := flipAt(e.off, PlaneData, 0, 13); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, BlockBytes)
		_, err := e.Read(0, dst)
		switch cfg.CodecName() {
		case "secded", "macsecded":
			if err != nil {
				t.Fatalf("%s: single-bit fault not corrected: %v", cfg.CodecName(), err)
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("%s: corrected read returned wrong bytes", cfg.CodecName())
			}
			st := e.Stats()
			if st.SECDEDCorrected+st.CorrectedDataBits == 0 {
				t.Fatalf("%s: correction left no stats trace: %+v", cfg.CodecName(), st)
			}
		default:
			t.Fatalf("unpinned codec %q: extend this test", cfg.CodecName())
		}
	}
}

// TestResumeCodecMismatch: a persisted image must only resume under the
// codec that wrote it — the check storage layout differs, so an image whose
// header names another codec (say, residue, written by an older build) is a
// typed, actionable error, not a MAC failure downstream.
func TestResumeCodecMismatch(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInline)
	e := newEngine(t, cfg)
	if err := e.Write(0, block(7)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	digest, err := e.persist(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Same placement, another codec in the header: typed mismatch error.
	foreign := withImageCodec(t, buf.Bytes(), "secded", "residue")
	_, _, err = resumeOneShard(cfg, bytes.NewReader(foreign), nil, &digest)
	var mm *CodecMismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("resume of a residue image: got %v, want *CodecMismatchError", err)
	}
	if mm.ImageCodec != "residue" || mm.ConfigCodec != "secded" {
		t.Fatalf("mismatch error fields: %+v", mm)
	}

	// The writing codec still resumes.
	r, _, err := resumeOneShard(cfg, bytes.NewReader(buf.Bytes()), nil, &digest)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockBytes)
	if _, err := r.Read(0, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, block(7)) {
		t.Fatal("resumed read returned wrong bytes")
	}
}

// TestResumeCodecMismatchSharded: the v2 sharded image wraps per-shard v1
// images, so the codec header must round-trip — and mismatch — through the
// sharded persist path too.
func TestResumeCodecMismatchSharded(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	s, err := NewShardedEngine(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(0, block(8)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	digest, err := s.Persist(&buf)
	if err != nil {
		t.Fatal(err)
	}

	foreign := withImageCodec(t, buf.Bytes(), "macsecded", "residue")
	_, _, err = ResumeShardedIncremental(cfg, 2, bytes.NewReader(foreign), nil, &digest)
	var mm *CodecMismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("sharded resume of a residue image: got %v, want *CodecMismatchError", err)
	}
	if mm.ImageCodec != "residue" || mm.ConfigCodec != "macsecded" {
		t.Fatalf("mismatch error fields: %+v", mm)
	}

	r, _, err := ResumeShardedIncremental(cfg, 2, bytes.NewReader(buf.Bytes()), nil, &digest)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockBytes)
	if _, err := r.Read(0, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, block(8)) {
		t.Fatal("sharded resumed read returned wrong bytes")
	}
}

// TestEnvironmentDoesNotSelectCodec: the codec is part of the stored format,
// so only the placement fixes it. The retired $AUTHMEM_ECC_CODEC must
// neither change that nor fail Validate when it holds garbage or the other
// placement's codec.
func TestEnvironmentDoesNotSelectCodec(t *testing.T) {
	for _, cfg := range codecConfigs() {
		want := map[MACPlacement]string{MACInline: "secded", MACInECC: "macsecded"}[cfg.Placement]
		for _, v := range []string{"residue", "no-such-codec", "secded", "macsecded"} {
			t.Setenv("AUTHMEM_ECC_CODEC", v)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s, AUTHMEM_ECC_CODEC=%s: Validate: %v", cfg.Placement, v, err)
			}
			if got := cfg.CodecName(); got != want {
				t.Fatalf("%s, AUTHMEM_ECC_CODEC=%s: config names %q, want %q", cfg.Placement, v, got, want)
			}
			if got := imageCodec(t, newEngine(t, cfg)); got != want {
				t.Fatalf("%s, AUTHMEM_ECC_CODEC=%s: engine records %q, want %q", cfg.Placement, v, got, want)
			}
		}
	}
}

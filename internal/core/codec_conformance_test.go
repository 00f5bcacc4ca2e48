package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"authmem/internal/ctr"
	"authmem/internal/ecc"
)

// codecConfigs returns one engine configuration per registered ECC codec,
// each under the codec's implied MAC placement. Iterating ecc.Names() means
// a future codec joins the conformance suite the moment it registers.
func codecConfigs() []Config {
	var cfgs []Config
	for _, name := range ecc.Names() {
		cod, err := ecc.Lookup(name)
		if err != nil {
			panic(err)
		}
		place := MACInline
		if cod.CarriesMAC() {
			place = MACInECC
		}
		cfg := smallCfg(ctr.Delta, place)
		cfg.ECCCodec = name
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// TestCodecConformanceCleanTrace runs the identical write/read trace under
// every codec: plaintext in must be plaintext out, bit for bit, regardless
// of which check code protects the stored blocks.
func TestCodecConformanceCleanTrace(t *testing.T) {
	type readback map[uint64][]byte
	results := map[string]readback{}

	for _, cfg := range codecConfigs() {
		e := newEngine(t, cfg)
		if got := e.ECCCodec(); got != cfg.ECCCodec {
			t.Fatalf("engine reports codec %q, config selected %q", got, cfg.ECCCodec)
		}
		rng := rand.New(rand.NewSource(77))
		truth := make(map[uint64][]byte)
		for i := 0; i < 2000; i++ {
			blk := uint64(rng.Intn(300))
			data := block(rng.Int63())
			if err := e.Write(blk*BlockBytes, data); err != nil {
				t.Fatalf("%s: write: %v", cfg.ECCCodec, err)
			}
			truth[blk*BlockBytes] = data
		}
		goCold(e)
		got := readback{}
		dst := make([]byte, BlockBytes)
		for addr, want := range truth {
			if _, err := e.Read(addr, dst); err != nil {
				t.Fatalf("%s: read %#x: %v", cfg.ECCCodec, addr, err)
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("%s: block %#x read back wrong", cfg.ECCCodec, addr)
			}
			got[addr] = append([]byte(nil), dst...)
		}
		results[cfg.ECCCodec] = got
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
				if err := e.TamperCiphertext(addr, rng.Intn(8*BlockBytes)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := e.Read(addr, dst); err == nil {
				if !bytes.Equal(dst, want) {
					t.Fatalf("%s: trial %d: silent corruption at %#x", cfg.ECCCodec, trial, addr)
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
				if err := e.TamperECCLane(addr, rng.Intn(64)); err != nil {
					t.Fatal(err)
				}
			} else if trial%2 == 0 {
				if err := e.TamperInlineTag(addr, rng.Intn(64)); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := e.TamperCheckBit(addr, rng.Intn(e.InlineCheckBits())); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := e.Read(addr, dst); err == nil {
				if !bytes.Equal(dst, want) {
					t.Fatalf("%s: trial %d: silent corruption at %#x", cfg.ECCCodec, trial, addr)
				}
			}
			if err := e.Write(addr, want); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCodecCorrectionSemantics pins the per-codec single-bit contract: the
// correcting codes repair one flipped ciphertext bit transparently, the
// detection-only residue code refuses the read loudly.
func TestCodecCorrectionSemantics(t *testing.T) {
	for _, cfg := range codecConfigs() {
		e := newEngine(t, cfg)
		want := block(99)
		if err := e.Write(0, want); err != nil {
			t.Fatal(err)
		}
		if err := e.TamperCiphertext(0, 13); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, BlockBytes)
		_, err := e.Read(0, dst)
		switch cfg.ECCCodec {
		case "secded", "macsecded":
			if err != nil {
				t.Fatalf("%s: single-bit fault not corrected: %v", cfg.ECCCodec, err)
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("%s: corrected read returned wrong bytes", cfg.ECCCodec)
			}
			st := e.Stats()
			if st.SECDEDCorrected+st.CorrectedDataBits == 0 {
				t.Fatalf("%s: correction left no stats trace: %+v", cfg.ECCCodec, st)
			}
		case "residue":
			if err == nil {
				t.Fatal("residue: detection-only codec silently served a faulted block")
			}
		default:
			t.Fatalf("unpinned codec %q: extend this test", cfg.ECCCodec)
		}
	}
}

// TestResumeCodecMismatch: a persisted image must only resume under the
// codec that wrote it — the check storage layout differs, so resuming under
// another codec is a typed, actionable error, not a MAC failure downstream.
func TestResumeCodecMismatch(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInline)
	cfg.ECCCodec = "secded"
	e := newEngine(t, cfg)
	if err := e.Write(0, block(7)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	digest, err := e.Persist(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Same placement, different codec: typed mismatch error.
	bad := cfg
	bad.ECCCodec = "residue"
	_, err = Resume(bad, bytes.NewReader(buf.Bytes()), &digest)
	var mm *CodecMismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("resume under residue: got %v, want *CodecMismatchError", err)
	}
	if mm.ImageCodec != "secded" || mm.ConfigCodec != "residue" {
		t.Fatalf("mismatch error fields: %+v", mm)
	}

	// The writing codec still resumes.
	r, err := Resume(cfg, bytes.NewReader(buf.Bytes()), &digest)
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
	cfg := smallCfg(ctr.Delta, MACInline)
	cfg.ECCCodec = "residue"
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

	bad := cfg
	bad.ECCCodec = "secded"
	_, err = ResumeSharded(bad, 2, bytes.NewReader(buf.Bytes()), &digest)
	var mm *CodecMismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("sharded resume under secded: got %v, want *CodecMismatchError", err)
	}
	if mm.ImageCodec != "residue" || mm.ConfigCodec != "secded" {
		t.Fatalf("mismatch error fields: %+v", mm)
	}

	r, err := ResumeSharded(cfg, 2, bytes.NewReader(buf.Bytes()), &digest)
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

// TestCodecPlacementValidation: an explicitly configured codec that cannot
// serve the configured placement is a configuration error, caught before an
// engine is built.
func TestCodecPlacementValidation(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	cfg.ECCCodec = "residue"
	if err := cfg.Validate(); err == nil {
		t.Fatal("residue under MACInECC should fail validation")
	}
	cfg = smallCfg(ctr.Delta, MACInline)
	cfg.ECCCodec = "macsecded"
	if err := cfg.Validate(); err == nil {
		t.Fatal("macsecded under MACInline should fail validation")
	}
	cfg.ECCCodec = "no-such-codec"
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown codec should fail validation")
	}
}

// TestEnvironmentDoesNotSelectCodec: the codec is part of the stored format,
// so only Config.ECCCodec names it. The retired $AUTHMEM_ECC_CODEC must
// neither change an empty name's resolution nor fail Validate when it holds
// garbage.
func TestEnvironmentDoesNotSelectCodec(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInline)
	for _, v := range []string{"residue", "no-such-codec"} {
		t.Setenv("AUTHMEM_ECC_CODEC", v)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("AUTHMEM_ECC_CODEC=%s: Validate: %v", v, err)
		}
		if got := cfg.CodecName(); got != ecc.DefaultBlockCodec {
			t.Fatalf("AUTHMEM_ECC_CODEC=%s: empty ECCCodec resolved to %q, want %q", v, got, ecc.DefaultBlockCodec)
		}
		if got := newEngine(t, cfg).ECCCodec(); got != ecc.DefaultBlockCodec {
			t.Fatalf("AUTHMEM_ECC_CODEC=%s: engine runs %q, want %q", v, got, ecc.DefaultBlockCodec)
		}
	}
}

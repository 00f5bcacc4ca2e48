package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"authmem/internal/ctr"
	"authmem/internal/tree"
)

// smallCfg returns a test-sized configuration (1MB region) so trees stay
// tiny while still spanning many groups.
func smallCfg(scheme ctr.Kind, placement MACPlacement) Config {
	cfg := Default(scheme, placement)
	cfg.RegionBytes = 1 << 20
	return cfg
}

func newEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// goCold drops every on-chip line (both caches, as a power cycle would), so
// the reads that follow verify and decrypt the stored bits instead of being
// served trusted plaintext from the verified-block cache.
func goCold(e *Engine) {
	e.cc.flush()
	e.bc.flush()
}

func block(seed int64) []byte {
	b := make([]byte, BlockBytes)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func allDesignPoints() []Config {
	var cfgs []Config
	for _, s := range []ctr.Kind{ctr.Monolithic, ctr.Split, ctr.Delta, ctr.DualLength} {
		for _, p := range []MACPlacement{MACInline, MACInECC} {
			cfgs = append(cfgs, smallCfg(s, p))
		}
	}
	return cfgs
}

func TestConfigValidate(t *testing.T) {
	good := smallCfg(ctr.Delta, MACInECC)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.RegionBytes = 0 },
		func(c *Config) { c.RegionBytes = 100 },
		func(c *Config) { c.RegionBytes = 64 }, // below one group
		func(c *Config) { c.KeyMaterial = nil },
		func(c *Config) { c.MetadataCacheBytes = 0 },
		func(c *Config) { c.MetadataCacheWays = 0 },
		func(c *Config) { c.OnChipTreeBytes = 32 },
		func(c *Config) { c.CorrectBits = 3 },
		func(c *Config) { c.CryptoBackend = "stdlib" }, // nothing to select: must stay empty
	}
	for i, mut := range bad {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate", i)
		}
	}
	// DisableEncryption waives the key requirement.
	c := good
	c.KeyMaterial, c.DisableEncryption = nil, true
	if err := c.Validate(); err != nil {
		t.Errorf("disabled-encryption config rejected: %v", err)
	}
}

func TestPlacementString(t *testing.T) {
	if MACInline.String() != "inline-mac" || MACInECC.String() != "mac-in-ecc" {
		t.Fatal("placement names wrong")
	}
	if MACPlacement(7).String() != "MACPlacement(7)" {
		t.Fatal("unknown placement name wrong")
	}
}

func TestWriteReadRoundTripAllDesignPoints(t *testing.T) {
	for _, cfg := range allDesignPoints() {
		e := newEngine(t, cfg)
		name := cfg.Scheme.String() + "/" + cfg.Placement.String()
		rng := rand.New(rand.NewSource(1))
		written := make(map[uint64][]byte)
		for i := 0; i < 500; i++ {
			addr := uint64(rng.Intn(1000)) * BlockBytes
			data := block(rng.Int63())
			if err := e.Write(addr, data); err != nil {
				t.Fatalf("%s: write: %v", name, err)
			}
			written[addr] = data
		}
		goCold(e)
		dst := make([]byte, BlockBytes)
		for addr, want := range written {
			info, err := e.Read(addr, dst)
			if err != nil {
				t.Fatalf("%s: read %#x: %v", name, addr, err)
			}
			if info.Fresh || !bytes.Equal(dst, want) {
				t.Fatalf("%s: read %#x returned wrong data", name, addr)
			}
		}
	}
}

func TestFreshReadReturnsZeros(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	dst := make([]byte, BlockBytes)
	info, err := e.Read(0x4000, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Fresh {
		t.Fatal("unwritten block not reported fresh")
	}
	for _, b := range dst {
		if b != 0 {
			t.Fatal("fresh read returned nonzero data")
		}
	}
	if e.Stats().FreshReads != 1 {
		t.Fatalf("stats %+v", e.Stats())
	}
}

func TestAddressValidation(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	buf := make([]byte, BlockBytes)
	if err := e.Write(13, buf); err == nil {
		t.Fatal("unaligned write should fail")
	}
	if err := e.Write(1<<20, buf); err == nil {
		t.Fatal("out-of-region write should fail")
	}
	if _, err := e.Read(0, buf[:10]); err == nil {
		t.Fatal("short read buffer should fail")
	}
	if err := e.Write(0, buf[:10]); err == nil {
		t.Fatal("short write should fail")
	}
}

func TestCiphertextActuallyEncrypted(t *testing.T) {
	// The DRAM image must not contain the plaintext.
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	pt := bytes.Repeat([]byte{0xAA}, BlockBytes)
	if err := e.Write(0, pt); err != nil {
		t.Fatal(err)
	}
	ct := e.store.Ciphertext(0)
	if bytes.Equal(ct, pt) {
		t.Fatal("ciphertext equals plaintext")
	}
	// And two writes of the same plaintext give different ciphertexts
	// (counter advanced -> fresh pad).
	first := *(*[BlockBytes]byte)(ct)
	if err := e.Write(0, pt); err != nil {
		t.Fatal(err)
	}
	if *(*[BlockBytes]byte)(e.store.Ciphertext(0)) == first {
		t.Fatal("pad reuse: same ciphertext for two writes of one plaintext")
	}
}

func TestTamperCiphertextDetectedInlineMode(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Delta, MACInline))
	if err := e.Write(0x80, block(2)); err != nil {
		t.Fatal(err)
	}
	// Three flips in one word beat SEC-DED's guarantee but the MAC (or
	// SEC-DED's double-detect) must still refuse the data.
	for _, bit := range []int{65, 70, 77} {
		if err := e.TamperCiphertext(0x80, bit); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, BlockBytes)
	_, err := e.Read(0x80, dst)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("tampering not detected: %v", err)
	}
}

func TestSingleFaultCorrectedInlineMode(t *testing.T) {
	// This test is about SEC-DED's single-bit correction: name the codec
	// rather than lean on the inline placement's default.
	cfg := smallCfg(ctr.Delta, MACInline)
	cfg.ECCCodec = "secded"
	e := newEngine(t, cfg)
	want := block(3)
	if err := e.Write(0x100, want); err != nil {
		t.Fatal(err)
	}
	if err := e.TamperCiphertext(0x100, 130); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockBytes)
	info, err := e.Read(0x100, dst)
	if err != nil {
		t.Fatal(err)
	}
	if info.CorrectedDataBits != 1 || !bytes.Equal(dst, want) {
		t.Fatalf("SEC-DED correction failed: %+v", info)
	}
}

func TestDoubleFaultInWordCorrectedOnlyByMACInECC(t *testing.T) {
	// Figure 3's key contrast, end to end through the engine.
	for _, placement := range []MACPlacement{MACInline, MACInECC} {
		e := newEngine(t, smallCfg(ctr.Delta, placement))
		want := block(4)
		if err := e.Write(0x140, want); err != nil {
			t.Fatal(err)
		}
		// Two flips within word 0.
		if err := e.TamperCiphertext(0x140, 3); err != nil {
			t.Fatal(err)
		}
		if err := e.TamperCiphertext(0x140, 40); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, BlockBytes)
		info, err := e.Read(0x140, dst)
		if placement == MACInline {
			if err == nil {
				t.Fatal("SEC-DED corrected a double fault in one word")
			}
		} else {
			if err != nil {
				t.Fatalf("MAC-in-ECC failed to correct: %v", err)
			}
			if info.CorrectedDataBits != 2 || !bytes.Equal(dst, want) {
				t.Fatalf("info %+v", info)
			}
		}
	}
}

func TestECCLaneFaultCorrected(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	want := block(5)
	if err := e.Write(0x180, want); err != nil {
		t.Fatal(err)
	}
	if err := e.TamperECCLane(0x180, 22); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockBytes)
	info, err := e.Read(0x180, dst)
	if err != nil {
		t.Fatal(err)
	}
	if info.CorrectedMACBits != 1 || !bytes.Equal(dst, want) {
		t.Fatalf("info %+v", info)
	}
}

func TestTamperCounterBlockDetected(t *testing.T) {
	for _, scheme := range []ctr.Kind{ctr.Monolithic, ctr.Split, ctr.Delta, ctr.DualLength} {
		e := newEngine(t, smallCfg(scheme, MACInECC))
		if err := e.Write(0, block(6)); err != nil {
			t.Fatal(err)
		}
		if err := e.TamperCounterBlock(0, 5); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, BlockBytes)
		_, err := e.Read(0, dst)
		var ie *IntegrityError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: counter tamper undetected: %v", scheme, err)
		}
	}
}

func TestTamperTreeNodeDetected(t *testing.T) {
	// Shrink the on-chip budget so the tree actually has off-chip levels
	// at this region size (256 leaves -> 32 -> 4 -> 1 on-chip).
	cfg := smallCfg(ctr.Delta, MACInECC)
	cfg.OnChipTreeBytes = 64
	e := newEngine(t, cfg)
	if err := e.Write(0, block(7)); err != nil {
		t.Fatal(err)
	}
	// Land the deferred tree update first: a dirty leaf's path is about to
	// be recomputed from trusted state, which would overwrite the fault.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.TamperTreeNode(tree.NodeID{Level: 0, Index: 0}, 9); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockBytes)
	if _, err := e.Read(0, dst); err == nil {
		t.Fatal("tree tamper undetected")
	}
}

func TestReplayAttackDetected(t *testing.T) {
	// The canonical attack: snapshot (data, MAC, counter block), let the
	// victim overwrite, restore the snapshot. The counters check out
	// against their own MACs — only the tree can catch it.
	for _, scheme := range []ctr.Kind{ctr.Split, ctr.Delta, ctr.DualLength} {
		e := newEngine(t, smallCfg(scheme, MACInECC))
		addr := uint64(0x200)
		old := []byte("old secret value................................................")[:BlockBytes]
		if err := e.Write(addr, old); err != nil {
			t.Fatal(err)
		}
		snap, err := e.Snapshot(addr)
		if err != nil {
			t.Fatal(err)
		}
		fresh := block(8)
		if err := e.Write(addr, fresh); err != nil {
			t.Fatal(err)
		}
		if err := e.Replay(snap); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, BlockBytes)
		_, err = e.Read(addr, dst)
		var ie *IntegrityError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: replay attack succeeded: %v", scheme, err)
		}
	}
}

func TestReencryptionPreservesData(t *testing.T) {
	// Force group re-encryptions by hammering one block; every other
	// block's data must survive bit-exactly, including across the counter
	// jump.
	for _, scheme := range []ctr.Kind{ctr.Split, ctr.Delta, ctr.DualLength} {
		for _, placement := range []MACPlacement{MACInline, MACInECC} {
			e := newEngine(t, smallCfg(scheme, placement))
			neighbors := map[uint64][]byte{}
			for i := uint64(1); i < 8; i++ {
				d := block(int64(100 + i))
				if err := e.Write(i*BlockBytes, d); err != nil {
					t.Fatal(err)
				}
				neighbors[i*BlockBytes] = d
			}
			hot := block(200)
			for i := 0; i < 1200; i++ {
				if err := e.Write(0, hot); err != nil {
					t.Fatal(err)
				}
			}
			if e.SchemeStats().Reencryptions == 0 {
				t.Fatalf("%s: no re-encryption after 1200 hot writes", scheme)
			}
			goCold(e) // resident lines survive a sweep; read the resealed bits
			dst := make([]byte, BlockBytes)
			for addr, want := range neighbors {
				if _, err := e.Read(addr, dst); err != nil {
					t.Fatalf("%s/%s: read %#x after re-encryption: %v",
						scheme, placement, addr, err)
				}
				if !bytes.Equal(dst, want) {
					t.Fatalf("%s/%s: block %#x corrupted by re-encryption",
						scheme, placement, addr)
				}
			}
			if _, err := e.Read(0, dst); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst, hot) {
				t.Fatal("hot block lost its last write")
			}
		}
	}
}

func TestReencryptionMaterializesZeros(t *testing.T) {
	// Never-written neighbors must still read as zeros after their group
	// was re-encrypted (their counters advanced).
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	for i := 0; i < 1200; i++ {
		if err := e.Write(0, block(9)); err != nil {
			t.Fatal(err)
		}
	}
	if e.SchemeStats().Reencryptions == 0 {
		t.Fatal("no re-encryption")
	}
	dst := make([]byte, BlockBytes)
	info, err := e.Read(7*BlockBytes, dst)
	if err != nil {
		t.Fatal(err)
	}
	if info.Fresh {
		t.Fatal("materialized block still reported fresh")
	}
	for _, b := range dst {
		if b != 0 {
			t.Fatal("materialized block should decrypt to zeros")
		}
	}
}

func TestDisabledEncryptionPassthrough(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	cfg.DisableEncryption = true
	cfg.KeyMaterial = nil
	e := newEngine(t, cfg)
	want := block(10)
	if err := e.Write(0x40, want); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockBytes)
	if _, err := e.Read(0x40, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, want) {
		t.Fatal("passthrough corrupted data")
	}
	// Stored image IS the plaintext (no encryption).
	if !bytes.Equal(e.store.Ciphertext(1), want) {
		t.Fatal("disabled encryption should store plaintext")
	}
	if err := e.TamperCiphertext(0x40, 0); err == nil {
		t.Fatal("attack APIs should be disabled")
	}
	if _, err := e.Scrub(); err == nil {
		t.Fatal("scrub should require MACInECC")
	}
}

func TestScrubFindsAndRepairsFaults(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	for i := uint64(0); i < 20; i++ {
		if err := e.Write(i*BlockBytes, block(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Inject single-bit faults into three blocks.
	for _, blk := range []uint64{2, 9, 17} {
		if err := e.TamperCiphertext(blk*BlockBytes, int(blk)*7%512); err != nil {
			t.Fatal(err)
		}
	}
	r, err := e.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if r.BlocksScanned != 20 || r.ParityFlagged != 3 || r.Corrected != 3 || r.Uncorrectable != 0 {
		t.Fatalf("scrub report %+v", r)
	}
	// Everything reads clean afterwards, with no further corrections.
	dst := make([]byte, BlockBytes)
	for i := uint64(0); i < 20; i++ {
		info, err := e.Read(i*BlockBytes, dst)
		if err != nil {
			t.Fatal(err)
		}
		if info.CorrectedDataBits != 0 {
			t.Fatalf("block %d still dirty after scrub", i)
		}
	}
	// A second pass finds nothing.
	r2, err := e.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if r2.ParityFlagged != 0 {
		t.Fatalf("second scrub flagged %d", r2.ParityFlagged)
	}
}

func TestScrubMissesEvenWeightFaults(t *testing.T) {
	// Documented parity limitation: 2 flips hide from the scrub screen
	// but are caught (and here corrected) on the demand read.
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	want := block(11)
	if err := e.Write(0, want); err != nil {
		t.Fatal(err)
	}
	if err := e.TamperCiphertext(0, 10); err != nil {
		t.Fatal(err)
	}
	if err := e.TamperCiphertext(0, 300); err != nil {
		t.Fatal(err)
	}
	r, err := e.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if r.ParityFlagged != 0 {
		t.Fatal("even-weight fault should evade the parity screen")
	}
	dst := make([]byte, BlockBytes)
	info, err := e.Read(0, dst)
	if err != nil {
		t.Fatal(err)
	}
	if info.CorrectedDataBits != 2 || !bytes.Equal(dst, want) {
		t.Fatalf("demand read did not repair: %+v", info)
	}
}

func TestAttackAPIValidation(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	if err := e.TamperCiphertext(0, 0); err == nil {
		t.Fatal("tamper of non-resident block should fail")
	}
	if err := e.Write(0, block(12)); err != nil {
		t.Fatal(err)
	}
	if err := e.TamperCiphertext(0, 512); err == nil {
		t.Fatal("bit out of range should fail")
	}
	if err := e.TamperCiphertext(3, 0); err == nil {
		t.Fatal("unaligned address should fail")
	}
	if err := e.TamperInlineTag(0, 0); err == nil {
		t.Fatal("inline tamper under MACInECC should fail")
	}
	if err := e.TamperCounterBlock(1<<40, 0); err == nil {
		t.Fatal("metadata index out of range should fail")
	}
	if err := e.TamperCounterBlock(0, -1); err == nil {
		t.Fatal("negative bit should fail")
	}

	inline := newEngine(t, smallCfg(ctr.Delta, MACInline))
	if err := inline.Write(0, block(13)); err != nil {
		t.Fatal(err)
	}
	if err := inline.TamperECCLane(0, 0); err == nil {
		t.Fatal("ECC-lane tamper under MACInline should fail")
	}
	if err := inline.TamperInlineTag(0, 64); err == nil {
		t.Fatal("tag bit out of range should fail")
	}
}

func TestTamperInlineTagDetected(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Delta, MACInline))
	if err := e.Write(0, block(14)); err != nil {
		t.Fatal(err)
	}
	if err := e.TamperInlineTag(0, 12); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockBytes)
	if _, err := e.Read(0, dst); err == nil {
		t.Fatal("inline tag tamper undetected")
	}
}

func TestIntegrityErrorMessage(t *testing.T) {
	e := &IntegrityError{Addr: 0x40, Reason: "test"}
	if e.Error() != "core: integrity violation at 0x40: test" {
		t.Fatalf("message %q", e.Error())
	}
}

func TestStatsAccumulate(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	if err := e.Write(0, block(15)); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockBytes)
	if _, err := e.Read(0, dst); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Read(64, dst); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Writes != 1 || st.Reads != 2 || st.FreshReads != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func BenchmarkEngineWrite(b *testing.B) {
	e := newEngine(b, smallCfg(ctr.Delta, MACInECC))
	data := block(20)
	b.SetBytes(BlockBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Write(uint64(i%4096)*BlockBytes, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineRead(b *testing.B) {
	e := newEngine(b, smallCfg(ctr.Delta, MACInECC))
	data := block(21)
	for i := 0; i < 4096; i++ {
		if err := e.Write(uint64(i)*BlockBytes, data); err != nil {
			b.Fatal(err)
		}
	}
	dst := make([]byte, BlockBytes)
	b.SetBytes(BlockBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Read(uint64(i%4096)*BlockBytes, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func TestScrubFindsMACFaults(t *testing.T) {
	// §3.3: the scrubber's second parity screen catches single-bit faults
	// in the MAC/Hamming bits without recomputing any MAC.
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	for i := uint64(0); i < 10; i++ {
		if err := e.Write(i*BlockBytes, block(int64(40+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.TamperECCLane(3*BlockBytes, 17); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ParityFlagged != 1 || rep.Corrected != 1 {
		t.Fatalf("scrub report %+v", rep)
	}
	dst := make([]byte, BlockBytes)
	info, err := e.Read(3*BlockBytes, dst)
	if err != nil {
		t.Fatal(err)
	}
	if info.CorrectedMACBits != 0 {
		t.Fatal("MAC fault should have been repaired by the scrub")
	}
}

// TestCacheSizingFollowsRegion pins the one sizing rule: a cache never has
// more lines than there are blocks behind it, up to the Table 1 caps. The
// minimum-size caches must still behave as caches — read-after-write hits,
// and a tamper evicts so the next read detects it.
func TestCacheSizingFollowsRegion(t *testing.T) {
	tiny := smallCfg(ctr.Delta, MACInECC)
	tiny.RegionBytes = ctr.GroupBlocks * BlockBytes // one 4KB group
	e := newEngine(t, tiny)
	if got := len(e.bc.entries); got != ctr.GroupBlocks {
		t.Errorf("one-group region: block cache has %d lines, want %d", got, ctr.GroupBlocks)
	}
	if got := len(e.cc.entries); got != 1 {
		t.Errorf("one-group region: counter cache has %d lines, want 1", got)
	}
	big := smallCfg(ctr.Delta, MACInECC)
	big.RegionBytes = 2 << 20
	if b := newEngine(t, big); len(b.bc.entries) != maxBlockCacheEntries || len(b.cc.entries) != maxCounterCacheEntries {
		t.Errorf("2MiB region: caches have %d/%d lines, want %d/%d",
			len(b.bc.entries), len(b.cc.entries), maxBlockCacheEntries, maxCounterCacheEntries)
	}

	want := block(70)
	if err := e.Write(0, want); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockBytes)
	if _, err := e.Read(0, dst); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.DataCacheHits != 1 || !bytes.Equal(dst, want) {
		t.Fatalf("read-after-write on the tiny region: DataCacheHits=%d, want a hit with the written data", st.DataCacheHits)
	}
	// Eviction-on-tamper holds at the minimum size: the flipped bit is seen
	// (and corrected) by the next read, not masked by a resident line.
	if err := e.TamperCiphertext(0, 9); err != nil {
		t.Fatal(err)
	}
	info, err := e.Read(0, dst)
	if err != nil || info.CorrectedDataBits != 1 || !bytes.Equal(dst, want) {
		t.Fatalf("flip on the tiny region: err=%v corrected=%d, want the fault found and repaired", err, info.CorrectedDataBits)
	}
}

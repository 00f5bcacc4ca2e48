package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"authmem/internal/ctr"
)

func newSharded(t testing.TB, cfg Config, shards int) *ShardedEngine {
	t.Helper()
	s, err := NewShardedEngine(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestShardedValidate(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	for _, n := range []int{1, 2, 4, 8} {
		if err := ValidateShards(cfg, n); err != nil {
			t.Errorf("%d shards rejected: %v", n, err)
		}
	}
	for _, n := range []int{0, -1, 3, 6, 1 << 20} {
		if err := ValidateShards(cfg, n); err == nil {
			t.Errorf("%d shards accepted", n)
		}
	}
	// A missing master key must be rejected before derivation turns it
	// into valid-looking per-shard keys.
	keyless := cfg
	keyless.KeyMaterial = nil
	for _, n := range []int{1, 4} {
		if err := ValidateShards(keyless, n); err == nil {
			t.Errorf("%d shards accepted without key material", n)
		}
	}
}

// TestShardedMatchesMonolithic drives identical random traffic through a
// 4-shard engine and a monolithic engine and requires identical plaintext
// reads everywhere.
func TestShardedMatchesMonolithic(t *testing.T) {
	for _, cfg := range allDesignPoints() {
		name := cfg.Scheme.String() + "/" + cfg.Placement.String()
		mono := newEngine(t, cfg)
		sh := newSharded(t, cfg, 4)

		rng := rand.New(rand.NewSource(7))
		blocks := cfg.DataBlocks()
		truth := make(map[uint64][]byte)
		for i := 0; i < 2000; i++ {
			blk := uint64(rng.Intn(int(blocks)))
			data := block(rng.Int63())
			addr := blk * BlockBytes
			if err := mono.Write(addr, data); err != nil {
				t.Fatalf("%s: mono write: %v", name, err)
			}
			if err := sh.Write(addr, data); err != nil {
				t.Fatalf("%s: sharded write: %v", name, err)
			}
			truth[addr] = data
		}
		a, b := make([]byte, BlockBytes), make([]byte, BlockBytes)
		for addr, want := range truth {
			if _, err := mono.Read(addr, a); err != nil {
				t.Fatalf("%s: mono read: %v", name, err)
			}
			if _, err := sh.Read(addr, b); err != nil {
				t.Fatalf("%s: sharded read %#x: %v", name, addr, err)
			}
			if !bytes.Equal(a, want) || !bytes.Equal(b, want) {
				t.Fatalf("%s: plaintext mismatch at %#x", name, addr)
			}
		}
	}
}

// TestShardedKeyIsolation: the same plaintext at the same shard-local
// address must encrypt differently in different shards — per-shard derived
// keys prevent keystream-pad sharing across shards.
func TestShardedKeyIsolation(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	s := newSharded(t, cfg, 4)
	data := block(99)
	for i := 0; i < s.Shards(); i++ {
		if err := s.Write(uint64(i)*s.ShardBytes(), data); err != nil {
			t.Fatal(err)
		}
	}
	// Reach each shard's raw ciphertext via the locked escape hatch.
	cts := make([][]byte, s.Shards())
	for i := range cts {
		s.WithShard(i, func(eng *Engine) {
			snap, err := eng.Snapshot(0)
			if err != nil {
				t.Fatal(err)
			}
			cts[i] = append([]byte(nil), snap.ciphertext[:]...)
		})
	}
	for i := 1; i < len(cts); i++ {
		if bytes.Equal(cts[0], cts[i]) {
			t.Fatalf("shards 0 and %d share ciphertext for identical plaintext at identical local addresses", i)
		}
	}
	if bytes.Equal(ShardKeyMaterial(cfg.KeyMaterial, 4, 0), ShardKeyMaterial(cfg.KeyMaterial, 2, 0)) {
		t.Fatal("derived key ignores shard count")
	}
	if !bytes.Equal(ShardKeyMaterial(cfg.KeyMaterial, 1, 0), cfg.KeyMaterial) {
		t.Fatal("single-shard key must pass the master through for v1 compatibility")
	}
}

// TestShardedSpanIO reads and writes spans straddling shard boundaries.
func TestShardedSpanIO(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	s := newSharded(t, cfg, 4)
	rng := rand.New(rand.NewSource(11))

	boundary := s.ShardBytes() // first shard boundary
	spans := []struct{ addr, n uint64 }{
		{boundary - BlockBytes, 2 * BlockBytes},                // straddles one boundary
		{boundary - 4*BlockBytes, 8 * BlockBytes},              // wider straddle
		{0, s.ShardBytes() * 2},                                // two whole shards
		{boundary*2 - BlockBytes, s.ShardBytes() + BlockBytes}, // crosses two boundaries
		{0, cfg.RegionBytes},                                   // the whole region
	}
	for _, sp := range spans {
		src := make([]byte, sp.n)
		rng.Read(src)
		if err := s.WriteBlocks(sp.addr, src); err != nil {
			t.Fatalf("write span [%#x,+%d): %v", sp.addr, sp.n, err)
		}
		dst := make([]byte, sp.n)
		if err := s.ReadBlocks(sp.addr, dst); err != nil {
			t.Fatalf("read span [%#x,+%d): %v", sp.addr, sp.n, err)
		}
		if !bytes.Equal(src, dst) {
			t.Fatalf("span [%#x,+%d) corrupted", sp.addr, sp.n)
		}
		// Single-block reads agree with the span write.
		one := make([]byte, BlockBytes)
		for off := uint64(0); off < sp.n; off += BlockBytes {
			if _, err := s.Read(sp.addr+off, one); err != nil {
				t.Fatalf("read %#x: %v", sp.addr+off, err)
			}
			if !bytes.Equal(one, src[off:off+BlockBytes]) {
				t.Fatalf("block %#x disagrees with span write", sp.addr+off)
			}
		}
	}

	// Bounds and alignment rejection.
	if err := s.ReadBlocks(cfg.RegionBytes-BlockBytes, make([]byte, 2*BlockBytes)); err == nil {
		t.Fatal("span past region end accepted")
	}
	if err := s.WriteBlocks(1, make([]byte, BlockBytes)); err == nil {
		t.Fatal("unaligned span accepted")
	}
	if err := s.ReadBlocks(0, make([]byte, 7)); err == nil {
		t.Fatal("non-block-multiple span accepted")
	}
}

// TestShardedErrorAddressesAreGlobal: integrity failures in a non-zero
// shard must surface global addresses, and the failing-span error must be
// the lowest-addressed failure.
func TestShardedErrorAddressesAreGlobal(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	s := newSharded(t, cfg, 4)
	target := s.ShardBytes()*2 + 5*BlockBytes // inside shard 2
	if err := s.Write(target, block(1)); err != nil {
		t.Fatal(err)
	}
	// Three flips defeat the 2-bit ECC correction budget.
	for _, bit := range []int{12, 137, 300} {
		if err := s.TamperCiphertext(target, bit); err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.Read(target, make([]byte, BlockBytes))
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("tampered read returned %v, want IntegrityError", err)
	}
	if ie.Addr != target {
		t.Fatalf("error address %#x, want global %#x", ie.Addr, target)
	}

	// A span covering the tampered block fails with that global address
	// even though the span starts in shard 1.
	start := s.ShardBytes() + 3*BlockBytes
	n := target - start + 4*BlockBytes
	for a := start; a < start+n; a += BlockBytes {
		if a != target {
			if err := s.Write(a, block(int64(a))); err != nil {
				t.Fatal(err)
			}
		}
	}
	err = s.ReadBlocks(start, make([]byte, n))
	if !errors.As(err, &ie) {
		t.Fatalf("span over tampered block returned %v", err)
	}
	if ie.Addr != target {
		t.Fatalf("span error address %#x, want %#x", ie.Addr, target)
	}
}

// TestShardedQuarantineGlobal: quarantine state routes through shards and
// lists global block indices; the empty list allocates nothing.
func TestShardedQuarantineGlobal(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	s := newSharded(t, cfg, 4)
	s.SetRecoveryPolicy(RecoveryPolicy{MaxRetries: 1})

	if s.QuarantineList() != nil || s.QuarantineCount() != 0 {
		t.Fatal("fresh engine has quarantined blocks")
	}
	target := s.ShardBytes() * 3 // first block of shard 3
	if err := s.Write(target, block(2)); err != nil {
		t.Fatal(err)
	}
	for _, bit := range []int{3, 77, 411} {
		if err := s.TamperCiphertext(target, bit); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ReadRecover(target, make([]byte, BlockBytes)); err == nil {
		t.Fatal("tampered ReadRecover succeeded")
	}
	if !s.Quarantined(target) {
		t.Fatal("block not quarantined after failed recovery")
	}
	want := target / BlockBytes
	list := s.QuarantineList()
	if len(list) != 1 || list[0] != want {
		t.Fatalf("quarantine list %v, want [%d]", list, want)
	}
	if s.QuarantineCount() != 1 {
		t.Fatalf("quarantine count %d, want 1", s.QuarantineCount())
	}
	var qe *QuarantineError
	_, err := s.ReadRecover(target, make([]byte, BlockBytes))
	if !errors.As(err, &qe) || qe.Addr != target {
		t.Fatalf("quarantined read: %v (want QuarantineError at %#x)", err, target)
	}
}

// TestShardedStatsMerge: per-shard stats merge into coherent totals.
func TestShardedStatsMerge(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	s := newSharded(t, cfg, 4)
	const perShard = 50
	for i := 0; i < s.Shards(); i++ {
		base := uint64(i) * s.ShardBytes()
		for j := uint64(0); j < perShard; j++ {
			if err := s.Write(base+j*BlockBytes, block(int64(j))); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Read(base+j*BlockBytes, make([]byte, BlockBytes)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Written blocks are write-allocated into the block cache, so the reads
	// above hit it; fresh (never-written) blocks bypass it and exercise the
	// counter path instead.
	for i := 0; i < s.Shards(); i++ {
		fresh := uint64(i)*s.ShardBytes() + perShard*BlockBytes
		if _, err := s.Read(fresh, make([]byte, BlockBytes)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Writes != perShard*4 || st.Reads != (perShard+1)*4 {
		t.Fatalf("merged stats: %d writes %d reads, want %d/%d", st.Writes, st.Reads, perShard*4, (perShard+1)*4)
	}
	if st.DataCacheHits == 0 {
		t.Fatal("per-shard block caches saw no hits")
	}
	if st.MetaCacheHits+st.MetaCacheMisses == 0 {
		t.Fatal("per-shard counter caches saw no traffic")
	}
	if s.SchemeStats().Writes != perShard*4 {
		t.Fatalf("merged scheme stats: %d writes", s.SchemeStats().Writes)
	}
}

// TestShardedScrub: the concurrent pass covers every resident block across
// all shards, and reports and repairs exactly what a serial pass over a twin
// lone engine per shard does.
func TestShardedScrub(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	s := newSharded(t, cfg, 4)
	const n = 200
	var want ScrubReport
	for sh := uint64(0); sh < 4; sh++ {
		twin := newEngine(t, shardConfig(cfg, 4, int(sh)))
		write := func(local uint64, data []byte) {
			if err := twin.Write(local, data); err != nil {
				t.Fatal(err)
			}
			if err := s.Write(sh*s.ShardBytes()+local, data); err != nil {
				t.Fatal(err)
			}
		}
		for i := uint64(0); i < n/4; i++ {
			write(i*BlockBytes, block(int64(sh*n+i)))
		}
		// Odd-weight faults the parity screen can see: a data bit here, an
		// ECC-lane bit there.
		for i := sh; i < n/4; i += 7 {
			if err := twin.TamperCiphertext(i*BlockBytes, int(i*37)%512); err != nil {
				t.Fatal(err)
			}
			if err := s.TamperCiphertext(sh*s.ShardBytes()+i*BlockBytes, int(i*37)%512); err != nil {
				t.Fatal(err)
			}
		}
		for i := 5 + sh; i < n/4; i += 11 {
			if err := twin.TamperECCLane(i*BlockBytes, int(i)%64); err != nil {
				t.Fatal(err)
			}
			if err := s.TamperECCLane(sh*s.ShardBytes()+i*BlockBytes, int(i)%64); err != nil {
				t.Fatal(err)
			}
		}
		r, err := twin.Scrub()
		if err != nil {
			t.Fatal(err)
		}
		want.BlocksScanned += r.BlocksScanned
		want.ParityFlagged += r.ParityFlagged
		want.Corrected += r.Corrected
		want.Uncorrectable += r.Uncorrectable
	}
	got, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got.BlocksScanned != n || got.Corrected == 0 {
		t.Fatalf("sharded scrub %+v, serial per-shard scrubs %+v", got, want)
	}
	again, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if again.ParityFlagged != 0 {
		t.Fatalf("faults left after the repairing pass: %+v", again)
	}
	if _, err := newSharded(t, smallCfg(ctr.Delta, MACInline), 4).Scrub(); err == nil {
		t.Fatal("Scrub accepted MACInline")
	}
}

// shardedCampaign mirrors persistCampaign across the whole sharded region.
func shardedCampaign(t *testing.T, s *ShardedEngine) map[uint64][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(33))
	blocks := s.Config().DataBlocks()
	truth := make(map[uint64][]byte)
	for i := 0; i < 3000; i++ {
		blk := uint64(rng.Intn(int(blocks)))
		if i%3 == 0 {
			blk = uint64(rng.Intn(4)) * (blocks / 4) // hot head of each shard
		}
		data := block(rng.Int63())
		if err := s.Write(blk*BlockBytes, data); err != nil {
			t.Fatal(err)
		}
		truth[blk*BlockBytes] = data
	}
	return truth
}

func TestShardedPersistResumeRoundTrip(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	for _, shards := range []int{1, 2, 4} {
		s := newSharded(t, cfg, shards)
		truth := shardedCampaign(t, s)

		var buf bytes.Buffer
		digest, err := s.Persist(&buf)
		if err != nil {
			t.Fatalf("%d shards: persist: %v", shards, err)
		}
		if digest != s.RootDigest() {
			t.Fatalf("%d shards: persist digest disagrees with live RootDigest", shards)
		}

		r, err := ResumeSharded(cfg, shards, bytes.NewReader(buf.Bytes()), &digest)
		if err != nil {
			t.Fatalf("%d shards: resume: %v", shards, err)
		}
		dst := make([]byte, BlockBytes)
		for addr, want := range truth {
			if _, err := r.Read(addr, dst); err != nil {
				t.Fatalf("%d shards: read %#x after resume: %v", shards, addr, err)
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("%d shards: block %#x corrupted across persist/resume", shards, addr)
			}
		}
		// The resumed engine keeps accepting traffic.
		if err := r.Write(0, block(555)); err != nil {
			t.Fatalf("%d shards: write after resume: %v", shards, err)
		}

		// Wrong combined root must be rejected.
		bad := digest
		bad[0] ^= 1
		if _, err := ResumeSharded(cfg, shards, bytes.NewReader(buf.Bytes()), &bad); err == nil {
			t.Fatalf("%d shards: resume accepted a wrong root digest", shards)
		}
		// Wrong shard count must be rejected.
		wrong := shards * 2
		if _, err := ResumeSharded(cfg, wrong, bytes.NewReader(buf.Bytes()), &digest); err == nil {
			t.Fatalf("image with %d shards resumed as %d", shards, wrong)
		}
	}
}

// TestShardedResumeV1Image: a monolithic v1 image resumes as a 1-shard
// sharded engine (and only as 1 shard).
func TestShardedResumeV1Image(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	mono := newEngine(t, cfg)
	truth := persistCampaign(t, mono)

	var buf bytes.Buffer
	digest, err := mono.Persist(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ResumeSharded(cfg, 1, bytes.NewReader(buf.Bytes()), &digest)
	if err != nil {
		t.Fatalf("v1 image rejected by 1-shard resume: %v", err)
	}
	dst := make([]byte, BlockBytes)
	for addr, want := range truth {
		if _, err := s.Read(addr, dst); err != nil {
			t.Fatalf("read %#x: %v", addr, err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("block %#x corrupted", addr)
		}
	}
	if _, err := ResumeSharded(cfg, 2, bytes.NewReader(buf.Bytes()), &digest); err == nil {
		t.Fatal("v1 image accepted by a 2-shard resume")
	}
	// And the reverse direction: a 1-shard sharded Persist IS a v1 image.
	s2 := newSharded(t, cfg, 1)
	if err := s2.Write(0, block(9)); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	d2, err := s2.Persist(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(cfg, bytes.NewReader(buf2.Bytes()), &d2); err != nil {
		t.Fatalf("1-shard image rejected by monolithic Resume: %v", err)
	}
}

// TestShardedConcurrentTraffic hammers all shards from parallel goroutines;
// run under -race this proves the per-shard locking is sound.
func TestShardedConcurrentTraffic(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	s := newSharded(t, cfg, 4)
	const workers = 8
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(int64(w)))
			buf := make([]byte, BlockBytes)
			span := make([]byte, 4*BlockBytes)
			blocks := int(cfg.DataBlocks())
			for i := 0; i < 400; i++ {
				addr := uint64(rng.Intn(blocks)) * BlockBytes
				switch i % 3 {
				case 0:
					if err := s.Write(addr, block(rng.Int63())); err != nil {
						done <- err
						return
					}
				case 1:
					if _, err := s.Read(addr, buf); err != nil {
						done <- err
						return
					}
				default:
					if addr+uint64(len(span)) > cfg.RegionBytes {
						addr = cfg.RegionBytes - uint64(len(span))
					}
					if err := s.ReadBlocks(addr, span); err != nil {
						done <- err
						return
					}
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.IntegrityFailures != 0 {
		t.Fatalf("%d integrity failures under clean concurrent traffic", st.IntegrityFailures)
	}
}

// TestShardedConstructorsBuildOneConfiguration is the regression test for
// the drifted enable sequence: however a ShardedEngine is obtained — built
// fresh, resumed from a v1 or v2 image, or resumed incrementally — it must
// serve warm reads lock-free and combine writes into dirty leaves.
func TestShardedConstructorsBuildOneConfiguration(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	image := func(shards int) (*bytes.Buffer, RootDigest) {
		var buf bytes.Buffer
		root, err := newSharded(t, cfg, shards).Persist(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return &buf, root
	}
	rows := []struct {
		name  string
		build func() (*ShardedEngine, error)
	}{
		{"new", func() (*ShardedEngine, error) { return NewShardedEngine(cfg, 4) }},
		{"resume-v1-1shard", func() (*ShardedEngine, error) {
			var buf bytes.Buffer
			root, err := newEngine(t, cfg).Persist(&buf)
			if err != nil {
				return nil, err
			}
			return ResumeSharded(cfg, 1, &buf, &root)
		}},
		{"resume-v2-4shards", func() (*ShardedEngine, error) {
			buf, root := image(4)
			return ResumeSharded(cfg, 4, buf, &root)
		}},
		{"resume-incremental", func() (*ShardedEngine, error) {
			buf, root := image(4)
			s, _, err := ResumeShardedIncremental(cfg, 4, buf, nil, &root)
			return s, err
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			s, err := row.build()
			if err != nil {
				t.Fatal(err)
			}
			want := block(5)
			if err := s.Write(0, want); err != nil {
				t.Fatal(err)
			}
			dst := make([]byte, BlockBytes)
			if _, err := s.Read(0, dst); err != nil {
				t.Fatal(err)
			}
			base := s.Stats()
			if _, err := s.Read(0, dst); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst, want) {
				t.Fatal("warm read returned wrong data")
			}
			d := statDelta(base, s.Stats())
			if d.LockFreeHits != 1 || d.SlowPathReads != 0 {
				t.Errorf("warm read: LockFreeHits=%d SlowPathReads=%d, want 1/0", d.LockFreeHits, d.SlowPathReads)
			}
			if err := s.Write(BlockBytes, block(6)); err != nil { // same group as block 0
				t.Fatal(err)
			}
			if got := s.Stats().WriteCombines - base.WriteCombines; got == 0 {
				t.Error("repeated write to one group did not combine")
			}
		})
	}
}

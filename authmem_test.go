package authmem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"authmem/internal/sim"
)

func testConfig(scheme CounterScheme, placement MACPlacement) Config {
	cfg := DefaultConfig(1 << 20)
	cfg.Scheme = scheme
	cfg.Placement = placement
	cfg.Key = testKey()
	return cfg
}

func testKey() []byte {
	k := make([]byte, KeySize)
	for i := range k {
		k[i] = byte(i*3 + 1)
	}
	return k
}

func newMem(t testing.TB, cfg Config) *Memory {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// forShards runs fn once per shard count the facade tests cover: the
// one-shard region New builds and a four-shard one.
func forShards(t *testing.T, fn func(t *testing.T, shards int)) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { fn(t, shards) })
	}
}

func newMemShards(t testing.TB, cfg Config, shards int) *Memory {
	t.Helper()
	m, err := NewSharded(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero config should fail")
	}
	cfg := testConfig(DeltaEncoding, MACInECC)
	cfg.Key = cfg.Key[:10]
	if _, err := New(cfg); err == nil {
		t.Fatal("short key should fail")
	}
	cfg = testConfig(CounterScheme(42), MACInECC)
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown scheme should fail")
	}
}

// TestNewRefusesCryptoBackend: the cipher and MAC have one path, so any
// CryptoBackend value is refused, by both constructors and before a shard
// is built.
func TestNewRefusesCryptoBackend(t *testing.T) {
	cfg := testConfig(DeltaEncoding, MACInECC)
	cfg.CryptoBackend = "stdlib"
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "CryptoBackend") {
		t.Fatalf("New with CryptoBackend %q: %v", cfg.CryptoBackend, err)
	}
	if _, err := NewSharded(cfg, 4); err == nil || !strings.Contains(err.Error(), "CryptoBackend") {
		t.Fatalf("NewSharded with CryptoBackend %q: %v", cfg.CryptoBackend, err)
	}
}

func TestSchemeString(t *testing.T) {
	names := map[CounterScheme]string{
		Monolithic:      "monolithic-56",
		SplitCounter:    "split-7",
		DeltaEncoding:   "delta-7",
		DualLengthDelta: "dual-length",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
	if CounterScheme(9).String() != "CounterScheme(9)" {
		t.Error("unknown scheme name")
	}
}

func TestRoundTripAllSchemes(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		for _, s := range []CounterScheme{Monolithic, SplitCounter, DeltaEncoding, DualLengthDelta} {
			for _, p := range []MACPlacement{MACInECC, InlineMAC} {
				m := newMemShards(t, testConfig(s, p), shards)
				data := make([]byte, BlockSize)
				rand.New(rand.NewSource(1)).Read(data)
				if err := m.Write(0x1000, data); err != nil {
					t.Fatalf("%v/%v: %v", s, p, err)
				}
				got := make([]byte, BlockSize)
				if _, err := m.Read(0x1000, got); err != nil {
					t.Fatalf("%v/%v: %v", s, p, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("%v/%v: data corrupted", s, p)
				}
			}
		}
	})
}

func TestTamperDetection(t *testing.T) {
	m := newMem(t, testConfig(DeltaEncoding, MACInECC))
	data := make([]byte, BlockSize)
	if err := m.Write(0, data); err != nil {
		t.Fatal(err)
	}
	// Three flips exceed the correction budget and must be refused.
	for _, b := range []int{1, 100, 300} {
		if err := flipAt(m, planeData, 0, b); err != nil {
			t.Fatal(err)
		}
	}
	var ie *IntegrityError
	if _, err := m.Read(0, data); !errors.As(err, &ie) {
		t.Fatalf("tampering undetected: %v", err)
	}
	if m.Stats().IntegrityFailures == 0 {
		t.Fatal("stats missed the failure")
	}
}

func TestFaultCorrection(t *testing.T) {
	m := newMem(t, testConfig(DeltaEncoding, MACInECC))
	want := make([]byte, BlockSize)
	rand.New(rand.NewSource(2)).Read(want)
	if err := m.Write(64, want); err != nil {
		t.Fatal(err)
	}
	if err := flipAt(m, planeData, 64, 77); err != nil {
		t.Fatal(err)
	}
	if err := flipAt(m, planeData, 64, 401); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, BlockSize)
	info, err := m.Read(64, got)
	if err != nil {
		t.Fatal(err)
	}
	if info.CorrectedDataBits != 2 || !bytes.Equal(got, want) {
		t.Fatalf("correction failed: %+v", info)
	}
}

func TestReplayDetection(t *testing.T) {
	m := newMem(t, testConfig(DeltaEncoding, MACInECC))
	old := bytes.Repeat([]byte{0x11}, BlockSize)
	if err := m.Write(128, old); err != nil {
		t.Fatal(err)
	}
	snap := record(t, m, 128)
	if err := m.Write(128, bytes.Repeat([]byte{0x22}, BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := replay(m, snap); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockSize)
	var ie *IntegrityError
	if _, err := m.Read(128, dst); !errors.As(err, &ie) {
		t.Fatalf("replay undetected: %v", err)
	}
}

func TestCounterBitTamper(t *testing.T) {
	for _, s := range []CounterScheme{Monolithic, DeltaEncoding} {
		m := newMem(t, testConfig(s, MACInECC))
		if err := m.Write(0, make([]byte, BlockSize)); err != nil {
			t.Fatal(err)
		}
		if err := flipAt(m, planeCounter, 0, 3); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, BlockSize)
		if _, err := m.Read(0, dst); err == nil {
			t.Fatalf("%v: counter tamper undetected", s)
		}
	}
}

func TestScrub(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		m := newMemShards(t, testConfig(DeltaEncoding, MACInECC), shards)
		// One block at the same offset in every shard: the pass must cover
		// the whole region, not the first shard.
		for i := uint64(0); i < 8; i++ {
			if err := m.Write(i%uint64(shards)*m.ShardSize()+i*BlockSize, make([]byte, BlockSize)); err != nil {
				t.Fatal(err)
			}
		}
		if err := flipAt(m, planeData, uint64(shards-1)*m.ShardSize()+7*BlockSize, 7); err != nil {
			t.Fatal(err)
		}
		rep, err := m.Scrub()
		if err != nil {
			t.Fatal(err)
		}
		if rep.BlocksScanned != 8 || rep.ParityFlagged != 1 || rep.Corrected != 1 {
			t.Fatalf("scrub report %+v", rep)
		}
		// Inline placement has no scrub lane.
		inline := newMemShards(t, testConfig(DeltaEncoding, InlineMAC), shards)
		if _, err := inline.Scrub(); err == nil {
			t.Fatal("scrub under InlineMAC should fail")
		}
	})
}

func TestCounterStatsExposeReencryptions(t *testing.T) {
	m := newMem(t, testConfig(SplitCounter, MACInECC))
	data := make([]byte, BlockSize)
	for i := 0; i < 200; i++ {
		if err := m.Write(0, data); err != nil {
			t.Fatal(err)
		}
	}
	st := m.CounterStats()
	if st.Writes != 200 || st.Reencryptions == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestComputeOverhead(t *testing.T) {
	proposed := DefaultConfig(512 << 20)
	proposed.Key = testKey()
	po, err := ComputeOverhead(proposed)
	if err != nil {
		t.Fatal(err)
	}
	baseline := proposed
	baseline.Scheme = Monolithic
	baseline.Placement = InlineMAC
	bo, err := ComputeOverhead(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if po.EncryptionOverheadPct() > 3 {
		t.Fatalf("proposed overhead %.2f%%", po.EncryptionOverheadPct())
	}
	if bo.EncryptionOverheadPct() < 20 {
		t.Fatalf("baseline overhead %.2f%%", bo.EncryptionOverheadPct())
	}
	if _, err := ComputeOverhead(Config{}); err == nil {
		t.Fatal("zero config should fail")
	}
}

// TestComputeOverheadClassicAndDisabled sets the facade's storage breakdown
// against §2.2's classic data tree, a design point of the timing model only.
// At the paper's 512MB region and 3KB root the classic design costs 37.95%
// in all — an 82.3MiB tree over 6 off-chip levels — and with the design
// point disabled the model's breakdown is ComputeOverhead's.
func TestComputeOverheadClassicAndDisabled(t *testing.T) {
	cfg := testConfig(Monolithic, InlineMAC)
	cfg.Size, cfg.OnChipTreeBytes = 512<<20, 3<<10
	po, err := ComputeOverhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	icfg, err := cfg.internal()
	if err != nil {
		t.Fatal(err)
	}
	classic := sim.Table1(icfg)
	classic.DataTree = true
	co, err := classic.Overhead()
	if err != nil {
		t.Fatal(err)
	}
	if co.TreeBytes <= po.TreeBytes {
		t.Fatal("classic tree should dwarf the bonsai tree")
	}
	if got := fmt.Sprintf("%.2f%% total, %.1fMiB tree, %d levels",
		co.EncryptionOverheadPct(), float64(co.TreeBytes)/(1<<20), co.TreeLevels); got != "37.95% total, 82.3MiB tree, 6 levels" {
		t.Fatalf("classic data tree at 512MB: %s", got)
	}

	classic.DataTree = false
	if mo, err := classic.Overhead(); err != nil || mo != po {
		t.Fatalf("model breakdown %+v, ComputeOverhead %+v (%v)", mo, po, err)
	}
}

func TestDefaultConfigDefaults(t *testing.T) {
	cfg := DefaultConfig(1 << 20)
	cfg.Key = testKey()
	cfg.OnChipTreeBytes = 0
	if _, err := New(cfg); err != nil {
		t.Fatalf("zero-default fields should be filled: %v", err)
	}
}

func BenchmarkMemoryWrite(b *testing.B) {
	cfg := testConfig(DeltaEncoding, MACInECC)
	m := newMem(b, cfg)
	data := make([]byte, BlockSize)
	b.SetBytes(BlockSize)
	for i := 0; i < b.N; i++ {
		if err := m.Write(uint64(i%8192)*BlockSize, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemoryRead(b *testing.B) {
	cfg := testConfig(DeltaEncoding, MACInECC)
	m := newMem(b, cfg)
	data := make([]byte, BlockSize)
	for i := 0; i < 8192; i++ {
		if err := m.Write(uint64(i)*BlockSize, data); err != nil {
			b.Fatal(err)
		}
	}
	dst := make([]byte, BlockSize)
	b.SetBytes(BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Read(uint64(i%8192)*BlockSize, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFacadeAttackSurface(t *testing.T) {
	// The remaining facade attack methods: ECC-lane flip (healed), inline
	// MAC flip (detected), tree-node flip (detected), splice (detected).
	m := newMem(t, testConfig(DeltaEncoding, MACInECC))
	want := make([]byte, BlockSize)
	rand.New(rand.NewSource(20)).Read(want)
	if err := m.Write(0, want); err != nil {
		t.Fatal(err)
	}
	if err := flipAt(m, planeLane, 0, 11); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockSize)
	info, err := m.Read(0, dst)
	if err != nil || info.CorrectedMACBits != 1 {
		t.Fatalf("ECC-lane fault not healed: %+v %v", info, err)
	}

	inline := newMem(t, testConfig(DeltaEncoding, InlineMAC))
	if err := inline.Write(0, want); err != nil {
		t.Fatal(err)
	}
	if err := flipAt(inline, planeLane, 0, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := inline.Read(0, dst); err == nil {
		t.Fatal("inline MAC flip undetected")
	}

	// Tree node attack needs off-chip levels: shrink the root budget.
	cfg := testConfig(DeltaEncoding, MACInECC)
	cfg.OnChipTreeBytes = 64
	deep := newMem(t, cfg)
	if err := deep.Write(0, want); err != nil {
		t.Fatal(err)
	}
	// Land the write's deferred tree update first; a still-dirty leaf's
	// path would be recomputed from trusted state, overwriting the flip.
	if err := deep.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := flipNode(deep, 0, 0, 0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := deep.Read(0, dst); err == nil {
		t.Fatal("tree-node flip undetected")
	}

	// Splice through the facade.
	sp := newMem(t, testConfig(DeltaEncoding, MACInECC))
	if err := sp.Write(0, want); err != nil {
		t.Fatal(err)
	}
	if err := sp.Write(BlockSize, want); err != nil {
		t.Fatal(err)
	}
	snap := record(t, sp, 0)
	if err := splice(sp, snap, BlockSize); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Read(BlockSize, dst); err == nil {
		t.Fatal("splice undetected")
	}
}

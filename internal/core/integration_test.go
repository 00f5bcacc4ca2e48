package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"authmem/internal/ctr"
	"authmem/internal/dram"
)

// TestIntegrationMixedCampaign runs a sustained mixed workload with
// interleaved attacks against every design point: all tampering must be
// detected, all repaired faults must restore exact data, and no clean read
// may ever return wrong bytes.
func TestIntegrationMixedCampaign(t *testing.T) {
	for _, cfg := range allDesignPoints() {
		name := cfg.Scheme.String() + "/" + cfg.Placement.String()
		e := newEngine(t, cfg)
		rng := rand.New(rand.NewSource(99))
		shadow := make(map[uint64][]byte) // ground truth
		poisoned := make(map[uint64]bool) // blocks whose region was attacked

		const blocks = 600
		dst := make([]byte, BlockBytes)
		for step := 0; step < 6000; step++ {
			blk := uint64(rng.Intn(blocks))
			addr := blk * BlockBytes
			switch op := rng.Intn(10); {
			case op < 5: // write
				data := block(rng.Int63())
				if err := e.Write(addr, data); err != nil {
					t.Fatalf("%s: write: %v", name, err)
				}
				shadow[addr] = data
				delete(poisoned, addr)
			case op < 9: // read, alternately cold (verifying path) and warm
				if step%2 == 0 {
					goCold(e)
				}
				want, written := shadow[addr]
				info, err := e.Read(addr, dst)
				if poisoned[addr] {
					var ie *IntegrityError
					if !errors.As(err, &ie) {
						t.Fatalf("%s: poisoned block %d read without error", name, blk)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: read %#x: %v", name, addr, err)
				}
				if written && !bytes.Equal(dst, want) {
					t.Fatalf("%s: block %d returned wrong data", name, blk)
				}
				if !written && !info.Fresh && !allZero(dst) {
					t.Fatalf("%s: unwritten block %d returned nonzero data", name, blk)
				}
			default: // attack: uncorrectable ciphertext corruption
				if _, ok := shadow[addr]; !ok {
					continue
				}
				// Four distinct flips inside one word: beyond both
				// SEC-DED (1/word) and flip-and-check (2/block); any
				// SEC-DED miscorrection is caught by the MAC.
				word := rng.Intn(8)
				for _, b := range rng.Perm(64)[:4] {
					if err := e.TamperCiphertext(addr, word*64+b); err != nil {
						t.Fatalf("%s: tamper: %v", name, err)
					}
				}
				poisoned[addr] = true
			}
		}
	}
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// TestIntegrationScrubUnderFaultStorm verifies a scrub-repair-verify cycle
// at scale: a storm of single-bit faults across a large resident set is
// fully healed by one scrub pass.
func TestIntegrationScrubUnderFaultStorm(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	e := newEngine(t, cfg)
	rng := rand.New(rand.NewSource(5))
	const blocks = 2000
	for i := uint64(0); i < blocks; i++ {
		if err := e.Write(i*BlockBytes, block(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	faulted := map[uint64]bool{}
	for len(faulted) < 100 {
		blk := uint64(rng.Intn(blocks))
		if faulted[blk] {
			continue
		}
		faulted[blk] = true
		if err := e.TamperCiphertext(blk*BlockBytes, rng.Intn(512)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := e.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ParityFlagged != 100 || rep.Corrected != 100 || rep.Uncorrectable != 0 {
		t.Fatalf("scrub report %+v", rep)
	}
	dst := make([]byte, BlockBytes)
	for i := uint64(0); i < blocks; i++ {
		if _, err := e.Read(i*BlockBytes, dst); err != nil {
			t.Fatalf("block %d unreadable after scrub: %v", i, err)
		}
		if !bytes.Equal(dst, block(int64(i))) {
			t.Fatalf("block %d data wrong after scrub", i)
		}
	}
}

// TestIntegrationEngineAndTimingModelAgree drives the identical write-back
// sequence through the functional engine and the timing model: because they
// share the counter-scheme implementation, their scheme-event statistics
// must match exactly.
func TestIntegrationEngineAndTimingModelAgree(t *testing.T) {
	for _, kind := range []ctr.Kind{ctr.Split, ctr.Delta, ctr.DualLength} {
		cfg := smallCfg(kind, MACInECC)
		eng := newEngine(t, cfg)
		tm, err := NewTimingModel(cfg, dram.MustNew(dram.DDR3_1600(4)))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		data := block(1)
		var now uint64
		for i := 0; i < 30000; i++ {
			blk := uint64(rng.Intn(256))
			if rng.Intn(3) == 0 {
				blk = uint64(rng.Intn(8)) // hot blocks force overflows
			}
			if err := eng.Write(blk*BlockBytes, data); err != nil {
				t.Fatal(err)
			}
			now = tm.WriteBack(now, blk*BlockBytes)
		}
		es, ts := eng.SchemeStats(), tm.Scheme().Stats()
		if es != ts {
			t.Fatalf("%s: engine %+v, timing %+v", kind, es, ts)
		}
		if es.Reencryptions == 0 {
			t.Fatalf("%s: campaign produced no re-encryptions; test is vacuous", kind)
		}
	}
}

// TestIntegrationColdBootWipe models the cold-boot attack of the paper's
// introduction: the attacker dumps and perturbs large memory regions. Every
// touched block must either read back exactly or be refused — never silent
// garbage.
func TestIntegrationColdBootWipe(t *testing.T) {
	for _, placement := range []MACPlacement{MACInline, MACInECC} {
		cfg := smallCfg(ctr.Delta, placement)
		e := newEngine(t, cfg)
		rng := rand.New(rand.NewSource(13))
		const blocks = 500
		for i := uint64(0); i < blocks; i++ {
			if err := e.Write(i*BlockBytes, block(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		// Perturb a contiguous half of memory with heavy bit noise.
		for blk := uint64(0); blk < blocks/2; blk++ {
			flips := rng.Intn(20) + 3
			for f := 0; f < flips; f++ {
				if err := e.TamperCiphertext(blk*BlockBytes, rng.Intn(512)); err != nil {
					t.Fatal(err)
				}
			}
		}
		dst := make([]byte, BlockBytes)
		var refused int
		for blk := uint64(0); blk < blocks; blk++ {
			_, err := e.Read(blk*BlockBytes, dst)
			if err != nil {
				var ie *IntegrityError
				if !errors.As(err, &ie) {
					t.Fatalf("unexpected error type: %v", err)
				}
				refused++
				continue
			}
			if !bytes.Equal(dst, block(int64(blk))) {
				t.Fatalf("%s: block %d returned silently corrupted data", placement, blk)
			}
		}
		if refused < int(blocks)/4 {
			t.Fatalf("%s: only %d blocks refused under heavy corruption", placement, refused)
		}
	}
}

// TestIntegrationReplayAfterReencryption combines the two stateful
// mechanisms: a snapshot taken before a group re-encryption must not verify
// after it (the re-encryption advanced every counter in the group).
func TestIntegrationReplayAfterReencryption(t *testing.T) {
	cfg := smallCfg(ctr.Split, MACInECC)
	e := newEngine(t, cfg)
	victim := uint64(5) * BlockBytes
	if err := e.Write(victim, block(50)); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot(victim)
	if err != nil {
		t.Fatal(err)
	}
	// Hammer a different block in the same group until it re-encrypts,
	// which rewrites the victim too.
	for i := 0; i < 200; i++ {
		if err := e.Write(0, block(51)); err != nil {
			t.Fatal(err)
		}
	}
	if e.SchemeStats().Reencryptions == 0 {
		t.Fatal("no re-encryption happened")
	}
	if err := e.Replay(snap); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockBytes)
	var ie *IntegrityError
	if _, err := e.Read(victim, dst); !errors.As(err, &ie) {
		t.Fatalf("pre-re-encryption snapshot verified after replay: %v", err)
	}
}

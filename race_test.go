package authmem

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestSingleShardConcurrentScrub hammers a shared one-shard Memory with
// simultaneous reads, writes, batched I/O, and scrub passes — including
// passes through a WithShard view, whose own fan-out must not race with the
// shard lock held around it. Run under -race in CI; the assertions here are
// secondary to the race detector's.
func TestSingleShardConcurrentScrub(t *testing.T) {
	cfg := testConfig(DeltaEncoding, MACInECC)
	m, err := NewSharded(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers    = 4
		blocksEach = 64
		iters      = 100
	)
	errs := make(chan error, writers+2)
	var wg sync.WaitGroup

	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g) * blocksEach * BlockSize
			buf := make([]byte, 4*BlockSize)
			dst := make([]byte, 4*BlockSize)
			for i := 0; i < iters; i++ {
				addr := base + uint64(i%(blocksEach-4))*BlockSize
				for j := range buf {
					buf[j] = byte(g ^ i ^ j)
				}
				if err := m.WriteBlocks(addr, buf); err != nil {
					errs <- err
					return
				}
				if err := m.ReadBlocks(addr, dst); err != nil {
					errs <- err
					return
				}
				if dst[0] != buf[0] || dst[len(dst)-1] != buf[len(buf)-1] {
					errs <- fmt.Errorf("goroutine %d: stale batched read", g)
					return
				}
				if _, err := m.Read(addr, dst[:BlockSize]); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}

	// Two scrubbers run throughout: through the device, and through a
	// one-shard view under the shard lock.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			if _, err := m.Scrub(); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			var err error
			m.WithShard(0, func(view *Memory) { _, err = view.Scrub() })
			if err != nil {
				errs <- err
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Nothing scrubbed should ever have flagged: no faults were injected.
	if st := m.Stats(); st.ScrubFlagged != 0 || st.IntegrityFailures != 0 {
		t.Fatalf("clean run reported faults: %+v", st)
	}
}

// TestSingleShardQuarantineRace exercises the quarantine/retry path under
// contention: one block is corrupted beyond the correction budget and driven
// into quarantine, then concurrent ReadRecover readers hammer it (the
// quarantine fast-fail path) while a scrubber sweeps the region (including
// the still-corrupt quarantined block) and a writer stores to neighbors and
// eventually releases the quarantine with a fresh write. The quarantine map
// and retry bookkeeping are engine state mutated on the READ path, so this
// is exactly the shape that shakes out a lock that only covers writes. Run
// under -race.
func TestSingleShardQuarantineRace(t *testing.T) {
	cfg := testConfig(DeltaEncoding, MACInECC)
	m, err := NewSharded(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	const (
		victim  = uint64(7 * BlockSize)
		blocks  = 64
		readers = 4
		iters   = 200
	)
	buf := make([]byte, BlockSize)
	for b := 0; b < blocks; b++ {
		for j := range buf {
			buf[j] = byte(b ^ j)
		}
		if err := m.Write(uint64(b)*BlockSize, buf); err != nil {
			t.Fatal(err)
		}
	}

	// Single-threaded setup phase: corrupt the victim beyond any budget and
	// drive it into quarantine.
	m.WithShard(0, func(raw *Memory) {
		for bit := 0; bit < 41; bit++ {
			if err := raw.FlipDataBit(victim, bit*12%512); err != nil {
				t.Fatal(err)
			}
		}
	})
	if _, err := m.ReadRecover(victim, buf); err == nil {
		t.Fatal("corrupted victim read succeeded")
	}
	if !m.Quarantined(victim) {
		t.Fatal("victim not quarantined after failed recovery")
	}

	var released sync.WaitGroup
	released.Add(1)
	fresh := make([]byte, BlockSize)
	for j := range fresh {
		fresh[j] = 0xC3
	}

	errs := make(chan error, readers+2)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]byte, BlockSize)
			for i := 0; i < iters; i++ {
				// Hammer the quarantined block: before release every
				// read must fail with QuarantineError; after release it
				// must serve the writer's fresh data.
				_, err := m.ReadRecover(victim, dst)
				if err != nil {
					var qe *QuarantineError
					if !errors.As(err, &qe) {
						errs <- fmt.Errorf("reader %d: non-quarantine error: %v", g, err)
						return
					}
				} else if dst[0] != 0xC3 {
					errs <- fmt.Errorf("reader %d: stale post-release data %#x", g, dst[0])
					return
				}
				// And a healthy neighbor, via the same recovery path.
				nb := uint64((g*13+i)%blocks) * BlockSize
				if nb == victim {
					nb += BlockSize
				}
				if _, err := m.ReadRecover(nb, dst); err != nil {
					errs <- fmt.Errorf("reader %d: neighbor read: %v", g, err)
					return
				}
			}
		}(g)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/8; i++ {
			// The quarantined block is still corrupt in DRAM; the scrub
			// pass must tolerate it (counted uncorrectable, no error).
			if _, err := m.Scrub(); err != nil {
				errs <- fmt.Errorf("scrubber: %v", err)
				return
			}
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer released.Done()
		src := make([]byte, BlockSize)
		for i := 0; i < iters/2; i++ {
			b := uint64(i % blocks)
			if b == victim/BlockSize {
				continue
			}
			for j := range src {
				src[j] = byte(i ^ j)
			}
			if err := m.Write(b*BlockSize, src); err != nil {
				errs <- fmt.Errorf("writer: %v", err)
				return
			}
		}
		// Fresh write releases the quarantine mid-flight.
		if err := m.Write(victim, fresh); err != nil {
			errs <- fmt.Errorf("writer: release: %v", err)
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	released.Wait()
	if m.Quarantined(victim) {
		t.Fatal("victim still quarantined after release write")
	}
	if _, err := m.ReadRecover(victim, buf); err != nil {
		t.Fatalf("post-release read: %v", err)
	}
	if buf[0] != 0xC3 {
		t.Fatalf("post-release data wrong: %#x", buf[0])
	}
	if list := m.QuarantineList(); len(list) != 0 {
		t.Fatalf("quarantine list not empty: %v", list)
	}
}

// TestShardedMemoryLockFreeRace drives the public Memory API the way
// a multi-core host would: lock-free warm readers on every shard racing
// writers that keep re-stamping the same lines, while a fault goroutine
// flips bits across all four planes and recovers the victims. The seqlock
// caches under Read/ReadBlocks are the subject — run under -race; the
// assertions (no stale plaintext after a fault, fast path actually engaged)
// are secondary to the race detector's. The core-level stress
// (internal/core TestLockFreeConcurrentStress) additionally checks torn and
// stale version stamps; this test pins the public wrapper and the
// Flip*/ReadRecover entry points to the same protocol.
func TestShardedMemoryLockFreeRace(t *testing.T) {
	cfg := testConfig(DeltaEncoding, MACInECC)
	s, err := NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	const (
		blocks  = 256 // spread across all 4 shards
		readers = 3
		iters   = 400
	)
	stride := s.ShardSize() / BlockSize // blocks per shard
	addr := func(i int) uint64 {
		// Interleave across shards so neighbors in i land on different locks.
		return (uint64(i%4)*stride + uint64(i)/4) * BlockSize
	}
	for i := 0; i < blocks; i++ {
		buf := make([]byte, BlockSize)
		for j := range buf {
			buf[j] = byte(i ^ j)
		}
		if err := s.Write(addr(i), buf); err != nil {
			t.Fatal(err)
		}
	}

	errs := make(chan error, readers+2)
	var wg sync.WaitGroup

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]byte, 4*BlockSize)
			for i := 0; i < iters; i++ {
				// Warm single-block read: lock-free on a quiet line, slow
				// path (or loud error) on one under attack — never garbage.
				k := (g*31 + i*7) % blocks
				if _, err := s.Read(addr(k), dst[:BlockSize]); err != nil {
					continue // loud fault outcome; the fault goroutine repairs
				}
				// Span read inside one shard through the warm-prefix path.
				base := (uint64((g+i)%4)*stride + uint64(i%32)) * BlockSize
				_ = s.ReadBlocks(base, dst)
			}
		}(g)
	}

	wg.Add(1)
	go func() { // writer: re-stamps lines the readers are probing
		defer wg.Done()
		src := make([]byte, BlockSize)
		for i := 0; i < iters; i++ {
			k := (i * 13) % blocks
			for j := range src {
				src[j] = byte(i ^ j ^ 0x5A)
			}
			if err := s.Write(addr(k), src); err != nil {
				errs <- fmt.Errorf("writer: %v", err)
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // fault plane rotation + loud recovery + resync
		defer wg.Done()
		buf := make([]byte, BlockSize)
		for i := 0; i < iters/4; i++ {
			k := (i*29 + 5) % blocks
			a := addr(k)
			var err error
			switch i % 4 {
			case 0:
				err = s.FlipDataBit(a, (i*17)%512)
			case 1:
				err = s.FlipECCBit(a, (i*11)%64)
			case 2: // two-bit data burst: beyond SECDED, into the retry ladder
				if err = s.FlipDataBit(a, (i*7)%512); err == nil {
					err = s.FlipDataBit(a, (i*7+101)%512)
				}
			case 3:
				err = s.FlipCounterBit(a, (i*23)%512)
			}
			if err != nil {
				errs <- fmt.Errorf("fault: %v", err)
				return
			}
			if _, err := s.ReadRecover(a, buf); err != nil {
				// Unrecoverable (e.g. MAC+data burst): release via rewrite.
				for j := range buf {
					buf[j] = byte(k ^ j ^ 0x5A)
				}
				if werr := s.Write(a, buf); werr != nil {
					errs <- fmt.Errorf("fault resync: %v", werr)
					return
				}
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.LockFreeHits == 0 {
		t.Fatal("no lock-free hits: the warm-read fast path never engaged")
	}
	// Final sweep: every line must still verify (possibly after repair).
	dst := make([]byte, BlockSize)
	for i := 0; i < blocks; i++ {
		if _, err := s.ReadRecover(addr(i), dst); err != nil {
			for j := range dst {
				dst[j] = byte(i ^ j)
			}
			if werr := s.Write(addr(i), dst); werr != nil {
				t.Fatalf("final resync blk %d: %v", i, werr)
			}
		}
	}
	if s.QuarantineCount() != 0 {
		t.Fatalf("quarantines survived the final resync: %v", s.QuarantineList())
	}
}

// TestShardedRootDigestUnderConcurrentWriters runs root pinners beside
// writers on one Memory — the cluster tier's steady state, where
// every response asks for the root. RootDigest fills each shard tree's
// digest cache under that shard's lock while writers invalidate it under
// the same lock; -race is the assertion for that. The value assertions: a
// pinner that sees no write in between gets the same root twice, and once
// the writers are done the cached root is the one Persist seals and Resume
// re-derives with its own fresh hash.
func TestShardedRootDigestUnderConcurrentWriters(t *testing.T) {
	cfg := shardTestConfig(t, 1<<20)
	s, err := NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 4
		pinners = 3
		iters   = 300
	)
	blocksPerShard := s.ShardSize() / BlockSize
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := make([]byte, 2*BlockSize)
			for i := 0; i < iters; i++ {
				for j := range src {
					src[j] = byte(g ^ i ^ j)
				}
				// Walk all four shards; every 16th span straddles two.
				blk := uint64((g+i)%4)*blocksPerShard + uint64(i%64)
				if i%16 == 15 {
					blk = uint64(1+(g+i)%3)*blocksPerShard - 1
				}
				if err := s.WriteBlocks(blk*BlockSize, src); err != nil {
					errs <- fmt.Errorf("writer %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	var pwg sync.WaitGroup
	for g := 0; g < pinners; g++ {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.RootDigest()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	pwg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	quiet := s.RootDigest()
	if again := s.RootDigest(); again != quiet {
		t.Fatal("quiescent root moved between two calls")
	}
	var img bytes.Buffer
	sealed, err := s.Persist(&img)
	if err != nil {
		t.Fatal(err)
	}
	if sealed != quiet {
		t.Fatal("Persist sealed a different root than RootDigest pinned")
	}
	if _, err := ResumeSharded(cfg, 4, &img, &quiet); err != nil {
		t.Fatalf("resume under the cached pin: %v", err)
	}
}

package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/bits"
	"math/rand"
	"testing"

	"authmem/internal/ctr"
	"authmem/internal/wal"
)

// liveDelta drives a sharded engine with delta tracking through sealed
// epochs and, after every one, rebuilds a second engine from the durable
// artifacts alone (base image + one log per shard, pinned to the epoch root)
// and holds it against the live engine bit for bit. A block-granular log is
// only right if "base + every record so far" is the live engine's stored
// state — ciphertext, lanes, check bytes and counter images — not merely
// something that decrypts: a block the log forgot fails its MAC after a
// restart, which is loud but is data lost.
type liveDelta struct {
	t       *testing.T
	cfg     Config
	s       *ShardedEngine
	rng     *rand.Rand
	shadow  map[uint64][]byte // global address -> plaintext
	poison  map[uint64]bool   // addresses whose read must fail on both sides
	base    *bytes.Buffer
	logs    []*bytes.Buffer
	writers []*wal.Writer
	epochs  int
}

const liveShards = 2

func newLiveDelta(t *testing.T, cfg Config) *liveDelta {
	t.Helper()
	s, err := NewShardedEngine(cfg, liveShards)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableDeltaTracking()
	return &liveDelta{
		t: t, cfg: cfg, s: s,
		rng:    rand.New(rand.NewSource(22)),
		shadow: make(map[uint64][]byte),
		poison: make(map[uint64]bool),
	}
}

// shardBlocks is the number of data blocks per shard.
func (h *liveDelta) shardBlocks() uint64 { return h.s.ShardBytes() / BlockBytes }

// span writes n blocks starting at global block first through WriteBlocks.
func (h *liveDelta) span(first uint64, n int) {
	h.t.Helper()
	src := make([]byte, n*BlockBytes)
	h.rng.Read(src)
	if err := h.s.WriteBlocks(first*BlockBytes, src); err != nil {
		h.t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		addr := (first + uint64(j)) * BlockBytes
		h.shadow[addr] = src[j*BlockBytes : (j+1)*BlockBytes]
		delete(h.poison, addr)
	}
}

// one writes global block blk through the single-block Write.
func (h *liveDelta) one(blk uint64) {
	h.t.Helper()
	data := make([]byte, BlockBytes)
	h.rng.Read(data)
	if err := h.s.Write(blk*BlockBytes, data); err != nil {
		h.t.Fatal(err)
	}
	h.shadow[blk*BlockBytes] = data
	delete(h.poison, blk*BlockBytes)
}

// traffic is the seeded background stream: single blocks and short spans
// scattered over the first ten groups of each shard, so most groups hold many
// resident blocks of which an epoch rewrites a few.
func (h *liveDelta) traffic(n int) {
	h.t.Helper()
	for i := 0; i < n; i++ {
		first := uint64(h.rng.Intn(liveShards))*h.shardBlocks() + uint64(h.rng.Intn(620))
		if h.rng.Intn(4) == 0 {
			h.span(first, 1+h.rng.Intn(12))
		} else {
			h.one(first)
		}
	}
}

// hammer rewrites two blocks of one group, 16 apart (two delta-groups, so the
// dual-length scheme runs out of reserve too), until stat advances.
func (h *liveDelta) hammer(blk uint64, what string, stat func(ctr.Stats) uint64) {
	h.t.Helper()
	before := stat(h.s.SchemeStats())
	for i := 0; stat(h.s.SchemeStats()) == before; i++ {
		if i == 4096 {
			h.t.Fatalf("%d writes to blocks %d/%d forced no %s", i, blk, blk+16, what)
		}
		h.one(blk + uint64(i%2)*16)
	}
}

// fold checkpoints every shard into a fresh base image and fresh logs.
func (h *liveDelta) fold() {
	h.t.Helper()
	h.base = new(bytes.Buffer)
	if err := h.s.BeginShardedImage(h.base); err != nil {
		h.t.Fatal(err)
	}
	h.logs = make([]*bytes.Buffer, liveShards)
	h.writers = make([]*wal.Writer, liveShards)
	for i := range h.logs {
		h.logs[i] = new(bytes.Buffer)
		var err error
		if _, h.writers[i], err = h.s.CheckpointShard(i, h.base, h.logs[i]); err != nil {
			h.t.Fatal(err)
		}
	}
}

// seal appends one epoch to every shard's log and checks the restart.
func (h *liveDelta) seal() {
	h.t.Helper()
	for i, w := range h.writers {
		if _, err := h.s.AppendDeltaShard(i, w); err != nil {
			h.t.Fatal(err)
		}
	}
	h.epochs++
	h.check()
}

// check resumes base + logs into a fresh engine pinned to the live root and
// compares the two engines.
func (h *liveDelta) check() {
	h.t.Helper()
	pin := h.s.RootDigest()
	wals := make([]io.Reader, liveShards)
	for i, l := range h.logs {
		wals[i] = bytes.NewReader(l.Bytes())
	}
	got, reports, err := ResumeShardedIncremental(h.cfg, liveShards, bytes.NewReader(h.base.Bytes()), wals, &pin)
	if err != nil {
		h.t.Fatalf("epoch %d: resume pinned to the live root: %v", h.epochs, err)
	}
	for i, rep := range reports {
		if rep.Status != RecoveryClean {
			h.t.Fatalf("epoch %d: shard %d resumed %v: %s", h.epochs, i, rep.Status, rep.Reason)
		}
		h.compareStored(i, h.s.shards[i].eng, got.shards[i].eng)
	}

	// Plaintext, against the shadow map. The live engine goes cold first so
	// both sides decrypt stored bits instead of serving cached plaintext.
	for _, sh := range h.s.shards {
		goCold(sh.eng)
	}
	dst := make([]byte, BlockBytes)
	sides := map[string]*ShardedEngine{"live": h.s, "resumed": got}
	for addr, want := range h.shadow {
		for side, e := range sides {
			if _, err := e.Read(addr, dst); err != nil {
				h.t.Fatalf("epoch %d: %s read %#x: %v", h.epochs, side, addr, err)
			}
			if !bytes.Equal(dst, want) {
				h.t.Fatalf("epoch %d: %s block %#x differs from the shadow map", h.epochs, side, addr)
			}
		}
	}
	for addr := range h.poison {
		for side, e := range sides {
			if _, err := e.Read(addr, dst); err == nil {
				h.t.Fatalf("epoch %d: %s read of poisoned block %#x succeeded", h.epochs, side, addr)
			}
		}
	}
}

// compareStored holds a resumed shard engine against the live one: the same
// resident blocks with the same ciphertext, metadata lane and check bytes,
// the same counter images, the same root.
func (h *liveDelta) compareStored(shard int, live, got *Engine) {
	h.t.Helper()
	if live.store.Len() != got.store.Len() {
		h.t.Fatalf("epoch %d shard %d: %d resident blocks live, %d resumed", h.epochs, shard, live.store.Len(), got.store.Len())
	}
	live.store.forEach(func(blk uint64, ct []byte, meta *uint64, check []byte) {
		switch gct := got.store.Ciphertext(blk); {
		case gct == nil:
			h.t.Fatalf("epoch %d shard %d: block %d missing after resume", h.epochs, shard, blk)
		case !bytes.Equal(ct, gct):
			h.t.Fatalf("epoch %d shard %d: block %d resumed with stale ciphertext", h.epochs, shard, blk)
		case *meta != got.store.Meta(blk):
			h.t.Fatalf("epoch %d shard %d: block %d resumed with a stale metadata lane", h.epochs, shard, blk)
		case check != nil && !bytes.Equal(check, got.store.Check(blk)):
			h.t.Fatalf("epoch %d shard %d: block %d resumed with stale check bytes", h.epochs, shard, blk)
		}
	})
	if live.images.Len() != got.images.Len() {
		h.t.Fatalf("epoch %d shard %d: %d counter images live, %d resumed", h.epochs, shard, live.images.Len(), got.images.Len())
	}
	live.images.forEach(func(midx uint64, img []byte) {
		if !bytes.Equal(img, got.images.Load(midx)) {
			h.t.Fatalf("epoch %d shard %d: counter image %d differs after resume", h.epochs, shard, midx)
		}
	})
	if live.RootDigest() != got.RootDigest() {
		h.t.Fatalf("epoch %d shard %d: roots differ", h.epochs, shard)
	}
}

// TestDeltaLogMatchesLiveEngine carries every event that changes stored bits
// across epochs and restarts: single and batched writes, spans over group and
// shard boundaries, delta reset and re-encode (which move no ciphertext),
// group re-encryption (which moves all 64), a block the sweep quarantines, a
// fold with blocks still dirty.
func TestDeltaLogMatchesLiveEngine(t *testing.T) {
	cfgs := allDesignPoints()
	if testing.Short() {
		cfgs = []Config{smallCfg(ctr.Delta, MACInECC), smallCfg(ctr.Monolithic, MACInline)}
	}
	for _, cfg := range cfgs {
		t.Run(cfg.Scheme.String()+"/"+cfg.Placement.String(), func(t *testing.T) {
			h := newLiveDelta(t, cfg)
			grouped := cfg.Scheme != ctr.Monolithic
			sb := h.shardBlocks()
			const (
				hot    = 2*ctr.GroupBlocks + 7 // shard 0, group 2: the re-encryption victim
				victim = 2*ctr.GroupBlocks + 40
			)

			// Base: the hot group fully resident, background everywhere.
			h.span(2*ctr.GroupBlocks, ctr.GroupBlocks)
			h.traffic(300)
			h.fold()
			h.check()

			// 1: spans over a group boundary and over the shard boundary.
			h.traffic(60)
			h.span(sb+60, 8)
			h.span(sb-3, 6)
			h.seal()

			// 2: group re-encryption; 63 resealed blocks nobody wrote.
			h.traffic(20)
			if grouped {
				h.hammer(hot, "re-encryption", func(s ctr.Stats) uint64 { return s.Reencryptions })
			}
			h.seal()

			// 3: a block with an uncorrectable fault is skipped by the next
			// sweep: its faulty bits stay, under a counter the group left.
			if grouped {
				for _, bit := range []int{0, 1, 2, 64, 65} {
					if err := flipAt(h.s, PlaneData, victim*BlockBytes, bit); err != nil {
						t.Fatal(err)
					}
				}
				h.hammer(hot, "re-encryption", func(s ctr.Stats) uint64 { return s.Reencryptions })
				if !h.s.Quarantined(victim * BlockBytes) {
					t.Fatal("the sweep did not quarantine the faulty block")
				}
				delete(h.shadow, victim*BlockBytes)
				h.poison[victim*BlockBytes] = true
			}
			h.traffic(40)
			h.seal()

			// 4: a fold while blocks are dirty (the base covers them, so
			// the fold clears the set), then an epoch of fresh writes.
			h.traffic(50)
			if h.s.DirtyGroups() == 0 {
				t.Fatal("fold would run on a clean dirty set")
			}
			h.fold()
			h.check()
			h.traffic(30)
			h.seal()

			// 5: a whole group written in lockstep (delta reset).
			h.span(sb+5*ctr.GroupBlocks, ctr.GroupBlocks)
			h.traffic(30)
			h.seal()

			// 6: overflow with every delta above zero (re-encode): no
			// ciphertext but the written block's may reach the log.
			if cfg.Scheme == ctr.Delta {
				h.one(sb + 7*ctr.GroupBlocks)
				h.span(sb+7*ctr.GroupBlocks, ctr.GroupBlocks)
				h.seal()
				h.hammer(sb+7*ctr.GroupBlocks, "re-encode", func(s ctr.Stats) uint64 { return s.Reencodes })
			}
			h.traffic(30)
			h.seal()

			// 7: fresh data releases the quarantined block.
			h.one(victim)
			h.seal()

			// 8, 9: an idle epoch, then more background.
			h.seal()
			h.traffic(80)
			h.seal()

			if h.epochs < 8 {
				t.Fatalf("only %d epochs sealed", h.epochs)
			}
			st := h.s.SchemeStats()
			if grouped && st.Reencryptions < 2 {
				t.Fatalf("%d group re-encryptions; the case under test did not occur", st.Reencryptions)
			}
			if cfg.Scheme == ctr.Delta && (st.Resets == 0 || st.Reencodes == 0) {
				t.Fatalf("resets %d, re-encodes %d; the cases under test did not occur", st.Resets, st.Reencodes)
			}
		})
	}
}

// groupBitmaps re-parses a delta log and returns the block bitmap of every
// group record, in order.
func groupBitmaps(t *testing.T, log []byte) []uint64 {
	t.Helper()
	var maps []uint64
	off := wal.HeaderSize
	for off < len(log) {
		plen := int(binary.LittleEndian.Uint32(log[off:]))
		if payload := log[off+12 : off+12+plen]; payload[0] == deltaRecGroup {
			maps = append(maps, binary.LittleEndian.Uint64(payload[9+BlockBytes:]))
		}
		off += plen + wal.RecordOverhead()
	}
	return maps
}

// TestDeltaRecordCarriesOnlyWrittenBlocks pins the record contents: one block
// written in a populated group is one bitmap bit and one block entry, a group
// re-encryption is all 64, an epoch after no writes is the commit alone.
func TestDeltaRecordCarriesOnlyWrittenBlocks(t *testing.T) {
	for _, cfg := range []Config{smallCfg(ctr.Delta, MACInECC), smallCfg(ctr.Split, MACInline)} {
		t.Run(cfg.Scheme.String()+"/"+cfg.Placement.String(), func(t *testing.T) {
			e := newEngine(t, cfg)
			e.EnableDeltaTracking()
			group := make([]byte, ctr.GroupBlocks*BlockBytes)
			if err := e.WriteBlocks(0, group); err != nil {
				t.Fatal(err)
			}
			var base, log bytes.Buffer
			if _, err := e.Persist(&base); err != nil {
				t.Fatal(err)
			}
			w, err := e.NewDeltaWriter(&log)
			if err != nil {
				t.Fatal(err)
			}
			e.delta.reset() // the base image holds the populated group

			commit := int64(wal.RecordOverhead() + 1 + 8 + 32)
			header := int64(wal.RecordOverhead() + 1 + 8 + BlockBytes + 8)
			entry := int64(BlockBytes + 8 + e.store.checkBytes)
			epoch := func(wantGroups int, wantBytes int64) {
				t.Helper()
				st, err := e.AppendDelta(w)
				if err != nil {
					t.Fatal(err)
				}
				if st.Groups != wantGroups || st.Bytes != wantBytes {
					t.Fatalf("epoch %d: %d group records in %d bytes, want %d in %d", st.Epoch, st.Groups, st.Bytes, wantGroups, wantBytes)
				}
				if int64(log.Len()) != w.Offset() {
					t.Fatalf("epoch %d: log holds %d bytes, writer says %d", st.Epoch, log.Len(), w.Offset())
				}
			}

			if err := e.Write(9*BlockBytes, block(1)); err != nil {
				t.Fatal(err)
			}
			epoch(1, header+entry+commit)
			if maps := groupBitmaps(t, log.Bytes()); len(maps) != 1 || maps[0] != 1<<9 {
				t.Fatalf("one block written: bitmaps %#x", maps)
			}

			for e.SchemeStats().Reencryptions == 0 {
				if err := e.Write(9*BlockBytes, block(2)); err != nil {
					t.Fatal(err)
				}
			}
			epoch(1, header+ctr.GroupBlocks*entry+commit)
			if maps := groupBitmaps(t, log.Bytes()); len(maps) != 2 || maps[1] != ^uint64(0) {
				t.Fatalf("re-encrypted group: bitmaps %#x", maps)
			}

			epoch(0, commit)

			// A span over two groups marks each group's own bits.
			if err := e.WriteBlocks(62*BlockBytes, make([]byte, 5*BlockBytes)); err != nil {
				t.Fatal(err)
			}
			epoch(2, 2*header+5*entry+commit)
			maps := groupBitmaps(t, log.Bytes())
			if len(maps) != 4 || maps[2] != 3<<62 || maps[3] != 7 {
				t.Fatalf("span over a group boundary: bitmaps %#x", maps)
			}
			if n := bits.OnesCount64(maps[2]) + bits.OnesCount64(maps[3]); n != 5 {
				t.Fatalf("5-block span carried %d blocks", n)
			}

			pin := e.RootDigest()
			if _, rep, err := resumeOneShard(cfg, bytes.NewReader(base.Bytes()), bytes.NewReader(log.Bytes()), &pin); err != nil || rep.Status != RecoveryClean {
				t.Fatalf("resume: %v (%+v)", err, rep)
			}
		})
	}
}

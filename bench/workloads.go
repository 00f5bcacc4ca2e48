package main

import (
	"math/rand"

	iworkload "authmem/internal/workload"
)

const (
	shards    = 4
	spanBytes = 4 * blockBytes // the 256 B span every workload reads and writes
	epochOps  = 2000           // embed-durable seals an epoch every this many ops
	foldEvery = 100            // ... and folds the logs into a new base every this many epochs
)

// stackKind names one way of reaching the engine. A workload's stacks are
// listed shortest first; the last is the one the workload itself drives, and
// the traced run replays the same op stream down the others so that each
// layer's cost is the difference between two adjacent stacks.
type stackKind int

const (
	stackEngine    stackKind = iota // authmem.ShardedMemory called directly
	stackDurable                    // engine + delta tracking, epoch appends, folds
	stackCodec                      // engine behind wire encode/decode, no connection
	stackLoopback                   // client -> server over an in-process pipe
	stackTCP                        // client -> server over TCP localhost
	stackClusterR1                  // cluster client over one node, R=1
	stackClusterR2                  // cluster client over three nodes, R=2
)

var stackNames = map[stackKind]string{
	stackEngine: "engine", stackDurable: "durable", stackCodec: "codec",
	stackLoopback: "loopback", stackTCP: "tcp",
	stackClusterR1: "cluster-r1", stackClusterR2: "cluster-r2",
}

// layout places a working set inside a region. perShard > 0 puts that many
// bytes at the base of each shard and interleaves consecutive spans across
// the shards; perShard == 0 is the linear range [0, total).
type layout struct {
	perShard uint64
	total    uint64
}

func (l layout) spans() uint64 { return l.total / spanBytes }

// extents calls f for each contiguous byte range of the working set.
func (l layout) extents(region uint64, f func(base, n uint64)) {
	if l.perShard == 0 {
		f(0, l.total)
		return
	}
	for s := uint64(0); s < shards; s++ {
		f(s*(region/shards), l.perShard)
	}
}

func (l layout) addr(span uint64, region uint64) uint64 {
	if l.perShard == 0 {
		return span * spanBytes
	}
	return span%shards*(region/shards) + span/shards*spanBytes
}

// workload is one closed-loop traffic mix. sliceOps is the fixed op count of
// a work slice per caller (sized to 10-25 ms on the sizing host); refLoads
// is the reference kernel's memory share, chosen once with -calibrate.
type workload struct {
	name        string
	callers     int
	sliceOps    int
	refLoads    int
	verifyEvery int // verify one read in this many (seeded)
	region      uint64
	set         layout
	writeShare  float64
	stacks      []stackKind
	newStream   func(w *workload, rng *rand.Rand, caller int) *stream
}

// The five workloads; why each exists is recorded in BENCHMARK.json and
// README.md.
func workloads(quick bool) []*workload {
	coldRegion := uint64(64 << 20)
	if quick {
		coldRegion = 32 << 20
	}
	return []*workload{
		{
			name: "embed-hot", callers: 1, sliceOps: 80000, refLoads: 0, verifyEvery: 16,
			region: 64 << 20, set: layout{perShard: 256 << 10, total: 1 << 20},
			writeShare: 0.005, stacks: []stackKind{stackEngine}, newStream: uniformStream,
		},
		{
			name: "embed-cold", callers: 1, sliceOps: 4000, refLoads: 2, verifyEvery: 1,
			region: coldRegion, set: layout{total: coldRegion},
			writeShare: 0.50, stacks: []stackKind{stackEngine}, newStream: cannealStream,
		},
		{
			name: "embed-durable", callers: 1, sliceOps: epochOps, refLoads: 0, verifyEvery: 1,
			region: 64 << 20, set: layout{perShard: 4 << 20, total: 16 << 20},
			writeShare: 0.80, stacks: []stackKind{stackEngine, stackDurable}, newStream: zipfStream,
		},
		{
			name: "serve-tcp", callers: 2, sliceOps: 300, refLoads: 0, verifyEvery: 1,
			region: 64 << 20, set: layout{perShard: 1 << 20, total: 4 << 20},
			writeShare: 0.30, newStream: uniformStream,
			stacks: []stackKind{stackEngine, stackCodec, stackLoopback, stackTCP},
		},
		{
			name: "cluster-r2", callers: 2, sliceOps: 100, refLoads: 2, verifyEvery: 1,
			region: 32 << 20, set: layout{total: 16 << 20},
			writeShare: 0.30, newStream: uniformStream,
			stacks: []stackKind{stackEngine, stackCodec, stackLoopback, stackTCP, stackClusterR1, stackClusterR2},
		},
	}
}

func workloadByName(name string, quick bool) *workload {
	for _, w := range workloads(quick) {
		if w.name == name {
			return w
		}
	}
	return nil
}

// stream is one caller's seeded op generator. Callers draw from disjoint
// span ranges, so a caller's stream alone decides what its blocks hold.
type stream struct {
	rng         *rand.Rand
	writeShare  float64
	verifyEvery int
	readAddr    func() (addr uint64, blocks int)
	writeAddr   func() (addr uint64, blocks int)
}

func (s *stream) next() (addr uint64, blocks int, write bool) {
	if s.rng.Float64() < s.writeShare {
		addr, blocks = s.writeAddr()
		return addr, blocks, true
	}
	addr, blocks = s.readAddr()
	return addr, blocks, false
}

func (s *stream) verifyThis() bool {
	return s.verifyEvery <= 1 || s.rng.Intn(s.verifyEvery) == 0
}

func newStream(w *workload, seed int64, caller int) *stream {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(caller)))
	s := w.newStream(w, rng, caller)
	s.rng, s.writeShare, s.verifyEvery = rng, w.writeShare, w.verifyEvery
	return s
}

// callerSpans is caller's share of the working set: [first, first+n).
func callerSpans(w *workload, caller int) (first, n uint64) {
	n = w.set.spans() / uint64(w.callers)
	return uint64(caller) * n, n
}

// uniformStream reads and writes 256 B spans uniformly over the caller's
// share of the working set.
func uniformStream(w *workload, rng *rand.Rand, caller int) *stream {
	first, n := callerSpans(w, caller)
	pick := func() (uint64, int) {
		return w.set.addr(first+uint64(rng.Int63n(int64(n))), w.region), spanBytes / blockBytes
	}
	return &stream{readAddr: pick, writeAddr: pick}
}

// zipfStream is uniformStream with zipf(1.1) popularity: rank r is span r,
// so the hottest spans sit at the base of different shards.
func zipfStream(w *workload, rng *rand.Rand, caller int) *stream {
	first, n := callerSpans(w, caller)
	z := rand.NewZipf(rng, 1.1, 1, n-1)
	pick := func() (uint64, int) {
		return w.set.addr(first+z.Uint64(), w.region), spanBytes / blockBytes
	}
	return &stream{readAddr: pick, writeAddr: pick}
}

// cannealHotBoost multiplies the share of writes that land on canneal's hot
// blocks. At the paper's rates a hot block takes about 80 writes in a 12 s
// window and its 7-bit delta never overflows; boosted, each overflows about
// sixteen times, so re-encryption sweeps are part of every run while nine
// writes in ten still go to the cold scatter.
const cannealHotBoost = 25

// cannealStream reads 256 B spans uniformly over the whole region and writes
// single blocks in the shape of the paper's Table 2 canneal write-back
// stream: a few isolated hot blocks whose group neighbours stay cold, so
// delta encoding degenerates and groups re-encrypt, over a cold scatter.
func cannealStream(w *workload, rng *rand.Rand, caller int) *stream {
	app, ok := iworkload.ByName("canneal")
	if !ok {
		panic("workload canneal missing from internal/workload")
	}
	classes := append([]iworkload.GroupClass(nil), app.WB.Classes...)
	for i := range classes {
		classes[i].Frac *= cannealHotBoost
	}
	app.WB.Classes = classes
	wb := app.WritebackGen(rng.Int63())
	blocks := w.region / blockBytes
	return &stream{
		readAddr: func() (uint64, int) {
			return uint64(rng.Int63n(int64(w.set.spans()))) * spanBytes, spanBytes / blockBytes
		},
		// The stream spans 128.3 MiB and wraps onto the region.
		writeAddr: func() (uint64, int) { return wb.Next() % blocks * blockBytes, 1 },
	}
}

package main

import (
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// op is one pre-generated call. Writes carry their payload at off in the
// caller's payload arena; verified reads land at off in its read arena.
type op struct {
	addr   uint64
	off    int
	blocks uint16
	write  bool
	verify bool
	failed bool // the call returned an error
}

// caller is one closed-loop client goroutine's state. Everything a work
// slice needs — op list, write payloads, read destinations — is generated
// before the slice's timer starts and checked after it stops.
type caller struct {
	st      *stream
	ref     *refKernel
	ops     []op
	payload []byte
	readbuf []byte
	expect  []uint32 // versions the verified reads must see, one per block
	scratch [spanBytes]byte
	lat     []int32 // per-op ns, timed slices only
	failed  int
}

func (c *caller) prepare(n int, or *oracle) {
	c.ops, c.payload, c.readbuf, c.expect = c.ops[:0], c.payload[:0], c.readbuf[:0], c.expect[:0]
	for i := 0; i < n; i++ {
		addr, blocks, write := c.st.next()
		o := op{addr: addr, blocks: uint16(blocks), write: write}
		nb := blocks * blockBytes
		switch {
		case write:
			o.off = len(c.payload)
			c.payload = slices.Grow(c.payload, nb)[:o.off+nb]
			or.nextPayload(c.payload[o.off:], addr)
		case c.st.verifyThis():
			o.verify = true
			o.off = len(c.readbuf)
			c.readbuf = slices.Grow(c.readbuf, nb)[:o.off+nb]
			c.expect = or.versions(c.expect, addr, blocks)
		}
		c.ops = append(c.ops, o)
	}
}

func (c *caller) do(t target, o *op) {
	nb := int(o.blocks) * blockBytes
	var err error
	switch {
	case o.write:
		err = t.write(o.addr, c.payload[o.off:o.off+nb])
	case o.verify:
		err = t.read(o.addr, c.readbuf[o.off:o.off+nb])
	default:
		err = t.read(o.addr, c.scratch[:nb])
	}
	if err != nil {
		c.failed++
		o.failed = true
	}
}

// run executes the prepared slice. Untimed slices read no clock between ops,
// so the cost figure carries no clock reads; timed slices read it once per
// op. end, when set, runs after the last op and is charged to it.
func (c *caller) run(calls [2]spanName, t target, timed bool, rec *recorder, base time.Time, end func(op int32) error) {
	if !timed {
		for i := range c.ops {
			c.do(t, &c.ops[i])
		}
		if end != nil && end(0) != nil {
			c.failed++
		}
		return
	}
	c.lat = slices.Grow(c.lat[:0], len(c.ops))[:len(c.ops)]
	prev := time.Since(base)
	for i := range c.ops {
		o := &c.ops[i]
		id := rec.reserve()
		s0 := rec.now()
		c.do(t, o)
		call := calls[0]
		if o.write {
			call = calls[1]
		}
		rec.add(call, s0, id, id)
		if i == len(c.ops)-1 && end != nil && end(id) != nil {
			c.failed++
		}
		rec.addReserved(id, spanOp, s0, 0, id)
		now := time.Since(base)
		c.lat[i] = int32(min(now-prev, 1<<31-1))
		prev = now
	}
}

// verify checks the slice's verified reads against the oracle, outside the
// timed window, and returns how many it rejects.
func (c *caller) verify(or *oracle) int {
	bad, e := 0, 0
	for i := range c.ops {
		o := &c.ops[i]
		if !o.verify {
			continue
		}
		n := int(o.blocks)
		if !o.failed && !or.matches(c.readbuf[o.off:o.off+n*blockBytes], o.addr, c.expect[e:e+n]) {
			bad++
		}
		e += n
	}
	return bad
}

// windowOpts bounds one measured window: it runs slice pairs for seconds, or
// for exactly pairs pairs when that is set (op counts then depend on the
// seed alone).
type windowOpts struct {
	seconds float64
	pairs   int
	rec     *recorder // traced window: every slice is timed and records spans
}

// windowResult is what one window measured. *_ref figures are in reference
// iterations, raw figures in host time.
type windowResult struct {
	pairs             int
	attempted, failed int
	writes            int // write ops
	writeBytes        int64
	workNs            float64

	costRef, cpuRef              float64
	readP50, readP95, readP99    float64
	writeP50, writeP95, writeP99 float64
	refIterUs                    float64
	rawOpsPerS                   float64
	rawReadUs, rawWriteUs        float64
	mallocsPerOp                 float64
	gcCycles                     uint32
	gcPauseMs                    float64
}

func cpuNs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return float64(ru.Utime.Nano() + ru.Stime.Nano())
}

// latPool pools one op kind's per-op latencies over the window's timed
// slices. Each sample is divided by its own slice's reference time before it
// joins the pool, so drift between slices cancels per sample and the
// percentiles are taken over the whole window: tens of thousands of samples,
// hundreds beyond the 99th percentile. A slice contributes at most
// poolPerSlice evenly spaced samples of the kind, which bounds memory
// without favouring any part of the slice.
type latPool struct {
	lat       []float64 // the current slice's latencies, ns
	norm, raw []float64
}

const poolPerSlice = 4096

func (p *latPool) closeSlice(refNs float64, keep bool) {
	if keep {
		stride := (len(p.lat) + poolPerSlice - 1) / poolPerSlice
		for i := 0; i < len(p.lat); i += stride {
			p.norm = append(p.norm, p.lat[i]/refNs)
			p.raw = append(p.raw, p.lat[i])
		}
	}
	p.lat = p.lat[:0]
}

// runner drives one stack with one workload's callers.
type runner struct {
	w       *workload
	or      *oracle
	callers []*caller
}

func newRunner(w *workload, or *oracle, seed int64, table []uint32) *runner {
	r := &runner{w: w, or: or}
	for c := 0; c < w.callers; c++ {
		r.callers = append(r.callers, &caller{st: newStream(w, seed, c), ref: newRefKernel(table, w.refLoads, c)})
	}
	return r
}

// each runs f for every caller, concurrently when there is more than one,
// and returns once all are done: the barrier between work and reference
// slices.
func (r *runner) each(f func(i int, c *caller)) {
	if len(r.callers) == 1 {
		f(0, r.callers[0])
		return
	}
	var wg sync.WaitGroup
	for i, c := range r.callers {
		wg.Add(1)
		go func(i int, c *caller) {
			defer wg.Done()
			f(i, c)
		}(i, c)
	}
	wg.Wait()
}

// refSlice runs one reference slice on every caller and returns the wall and
// CPU time of one reference iteration.
func (r *runner) refSlice() (wallNs, cpu float64) {
	iters := refItersPerSlice(r.w.refLoads)
	c0, t0 := cpuNs(), time.Now()
	r.each(func(_ int, c *caller) { c.ref.run(iters) })
	wall := float64(time.Since(t0))
	return wall / float64(iters), (cpuNs() - c0) / float64(iters*len(r.callers))
}

// window measures st: reference slice, then work and reference slices in
// alternation. Odd work slices time every op for the percentiles; even ones
// time only the slice for the cost figures.
func (r *runner) window(st *stack, o windowOpts) windowResult {
	var res windowResult
	var end func(op int32) error
	if st.dur != nil {
		end = st.dur.sealEpoch
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	var refWall, refCPU []float64
	var wallPerOp, cpuPerOp []float64 // every work slice
	var costed []bool                 // slices that feed the cost figures
	var rd, wr latPool
	add := func() {
		w, c := r.refSlice()
		refWall, refCPU = append(refWall, w), append(refCPU, c)
	}
	add()
	start := time.Now()
	for i := 0; ; i++ {
		// A time-boxed window still runs one slice of each kind.
		if o.pairs > 0 && i == o.pairs || o.pairs == 0 && i >= 2 && time.Since(start).Seconds() >= o.seconds {
			break
		}
		timed := i%2 == 1 || o.rec != nil
		// The first tenth of the window is warm-up: caches, branch
		// predictors and the Go heap are still settling.
		warm := o.pairs > 0 && i >= o.pairs/10 || o.pairs == 0 && time.Since(start).Seconds() >= o.seconds/10
		for _, c := range r.callers {
			c.prepare(r.w.sliceOps, r.or)
		}
		c0, t0 := cpuNs(), time.Now()
		r.each(func(ci int, c *caller) {
			var e func(op int32) error
			if ci == 0 {
				e = end
			}
			c.run(layerCalls[st.kind], st.targets[ci], timed, o.rec, t0, e)
		})
		wall, cpu := float64(time.Since(t0)), cpuNs()-c0
		add()
		refNs := (refWall[i] + refWall[i+1]) / 2

		ops := 0
		for _, c := range r.callers {
			ops += len(c.ops)
			res.failed += c.failed + c.verify(r.or)
			c.failed = 0
			for k := range c.ops {
				if c.ops[k].write {
					res.writes++
					res.writeBytes += int64(c.ops[k].blocks) * blockBytes
				}
				if timed {
					p := &rd
					if c.ops[k].write {
						p = &wr
					}
					p.lat = append(p.lat, float64(c.lat[k]))
				}
			}
		}
		res.attempted += ops
		res.workNs += wall
		if timed {
			rd.closeSlice(refNs, warm)
			wr.closeSlice(refNs, warm)
			if o.rec != nil {
				o.rec.drain(refNs)
			}
		}
		wallPerOp = append(wallPerOp, wall/float64(ops))
		cpuPerOp = append(cpuPerOp, cpu/float64(ops))
		costed = append(costed, warm && (!timed || o.rec != nil))
		res.pairs++
	}
	runtime.ReadMemStats(&ms1)

	pick := func(xs []float64) []float64 {
		var out []float64
		for i, x := range xs {
			if costed[i] {
				out = append(out, x)
			}
		}
		return out
	}
	res.costRef = median(pick(ratios(wallPerOp, refWall)))
	res.cpuRef = median(pick(ratios(cpuPerOp, refCPU)))
	res.readP50, res.readP95, res.readP99 = quantile(rd.norm, 0.5), quantile(rd.norm, 0.95), quantile(rd.norm, 0.99)
	res.writeP50, res.writeP95, res.writeP99 = quantile(wr.norm, 0.5), quantile(wr.norm, 0.95), quantile(wr.norm, 0.99)
	res.refIterUs = median(slices.Clone(refWall)) / 1e3
	res.rawOpsPerS = float64(res.attempted) / (res.workNs / 1e9)
	res.rawReadUs, res.rawWriteUs = median(rd.raw)/1e3, median(wr.raw)/1e3
	res.mallocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(max(res.attempted, 1))
	res.gcCycles = ms1.NumGC - ms0.NumGC
	res.gcPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	return res
}

// sweep reads the whole working set back through t in 64 KiB spans and
// returns how many blocks were read and how many the oracle rejects: the
// untimed end-of-workload check that no write was lost or misplaced.
func sweep(w *workload, or *oracle, t target) (blocks, bad int) {
	buf := make([]byte, 64<<10)
	vers := make([]uint32, 0, len(buf)/blockBytes)
	w.set.extents(w.region, func(base, n uint64) {
		for off := uint64(0); off < n; off += uint64(len(buf)) {
			span := buf[:min(uint64(len(buf)), n-off)]
			nb := len(span) / blockBytes
			blocks += nb
			if err := t.read(base+off, span); err != nil {
				bad += nb
				continue
			}
			vers = or.versions(vers[:0], base+off, nb)
			for b := 0; b < nb; b++ {
				if !or.matches(span[b*blockBytes:(b+1)*blockBytes], base+off+uint64(b*blockBytes), vers[b:b+1]) {
					bad++
				}
			}
		}
	})
	return blocks, bad
}

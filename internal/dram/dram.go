// Package dram implements a DDR3-style DRAM timing model — the DRAMSim2
// substitute of this reproduction.
//
// The model tracks, per channel, a set of banks with open-row state and a
// shared data bus, and prices each 64-byte access with standard DDR timing
// components: row-activate (tRCD), column access (CL / CWL), precharge
// (tRP), row-cycle minimum (tRC), and burst occupancy. This is coarser than
// DRAMSim2 (no command-bus contention, no refresh, FCFS per bank), but it
// preserves exactly what the paper's results depend on: every extra
// metadata transaction (counter read, tree-node read, MAC read) pays a
// realistic, contention-sensitive DRAM latency, and removing transactions
// (MAC-in-ECC) saves that latency and the bus occupancy.
//
// The 72-bit ECC lane of Figure 2 is modeled structurally: a data burst
// carries its block's 8 ECC bytes at no additional cost, so a controller
// using MAC-in-ECC simply issues no MAC transaction at all.
package dram

import "fmt"

// Config describes the DRAM geometry and timing in memory-clock cycles.
type Config struct {
	// Channels is the number of independent channels (Table 1: 4).
	Channels int
	// Banks is the number of banks per channel.
	Banks int
	// RowBytes is the row-buffer (page) size per bank.
	RowBytes int

	// CL is the CAS (read column) latency.
	CL int
	// CWL is the CAS write latency.
	CWL int
	// TRCD is the row-to-column delay (activate latency).
	TRCD int
	// TRP is the precharge latency.
	TRP int
	// TRC is the minimum activate-to-activate interval for one bank.
	TRC int
	// Burst is the data-bus occupancy of one 64-byte transfer
	// (BL8 on a 64-bit bus = 4 memory clocks).
	Burst int

	// WriteBufferDepth enables a read-priority write buffer of the given
	// depth per channel: writes acknowledge immediately and drain when
	// the bus is otherwise idle, as real controllers schedule them. A
	// read arriving at a full buffer first waits for a forced drain.
	// 0 keeps the simple write-through model.
	WriteBufferDepth int

	// TREFI is the all-bank refresh interval in memory cycles
	// (DDR3: 7.8us = 6240 cycles at 800MHz). 0 disables refresh.
	TREFI int
	// TRFC is the refresh cycle time during which a channel's banks are
	// unavailable (DDR3 4Gb: ~208 cycles).
	TRFC int

	// CPUCyclesPerDRAMCycle converts to core cycles (3.2GHz core over
	// 800MHz DDR3-1600 memory clock = 4).
	CPUCyclesPerDRAMCycle int

	// Energy-per-event constants in picojoules, for the §4.1 energy-
	// efficiency accounting (typical DDR3 values derived from IDD
	// currents; zero disables energy tracking). Each row activation
	// includes its precharge; bursts are per 64-byte transfer.
	EnergyActivatePJ   uint64
	EnergyReadBurstPJ  uint64
	EnergyWriteBurstPJ uint64
	EnergyRefreshPJ    uint64
}

// DDR3_1600 returns the timing used in the paper's Table 1 setup:
// DDR3-1600 (800MHz memory clock), CL-tRCD-tRP = 11-11-11, with the stated
// number of channels and a 3.2GHz core clock.
func DDR3_1600(channels int) Config {
	return Config{
		Channels:              channels,
		Banks:                 8,
		RowBytes:              8 << 10,
		CL:                    11,
		CWL:                   8,
		TRCD:                  11,
		TRP:                   11,
		TRC:                   39,
		Burst:                 4,
		TREFI:                 6240,
		TRFC:                  208,
		CPUCyclesPerDRAMCycle: 4,
		// DDR3-1600 ballpark: ~20nJ per ACT+PRE, ~4nJ per RD burst,
		// ~4.5nJ per WR burst, ~120nJ per all-bank refresh.
		EnergyActivatePJ:   20000,
		EnergyReadBurstPJ:  4000,
		EnergyWriteBurstPJ: 4500,
		EnergyRefreshPJ:    120000,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0:
		return fmt.Errorf("dram: channels must be positive")
	case c.Banks <= 0:
		return fmt.Errorf("dram: banks must be positive")
	case c.RowBytes < 64 || c.RowBytes&(c.RowBytes-1) != 0:
		return fmt.Errorf("dram: row size %d invalid", c.RowBytes)
	case c.CL <= 0 || c.CWL <= 0 || c.TRCD <= 0 || c.TRP <= 0 || c.TRC <= 0 || c.Burst <= 0:
		return fmt.Errorf("dram: timing parameters must be positive")
	case c.TREFI < 0 || c.TRFC < 0:
		return fmt.Errorf("dram: refresh parameters must be non-negative")
	case c.TREFI > 0 && c.TRFC >= c.TREFI:
		return fmt.Errorf("dram: tRFC %d must be below tREFI %d", c.TRFC, c.TREFI)
	case c.CPUCyclesPerDRAMCycle <= 0:
		return fmt.Errorf("dram: clock ratio must be positive")
	}
	return nil
}

// Stats counts DRAM events.
type Stats struct {
	Reads     uint64
	Writes    uint64
	RowHits   uint64
	RowMisses uint64 // conflict: another row was open
	RowEmpty  uint64 // bank was precharged
	// BusBusyDRAMCycles accumulates data-bus occupancy across channels.
	BusBusyDRAMCycles uint64
	// TotalReadLatency accumulates read latency in CPU cycles, for
	// average-latency reporting.
	TotalReadLatency uint64
	// Refreshes counts all-bank refresh operations issued.
	Refreshes uint64
	// RefreshStallCycles accumulates memory cycles requests spent waiting
	// out refresh windows.
	RefreshStallCycles uint64
	// WriteDrains counts buffered writes serviced; WriteDrainsForced are
	// the subset that had to run at request time because the buffer was
	// full.
	WriteDrains       uint64
	WriteDrainsForced uint64
	// EnergyPJ accumulates DRAM dynamic energy in picojoules
	// (activations, bursts, refreshes) when the config's energy
	// constants are set.
	EnergyPJ uint64
}

// EnergyMJ returns accumulated DRAM energy in millijoules.
func (s Stats) EnergyMJ() float64 { return float64(s.EnergyPJ) / 1e9 }

// AvgReadLatency returns the mean read latency in CPU cycles.
func (s Stats) AvgReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.TotalReadLatency) / float64(s.Reads)
}

type bank struct {
	rowOpen      bool
	openRow      uint64
	readyCycle   uint64 // earliest next column command
	lastActivate uint64
	hasActivated bool
}

type channel struct {
	banks       []bank
	busFreeAt   uint64 // memory-clock cycle the data bus frees up
	nextRefresh uint64 // memory-clock cycle of the next all-bank refresh
	writeQueue  []queuedWrite
}

type queuedWrite struct {
	addr     uint64
	enqueued uint64 // memory-clock cycle of arrival
}

// Memory is a multi-channel DRAM timing model. Not safe for concurrent use.
type Memory struct {
	cfg   Config
	chans []channel
	stats Stats

	blocksPerRow uint64
}

// New builds a Memory from a validated Config.
func New(cfg Config) (*Memory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Memory{cfg: cfg, blocksPerRow: uint64(cfg.RowBytes / 64)}
	m.chans = make([]channel, cfg.Channels)
	for i := range m.chans {
		m.chans[i].banks = make([]bank, cfg.Banks)
		m.chans[i].nextRefresh = uint64(cfg.TREFI)
	}
	return m, nil
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config) *Memory {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the memory geometry.
func (m *Memory) Config() Config { return m.cfg }

// mapAddr decomposes a byte address into channel, bank, and row.
// Consecutive 64-byte blocks interleave across channels (maximizing
// channel-level parallelism for streams), then across row-sized chunks
// over banks.
func (m *Memory) mapAddr(addr uint64) (ch, bk int, row uint64) {
	blk := addr / 64
	ch = int(blk % uint64(m.cfg.Channels))
	within := blk / uint64(m.cfg.Channels)
	rowIdx := within / m.blocksPerRow
	bk = int(rowIdx % uint64(m.cfg.Banks))
	row = rowIdx / uint64(m.cfg.Banks)
	return ch, bk, row
}

// Access issues one 64-byte transaction at CPU cycle `cpuNow` and returns
// the CPU cycle at which the transfer completes. With a write buffer
// configured, writes acknowledge immediately and drain in the background;
// reads get bus priority (the standard controller policy that keeps
// metadata writebacks and re-encryption streams off the critical path).
func (m *Memory) Access(cpuNow uint64, addr uint64, write bool) uint64 {
	cfg := m.cfg
	now := cpuNow / uint64(cfg.CPUCyclesPerDRAMCycle)
	chIdx, _, _ := m.mapAddr(addr)
	ch := &m.chans[chIdx]

	if cfg.WriteBufferDepth > 0 {
		m.lazyDrain(ch, now)
		if write {
			if len(ch.writeQueue) >= cfg.WriteBufferDepth {
				// Full: force-drain the oldest to make room.
				m.serviceOldestWrite(ch, now)
				m.stats.WriteDrainsForced++
			}
			ch.writeQueue = append(ch.writeQueue, queuedWrite{addr: addr, enqueued: now})
			m.stats.Writes++
			return cpuNow // posted write: immediate ack
		}
	}

	done := m.serviceAt(ch, now, addr, write)
	doneCPU := done * uint64(cfg.CPUCyclesPerDRAMCycle)
	if write {
		m.stats.Writes++
	} else {
		m.stats.Reads++
		m.stats.TotalReadLatency += doneCPU - cpuNow
	}
	return doneCPU
}

// lazyDrain services queued writes that could have used the bus before
// `now` (the channel was idle), in arrival order.
func (m *Memory) lazyDrain(ch *channel, now uint64) {
	for len(ch.writeQueue) > 0 && ch.busFreeAt < now {
		m.serviceOldestWrite(ch, now)
	}
}

// serviceOldestWrite pops and performs the channel's oldest queued write.
func (m *Memory) serviceOldestWrite(ch *channel, now uint64) {
	w := ch.writeQueue[0]
	ch.writeQueue = ch.writeQueue[1:]
	start := w.enqueued
	if ch.busFreeAt > start {
		start = ch.busFreeAt
	}
	if start > now {
		start = now // forced drains happen at request time
	}
	m.serviceAt(ch, start, w.addr, true)
	m.stats.WriteDrains++
}

// serviceAt runs one transaction through the bank state machine and the
// shared bus, returning the completion memory cycle.
func (m *Memory) serviceAt(ch *channel, now uint64, addr uint64, write bool) uint64 {
	cfg := m.cfg
	_, bkIdx, row := m.mapAddr(addr)
	b := &ch.banks[bkIdx]

	start := now
	if b.readyCycle > start {
		start = b.readyCycle
	}
	start = m.applyRefresh(ch, start)

	var colReady uint64
	switch {
	case b.rowOpen && b.openRow == row:
		m.stats.RowHits++
		colReady = start
	case b.rowOpen:
		m.stats.RowMisses++
		// Precharge, then activate (respecting tRC from the last
		// activate), then tRCD.
		act := start + uint64(cfg.TRP)
		if b.hasActivated && b.lastActivate+uint64(cfg.TRC) > act {
			act = b.lastActivate + uint64(cfg.TRC)
		}
		b.lastActivate, b.hasActivated = act, true
		colReady = act + uint64(cfg.TRCD)
		m.stats.EnergyPJ += cfg.EnergyActivatePJ
	default:
		m.stats.RowEmpty++
		act := start
		if b.hasActivated && b.lastActivate+uint64(cfg.TRC) > act {
			act = b.lastActivate + uint64(cfg.TRC)
		}
		b.lastActivate, b.hasActivated = act, true
		colReady = act + uint64(cfg.TRCD)
		m.stats.EnergyPJ += cfg.EnergyActivatePJ
	}
	b.rowOpen, b.openRow = true, row

	cas := uint64(cfg.CL)
	if write {
		cas = uint64(cfg.CWL)
		m.stats.EnergyPJ += cfg.EnergyWriteBurstPJ
	} else {
		m.stats.EnergyPJ += cfg.EnergyReadBurstPJ
	}
	dataStart := colReady + cas
	if ch.busFreeAt > dataStart {
		dataStart = ch.busFreeAt
	}
	done := dataStart + uint64(cfg.Burst)
	ch.busFreeAt = done
	b.readyCycle = colReady + uint64(cfg.Burst) // next column command

	m.stats.BusBusyDRAMCycles += uint64(cfg.Burst)
	return done
}

// applyRefresh models DDR all-bank refresh: every tREFI the channel spends
// tRFC unavailable with all rows closed. A request landing inside a refresh
// window waits it out; long-idle channels catch up in O(1).
func (m *Memory) applyRefresh(ch *channel, start uint64) uint64 {
	trefi, trfc := uint64(m.cfg.TREFI), uint64(m.cfg.TRFC)
	if trefi == 0 {
		return start
	}
	if start < ch.nextRefresh {
		return start
	}
	// Count refreshes due by `start` without iterating.
	missed := (start-ch.nextRefresh)/trefi + 1
	m.stats.Refreshes += missed
	m.stats.EnergyPJ += missed * m.cfg.EnergyRefreshPJ
	last := ch.nextRefresh + (missed-1)*trefi
	ch.nextRefresh = last + trefi
	// Refresh closes every row in the channel.
	for i := range ch.banks {
		ch.banks[i].rowOpen = false
	}
	if start < last+trfc {
		m.stats.RefreshStallCycles += last + trfc - start
		start = last + trfc
	}
	return start
}

// Stats returns cumulative event counts.
func (m *Memory) Stats() Stats { return m.stats }

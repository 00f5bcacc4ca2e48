// Command memserved serves an authenticated, encrypted memory region over
// TCP using the internal/wire protocol. It is the daemon half of the
// client package: readers and writers connect, pipeline block requests, and
// get the engine's integrity verdicts (MAC_FAIL, QUARANTINED, RECOVERED,
// OVERFLOW_SWEPT) as first-class wire statuses.
//
// Serve a 64MB region on the default port:
//
//	memserved -dev-key -addr :7348
//
// SIGINT/SIGTERM trigger a graceful drain: in-flight requests complete,
// connections close, and the region reaches its FlushAll quiescent point
// before the process exits.
//
// The -connect mode is a smoke client (used by CI): it dials a running
// daemon, pushes pipelined writes, reads them back through the verifying
// path, flushes, and exits non-zero on any mismatch.
package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"authmem"
	"authmem/client"
	"authmem/cluster"
	"authmem/internal/ecc"
	"authmem/internal/server"
	"authmem/internal/wire"
)

func main() {
	var (
		addr      = flag.String("addr", ":7348", "TCP listen address (serve mode) ")
		nodeID    = flag.String("node-id", "", "stable node identity reported in the HELLO handshake (cluster placement hashes it; default: random)")
		size      = flag.Uint64("size", 64<<20, "protected region size in bytes")
		shards    = flag.Int("shards", 4, "shard count (power of two)")
		scheme    = flag.String("scheme", "delta", "counter scheme: delta, split, or mono")
		eccCodec  = flag.String("ecc", "", "ECC codec: macsecded, secded, or residue (non-MAC codecs imply inline MAC placement; default: $AUTHMEM_ECC_CODEC, then macsecded)")
		keyHex    = flag.String("key-hex", "", "device key, hex-encoded (40 bytes)")
		devKey    = flag.Bool("dev-key", false, "use a fixed all-zeros development key (NOT for real data)")
		inflight  = flag.Int("inflight", 64, "per-connection in-flight request cap")
		workers   = flag.Int("workers", 0, "engine worker pool size (0 = GOMAXPROCS)")
		timeout   = flag.Duration("timeout", 2*time.Second, "per-request queue deadline (0 disables)")
		drain     = flag.Duration("drain-grace", 200*time.Millisecond, "drain window for pipelined requests at shutdown")
		sweep     = flag.Bool("sweep-status", false, "report counter-overflow sweeps as OVERFLOW_SWEPT")
		statsEach = flag.Duration("stats-every", 0, "log a stats snapshot at this interval (0 disables)")
		walDir    = flag.String("wal", "", "durable mode: directory for base snapshot + sealed delta logs (empty disables)")
		ckptEvery = flag.Duration("checkpoint-interval", 5*time.Second, "durable mode: background delta-epoch interval")
		foldBytes = flag.Int64("fold-bytes", 0, "durable mode: fold logs into a new base beyond this many bytes (0 = base/4)")

		connect    = flag.String("connect", "", "smoke-client mode: dial this address instead of serving")
		smokeConns = flag.Int("smoke-conns", 2, "smoke client: pooled connections")
		smokeOps   = flag.Int("smoke-ops", 256, "smoke client: write+read pairs per worker")

		clusterConnect = flag.String("cluster-connect", "", "cluster smoke mode: comma-separated name=addr members to stripe across (name must match each node's -node-id)")
		clusterPhase   = flag.String("cluster-phase", "write", "cluster smoke phase: write (populate+verify+attest) or verify (re-read the write phase's pattern, tolerating a downed node)")
	)
	flag.Parse()
	log.SetPrefix("memserved: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	if *clusterConnect != "" {
		if err := runClusterSmoke(*clusterConnect, *clusterPhase, *smokeOps); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *connect != "" {
		if err := runSmoke(*connect, *smokeConns, *smokeOps); err != nil {
			log.Fatal(err)
		}
		return
	}

	key, err := resolveKey(*keyHex, *devKey)
	if err != nil {
		log.Fatal(err)
	}
	var (
		backend server.Backend
		desc    string
		store   *durableStore
	)
	if *walDir != "" {
		// Durable mode always runs the sharded backend (a 1-shard region
		// is valid) so the checkpoint machinery has one code path.
		cfg, eccDesc, err := buildMemConfig(*size, *scheme, *eccCodec, key)
		if err != nil {
			log.Fatal(err)
		}
		if *shards < 1 {
			log.Fatalf("-shards: %d", *shards)
		}
		store, err = openDurable(cfg, *shards, durableOptions{
			dir:       *walDir,
			interval:  *ckptEvery,
			foldBytes: *foldBytes,
			logf:      log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		backend = store.mem
		desc = fmt.Sprintf("%dMB %s region across %d shards (%s ecc), durable in %s every %v",
			*size>>20, *scheme, *shards, eccDesc, *walDir, *ckptEvery)
	} else {
		backend, desc, err = buildBackend(*size, *shards, *scheme, *eccCodec, key)
		if err != nil {
			log.Fatal(err)
		}
	}

	cfg := server.Config{
		Backend:        backend,
		NodeID:         *nodeID,
		MaxInflight:    *inflight,
		Workers:        *workers,
		RequestTimeout: *timeout,
		DrainGrace:     *drain,
		SweepStatus:    *sweep,
		Logf:           log.Printf,
	}
	if *timeout == 0 {
		cfg.RequestTimeout = -1
	}
	if *statsEach > 0 {
		cfg.MetricsInterval = *statsEach
		cfg.OnMetrics = func(snap wire.StatsSnapshot) {
			log.Printf("stats: reads=%d writes=%d blocks_r=%d blocks_w=%d busy=%d macfail=%d quarantined=%d recovered=%d conns=%d",
				snap.Server.ReadOps, snap.Server.WriteOps,
				snap.Server.BlocksRead, snap.Server.BlocksWritten,
				snap.Server.BusyRejected, snap.Server.MACFails,
				snap.Server.Quarantined, snap.Server.Recovered,
				snap.Server.ConnsOpened-snap.Server.ConnsClosed)
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe(*addr) }()
	var stopCkpt chan struct{}
	if store != nil {
		stopCkpt = make(chan struct{})
		go store.run(stopCkpt)
	}
	log.Printf("serving %s on %s (%d-byte blocks, protocol v%d)", desc, *addr, wire.BlockBytes, wire.Version)

	select {
	case sig := <-sigCh:
		log.Printf("%v: draining...", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil && err != server.ErrServerClosed {
			log.Fatalf("serve: %v", err)
		}
		if store != nil {
			// Traffic is quiesced; seal what the drain left dirty so the
			// manifest pins the exact final state.
			close(stopCkpt)
			if err := store.close(); err != nil {
				log.Fatalf("final checkpoint: %v", err)
			}
			log.Printf("final epoch sealed; manifest pinned")
		}
		log.Printf("drained to quiescent point; bye")
	case err := <-serveErr:
		log.Fatalf("serve: %v", err)
	}
}

func resolveKey(keyHex string, devKey bool) ([]byte, error) {
	switch {
	case keyHex != "":
		key, err := hex.DecodeString(keyHex)
		if err != nil {
			return nil, fmt.Errorf("-key-hex: %w", err)
		}
		if len(key) != authmem.KeySize {
			return nil, fmt.Errorf("-key-hex: got %d bytes, want %d", len(key), authmem.KeySize)
		}
		return key, nil
	case devKey:
		return make([]byte, authmem.KeySize), nil
	default:
		return nil, fmt.Errorf("a key is required: pass -key-hex (%d bytes) or -dev-key", authmem.KeySize)
	}
}

// buildMemConfig resolves the flag surface into an authmem.Config plus the
// human-readable codec label used in the serve banner.
func buildMemConfig(size uint64, scheme, eccCodec string, key []byte) (authmem.Config, string, error) {
	cfg := authmem.DefaultConfig(size)
	cfg.Key = key
	switch scheme {
	case "delta":
		cfg.Scheme = authmem.DeltaEncoding
	case "split":
		cfg.Scheme = authmem.SplitCounter
	case "mono":
		cfg.Scheme = authmem.Monolithic
	default:
		return cfg, "", fmt.Errorf("-scheme: unknown scheme %q (want delta, split, or mono)", scheme)
	}
	eccDesc := "macsecded"
	if eccCodec != "" {
		// The codec decides the placement: a block codec (secded, residue)
		// stores check bytes beside inline MAC tags, macsecded carries the
		// MAC inside the ECC lane.
		cod, err := ecc.Lookup(eccCodec)
		if err != nil {
			return cfg, "", fmt.Errorf("-ecc: %w", err)
		}
		cfg.ECCCodec = eccCodec
		if cod.CarriesMAC() {
			cfg.Placement = authmem.MACInECC
		} else {
			cfg.Placement = authmem.InlineMAC
		}
		eccDesc = cod.Name()
	}
	return cfg, eccDesc, nil
}

func buildBackend(size uint64, shards int, scheme, eccCodec string, key []byte) (server.Backend, string, error) {
	cfg, eccDesc, err := buildMemConfig(size, scheme, eccCodec, key)
	if err != nil {
		return nil, "", err
	}
	m, err := authmem.NewSharded(cfg, shards)
	if err != nil {
		return nil, "", err
	}
	return m, fmt.Sprintf("%dMB %s region across %d shards (%s ecc)", size>>20, scheme, shards, eccDesc), nil
}

// runClusterSmoke is the CI cluster smoke client. The write phase stripes a
// deterministic pattern across the members, reads every span back through
// the quorum path, and attests the combined root. The verify phase re-reads
// the same pattern — typically after CI has killed one member — and passes
// as long as every quorum read still returns the exact pattern, degraded or
// not; any wrong byte or unresolved read fails it.
func runClusterSmoke(spec, phase string, ops int) error {
	var nodes []cluster.Node
	for _, part := range strings.Split(spec, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || addr == "" {
			return fmt.Errorf("-cluster-connect: %q is not name=addr", part)
		}
		nodes = append(nodes, cluster.Node{Name: name, Addr: addr})
	}
	const (
		region     = 8 << 20
		spanBlocks = 8
	)
	cl, err := cluster.New(cluster.Options{
		Nodes:  nodes,
		Size:   region,
		Client: client.Options{Conns: 2, MaxInflight: 32},
		// The verify phase runs after CI killed a member: reads must
		// still verify through the surviving quorum.
		AllowDead: phase == "verify",
	})
	if err != nil {
		return err
	}
	defer cl.Close()

	span := spanBlocks * wire.BlockBytes
	if ops*span > region {
		ops = region / span
	}
	pattern := func(i int, buf []byte) {
		for j := range buf {
			buf[j] = byte(i*131 + j*7 + 5)
		}
	}
	want := make([]byte, span)
	got := make([]byte, span)
	start := time.Now()

	if phase == "write" {
		for i := 0; i < ops; i++ {
			pattern(i, want)
			if _, err := cl.Write(uint64(i*span), want); err != nil {
				return fmt.Errorf("cluster write %d: %w", i, err)
			}
		}
	}
	var degraded, outvoted int
	for i := 0; i < ops; i++ {
		pattern(i, want)
		info, err := cl.Read(uint64(i*span), got)
		if err != nil {
			return fmt.Errorf("cluster read %d: %w", i, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("cluster read %d: payload mismatch (verdict %s)", i, info.Verdict)
		}
		if info.Degraded {
			degraded++
		}
		if info.Verdict != cluster.VerdictClean {
			outvoted++
		}
	}
	switch phase {
	case "write":
		att, err := cl.Attest()
		if err != nil {
			return fmt.Errorf("attest: %w", err)
		}
		log.Printf("cluster smoke OK (%s): %d spans across %d nodes in %v; combined root %x",
			phase, ops, len(nodes), time.Since(start).Round(time.Millisecond), att.Combined[:8])
	case "verify":
		st := cl.Stats()
		log.Printf("cluster smoke OK (%s): %d spans verified in %v; degraded=%d outvoted=%d repairs=%d",
			phase, ops, time.Since(start).Round(time.Millisecond), degraded, outvoted, st.Repairs)
	default:
		return fmt.Errorf("-cluster-phase: %q (want write or verify)", phase)
	}
	return nil
}

// runSmoke is the CI smoke client: concurrent workers pipeline writes and
// verifying reads over a pooled connection, then flush and fetch stats.
func runSmoke(addr string, conns, ops int) error {
	c, err := client.New(client.Options{Addr: addr, Conns: conns, MaxInflight: 32})
	if err != nil {
		return fmt.Errorf("dial %s: %w", addr, err)
	}
	defer c.Close()

	const workers = 4
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, wire.BlockBytes)
			data := make([]byte, wire.BlockBytes)
			base := uint64(w) * 1 << 20
			for i := 0; i < ops; i++ {
				addr := base + uint64(i%1024)*wire.BlockBytes
				for j := range data {
					data[j] = byte(w*131 + i + j)
				}
				if _, err := c.Write(addr, data); err != nil {
					errCh <- fmt.Errorf("worker %d write %#x: %w", w, addr, err)
					return
				}
				if _, err := c.Read(addr, buf); err != nil {
					errCh <- fmt.Errorf("worker %d read %#x: %w", w, addr, err)
					return
				}
				for j := range buf {
					if buf[j] != data[j] {
						errCh <- fmt.Errorf("worker %d: byte %d mismatch at %#x", w, j, addr)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}
	if err := c.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	if _, err := c.RootDigest(); err != nil {
		return fmt.Errorf("root digest: %w", err)
	}
	snap, err := c.ServerStats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	total := workers * ops * 2
	log.Printf("smoke OK: %d ops in %v; server ledger: reads=%d writes=%d busy=%d macfail=%d",
		total, time.Since(start).Round(time.Millisecond),
		snap.Server.ReadOps, snap.Server.WriteOps,
		snap.Server.BusyRejected, snap.Server.MACFails)
	return nil
}

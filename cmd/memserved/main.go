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
// before the process exits. daemon_test.go drives the built binary through
// exactly that with the public client and cluster packages.
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"authmem"
	"authmem/internal/ecc"
	"authmem/internal/server"
	"authmem/internal/wire"
)

func main() {
	var (
		addr      = flag.String("addr", ":7348", "TCP listen address")
		nodeID    = flag.String("node-id", "", "stable node identity reported in the HELLO handshake (cluster placement hashes it; default: random)")
		size      = flag.Uint64("size", 64<<20, "protected region size in bytes")
		shards    = flag.Int("shards", 4, "shard count (power of two)")
		scheme    = flag.String("scheme", "delta", "counter scheme: delta, split, or mono")
		eccCodec  = flag.String("ecc", "", "ECC codec: macsecded, secded, or residue (non-MAC codecs imply inline MAC placement; default macsecded)")
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
	)
	flag.Parse()
	log.SetPrefix("memserved: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

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
	// Bind before announcing: the log line carries the bound address, so
	// -addr :0 reports its port and a failed bind never says "serving".
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	var stopCkpt chan struct{}
	if store != nil {
		stopCkpt = make(chan struct{})
		go store.run(stopCkpt)
	}
	log.Printf("serving %s on %s (%d-byte blocks, protocol v%d)", desc, ln.Addr(), wire.BlockBytes, wire.Version)

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

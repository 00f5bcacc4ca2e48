// Command memserved serves an authenticated, encrypted memory region over
// TCP using the internal/wire protocol. It is the daemon half of the
// client package: readers and writers connect, pipeline block requests, and
// get the engine's integrity verdicts (MAC_FAIL, QUARANTINED, RECOVERED) as
// first-class wire statuses. An idle connection's read or write runs on its
// reader goroutine; everything else waits in the connection's queue for one
// of a fixed pool of max(2, GOMAXPROCS) workers, so the daemon has no
// concurrency flag.
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
		timeout   = flag.Duration("timeout", 2*time.Second, "per-request queue deadline (0 disables)")
		drain     = flag.Duration("drain-grace", 200*time.Millisecond, "drain window for pipelined requests at shutdown")
		statsEach = flag.Duration("stats-every", 0, "log a stats line at this interval (0 disables)")
		walDir    = flag.String("wal", "", "durable mode: directory for base snapshot + sealed delta logs (empty disables)")
		ckptEvery = flag.Duration("checkpoint-interval", 5*time.Second, "durable mode: background delta-epoch interval")
	)
	flag.Parse()
	log.SetPrefix("memserved: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	key, err := resolveKey(*keyHex, *devKey)
	if err != nil {
		log.Fatal(err)
	}
	memCfg, eccDesc, err := buildMemConfig(*size, *scheme, *eccCodec, key)
	if err != nil {
		log.Fatal(err)
	}
	desc := fmt.Sprintf("%dMB %s region across %d shards (%s ecc)", *size>>20, *scheme, *shards, eccDesc)
	var (
		backend server.Backend
		store   *authmem.Durable
	)
	if *walDir != "" {
		if store, err = openStore(*walDir, memCfg, *shards); err != nil {
			log.Fatal(err)
		}
		backend = store
		desc += fmt.Sprintf(", durable in %s every %v", *walDir, *ckptEvery)
	} else if backend, err = authmem.NewSharded(memCfg, *shards); err != nil {
		log.Fatal(err)
	}

	cfg := server.Config{
		Backend:         backend,
		NodeID:          *nodeID,
		MaxInflight:     *inflight,
		RequestTimeout:  *timeout,
		DrainGrace:      *drain,
		MetricsInterval: *statsEach,
		Logf:            log.Printf,
	}
	if *timeout == 0 {
		cfg.RequestTimeout = -1
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
	var stopSeals func()
	if store != nil {
		stopSeals = runSeals(store, *ckptEvery)
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
			stopSeals()
			if err := store.Close(); err != nil {
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

// openStore opens the durable region in dir (-wal) and logs what recovery
// found.
func openStore(dir string, cfg authmem.Config, shards int) (*authmem.Durable, error) {
	store, reports, err := authmem.OpenDurable(dir, cfg, shards)
	if err != nil {
		return nil, err
	}
	if reports == nil {
		log.Printf("durable: no manifest in %s, starting fresh", dir)
	} else {
		for i, rep := range reports {
			if rep.Status != authmem.RecoveryClean || uint64(rep.Epochs) > store.Pinned[i] {
				log.Printf("durable: shard %d: %s, %d epochs (%d pinned), %d groups, %d dropped %s",
					i, rep.Status, rep.Epochs, store.Pinned[i], rep.Groups, rep.Dropped, rep.Reason)
			}
		}
		log.Printf("durable: recovered %d shards to verified roots", len(reports))
	}
	logFold(store.Opened)
	return store, nil
}

// logFold logs why a fold happened, the generation it wrote and its size.
func logFold(rep authmem.SealReport) {
	log.Printf("durable: %s; checkpointed generation %d (%d bytes base)", rep.FoldReason, rep.Generation, rep.BaseBytes)
}

// runSeals seals an epoch every interval (-checkpoint-interval) until the
// returned stop is called; stop returns once the loop has exited.
func runSeals(store *authmem.Durable, interval time.Duration) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				rep, err := store.Seal()
				switch {
				case err != nil:
					log.Printf("durable: checkpoint epoch failed: %v", err)
				case rep.FoldReason != "":
					logFold(rep)
				case rep.Groups > 0:
					log.Printf("durable: epoch sealed (%d dirty groups, logs %d bytes)", rep.Groups, rep.LogBytes)
				}
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

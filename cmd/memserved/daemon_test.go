package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"authmem/client"
	"authmem/cluster"
	"authmem/internal/wire"
)

// TestDaemonBinary builds memserved and drives the real process from outside
// with the public client and cluster packages. It asserts what no in-process
// test can: the bound address is announced, SIGTERM drains to exit 0, a
// durable directory carries the data across a process restart, and a quorum
// survives kill -9 of a member. Skipped under -short (it pays a build).
func TestDaemonBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon exec test")
	}
	bin := filepath.Join(t.TempDir(), "memserved")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	t.Run("single", func(t *testing.T) {
		d := startDaemon(t, bin, "-size", "16777216", "-shards", "1")
		c := dial(t, d.addr)
		writeSpans(t, 64, func(addr uint64, p []byte) error { _, err := c.Write(addr, p); return err })
		readSpans(t, 64, func(addr uint64, p []byte) error { _, err := c.Read(addr, p); return err })
		if err := c.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		if _, err := c.RootDigest(); err != nil {
			t.Fatalf("root digest: %v", err)
		}
		snap, err := c.ServerStats()
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		if s := snap.Server; s.WriteOps == 0 || s.ReadOps == 0 || s.MACFails != 0 {
			t.Fatalf("server ledger: %+v", s)
		}
		if log := d.terminate(t); !strings.Contains(log, "drained to quiescent point") {
			t.Fatalf("no drain line in:\n%s", log)
		}
	})

	t.Run("durable", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "wal")
		args := []string{"-size", "16777216", "-wal", dir, "-checkpoint-interval", "100ms"}
		d := startDaemon(t, bin, args...)
		c := dial(t, d.addr)
		writeSpans(t, 64, func(addr uint64, p []byte) error { _, err := c.Write(addr, p); return err })
		if log := d.terminate(t); !strings.Contains(log, "manifest pinned") {
			t.Fatalf("no final-epoch line in:\n%s", log)
		}
		if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); err != nil {
			t.Fatalf("no manifest after SIGTERM: %v", err)
		}

		d = startDaemon(t, bin, args...)
		c = dial(t, d.addr)
		readSpans(t, 64, func(addr uint64, p []byte) error { _, err := c.Read(addr, p); return err })
		d.terminate(t)
	})

	t.Run("cluster", func(t *testing.T) {
		var (
			nodes   []cluster.Node
			daemons []*daemon
		)
		for _, name := range []string{"n0", "n1", "n2"} {
			d := startDaemon(t, bin, "-size", "16777216", "-node-id", name)
			daemons = append(daemons, d)
			nodes = append(nodes, cluster.Node{Name: name, Addr: d.addr})
		}
		cl, err := cluster.New(cluster.Options{Nodes: nodes, Size: 8 << 20, Client: client.Options{Conns: 2}})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		writeSpans(t, 128, func(addr uint64, p []byte) error { _, err := cl.Write(addr, p); return err })
		readSpans(t, 128, func(addr uint64, p []byte) error { _, err := cl.Read(addr, p); return err })
		if _, err := cl.Attest(); err != nil {
			t.Fatalf("attest: %v", err)
		}

		daemons[2].kill()
		degraded := 0
		readSpans(t, 128, func(addr uint64, p []byte) error {
			info, err := cl.Read(addr, p)
			if info.Degraded {
				degraded++
			}
			return err
		})
		if degraded == 0 {
			t.Fatal("a member was killed but no quorum read reported Degraded")
		}
		daemons[0].terminate(t)
		daemons[1].terminate(t)
	})
}

const spanBytes = 8 * wire.BlockBytes

func spanPattern(i int, buf []byte) {
	for j := range buf {
		buf[j] = byte(i*131 + j*7 + 5)
	}
}

func writeSpans(t *testing.T, n int, write func(addr uint64, p []byte) error) {
	t.Helper()
	buf := make([]byte, spanBytes)
	for i := 0; i < n; i++ {
		spanPattern(i, buf)
		if err := write(uint64(i*spanBytes), buf); err != nil {
			t.Fatalf("write span %d: %v", i, err)
		}
	}
}

// readSpans requires every span to read back as writeSpans left it.
func readSpans(t *testing.T, n int, read func(addr uint64, p []byte) error) {
	t.Helper()
	got, want := make([]byte, spanBytes), make([]byte, spanBytes)
	for i := 0; i < n; i++ {
		spanPattern(i, want)
		if err := read(uint64(i*spanBytes), got); err != nil {
			t.Fatalf("read span %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("span %d read back wrong bytes", i)
		}
	}
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.New(client.Options{Addr: addr, Conns: 2})
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// daemon is one running memserved process.
type daemon struct {
	cmd  *exec.Cmd
	addr string       // bound address, from the "serving ... on" line
	log  *servingLog  // everything the process logged
	done <-chan error // cmd.Wait's result
}

// startDaemon launches bin on an ephemeral port and returns once it has
// announced the bound address. The process is killed at test end if the
// test did not stop it.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	log := &servingLog{addr: make(chan string, 1)}
	cmd := exec.Command(bin, append([]string{"-dev-key", "-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = log
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	d := &daemon{cmd: cmd, log: log, done: done}
	t.Cleanup(d.kill)
	select {
	case d.addr = <-log.addr:
	case err := <-done:
		d.done = nil
		t.Fatalf("memserved exited before serving: %v\n%s", err, log)
	case <-time.After(30 * time.Second):
		t.Fatalf("memserved never announced an address:\n%s", log)
	}
	return d
}

// terminate sends SIGTERM, requires a clean exit, and returns the log.
func (d *daemon) terminate(t *testing.T) string {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.done:
		d.done = nil
		if err != nil {
			t.Fatalf("memserved after SIGTERM: %v\n%s", err, d.log)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("memserved ignored SIGTERM:\n%s", d.log)
	}
	return d.log.String()
}

// kill is kill -9 plus reaping; a no-op once the process has been waited for.
func (d *daemon) kill() {
	if d.done == nil {
		return
	}
	_ = d.cmd.Process.Kill() // already-exited is fine: the wait below reaps it
	<-d.done
	d.done = nil
}

var servingLine = regexp.MustCompile(`serving .* on (\S+) \(\d+-byte blocks`)

// servingLog collects a daemon's stderr and publishes the bound address the
// moment the serve banner appears.
type servingLog struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string // buffered 1; receives exactly one address
	sent bool
}

func (l *servingLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if !l.sent {
		if m := servingLine.FindSubmatch(l.buf.Bytes()); m != nil {
			l.sent = true
			l.addr <- string(m[1])
		}
	}
	return len(p), nil
}

func (l *servingLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

package server_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"authmem/internal/server"
	"authmem/internal/wire"
)

// sendFlags writes one request frame with explicit header flags.
func (rc *rawConn) sendFlags(op wire.Op, flags uint8, addr uint64, count uint32, payload []byte) uint64 {
	rc.t.Helper()
	rc.id++
	h := wire.Header{Version: wire.Version, Op: op, Flags: flags, ID: rc.id, Addr: addr, Count: count}
	frame := wire.AppendFrame(nil, h, payload)
	if _, err := rc.nc.Write(frame); err != nil {
		rc.t.Fatalf("send %v: %v", op, err)
	}
	return rc.id
}

func TestHelloHandshake(t *testing.T) {
	mem := newMem(t, 1<<20)
	s := newTestServer(t, server.Config{Backend: mem, NodeID: "alpha", Epoch: 42})
	rc := dialRaw(t, s)

	rc.send(wire.OpHello, 0, 0, nil)
	h, payload := rc.recv()
	if h.Op != wire.OpHello || h.Status != wire.StatusOK {
		t.Fatalf("hello response: %+v", h)
	}
	var ni wire.NodeInfo
	if err := json.Unmarshal(payload, &ni); err != nil {
		t.Fatalf("hello payload: %v", err)
	}
	want := wire.NodeInfo{
		NodeID: "alpha", Epoch: 42, ProtoVersion: wire.Version,
		Size: 1 << 20, Shards: 1, BlockBytes: wire.BlockBytes,
	}
	if ni != want {
		t.Fatalf("NodeInfo %+v, want %+v", ni, want)
	}

	// Server-side view agrees with what went over the wire.
	if got := s.NodeInfo(); got != want {
		t.Fatalf("Server.NodeInfo %+v, want %+v", got, want)
	}
}

func TestHelloDefaultsGenerated(t *testing.T) {
	s := newTestServer(t, server.Config{Backend: newMem(t, 1<<20)})
	ni := s.NodeInfo()
	if ni.NodeID == "" {
		t.Fatal("default NodeID empty")
	}
	if ni.Epoch == 0 {
		t.Fatal("default Epoch zero")
	}
}

func TestRootPinnedResponses(t *testing.T) {
	mem := newMem(t, 1<<20)
	s := newTestServer(t, server.Config{Backend: mem, RequestTimeout: -1})
	rc := dialRaw(t, s)

	block := bytes.Repeat([]byte{0xC3}, wire.BlockBytes)
	rc.sendFlags(wire.OpWrite, wire.FlagRootPin, 0, 1, block)
	h, payload := rc.recv()
	if h.Status != wire.StatusOK {
		t.Fatalf("pinned write status %v", h.Status)
	}
	if h.Flags&wire.FlagRootPin == 0 {
		t.Fatal("pinned write response lacks FlagRootPin")
	}
	if len(payload) != wire.RootPinBytes {
		t.Fatalf("pinned write payload %d bytes, want %d", len(payload), wire.RootPinBytes)
	}
	root := mem.RootDigest()
	if !bytes.Equal(payload, root[:]) {
		t.Fatal("write pin does not match the backend root digest")
	}
	pinAfterWrite := append([]byte(nil), payload...)

	// Pinned read: payload is data then pin, and the pin still matches.
	rc.sendFlags(wire.OpRead, wire.FlagRootPin, 0, 1, nil)
	h, payload = rc.recv()
	if h.Status != wire.StatusOK || h.Flags&wire.FlagRootPin == 0 {
		t.Fatalf("pinned read: %+v", h)
	}
	if len(payload) != wire.BlockBytes+wire.RootPinBytes {
		t.Fatalf("pinned read payload %d bytes", len(payload))
	}
	if !bytes.Equal(payload[:wire.BlockBytes], block) {
		t.Fatal("pinned read data mismatch")
	}
	if !bytes.Equal(payload[wire.BlockBytes:], pinAfterWrite) {
		t.Fatal("read pin drifted with no intervening write")
	}

	// A write moves the root; the next pin must move with it.
	block2 := bytes.Repeat([]byte{0x11}, wire.BlockBytes)
	rc.sendFlags(wire.OpWrite, wire.FlagRootPin, wire.BlockBytes, 1, block2)
	h, payload = rc.recv()
	if h.Status != wire.StatusOK || !h.Status.Success() {
		t.Fatalf("second pinned write: %+v", h)
	}
	if bytes.Equal(payload, pinAfterWrite) {
		t.Fatal("root pin did not change across a write")
	}

	// Pinned flush: header-only request, pin-only response.
	rc.sendFlags(wire.OpFlush, wire.FlagRootPin, 0, 0, nil)
	h, payload = rc.recv()
	if h.Status != wire.StatusOK || h.Flags&wire.FlagRootPin == 0 || len(payload) != wire.RootPinBytes {
		t.Fatalf("pinned flush: %+v payload=%d", h, len(payload))
	}

	// Unpinned requests never grow a suffix.
	rc.send(wire.OpRead, 0, 1, nil)
	h, payload = rc.recv()
	if h.Flags&wire.FlagRootPin != 0 || len(payload) != wire.BlockBytes {
		t.Fatalf("unpinned read grew a suffix: %+v payload=%d", h, len(payload))
	}

	// FlagRootPin on ops that cannot carry it is a bad request.
	rc.sendFlags(wire.OpHello, wire.FlagRootPin, 0, 0, nil)
	h, _ = rc.recv()
	if h.Status != wire.StatusBadRequest {
		t.Fatalf("hello+pin status %v, want BAD_REQUEST", h.Status)
	}

	snap := s.Snapshot()
	if snap.Server.RootPinned != 4 {
		t.Fatalf("root_pinned = %d, want 4", snap.Server.RootPinned)
	}
	if snap.Server.HelloOps != 0 {
		t.Fatalf("hello_ops = %d, want 0 (the pinned hello was rejected)", snap.Server.HelloOps)
	}
}

package ecc

import (
	"strings"
	"testing"
)

// fakeMACCodec stands in for internal/macecc's adapter, which this
// package's tests do not link.
type fakeMACCodec struct{ name string }

func (c fakeMACCodec) Name() string                                { return c.name }
func (fakeMACCodec) PackLane(tag uint64, _ []byte) uint64          { return tag }
func (fakeMACCodec) NewVerifier(MACKey, int) (LaneVerifier, error) { return nil, nil }

// withSlot runs fn with the shim's registration slot emptied, and restores
// it afterwards.
func withSlot(t *testing.T, fn func()) {
	t.Helper()
	saved := macCodec
	macCodec = nil
	defer func() { macCodec = saved }()
	fn()
}

// TestRegistry: the shim's one slot takes one registration, Lookup resolves
// exactly its name, and a second registration panics.
func TestRegistry(t *testing.T) {
	withSlot(t, func() {
		Register(fakeMACCodec{macCodecName})
		c, err := Lookup(macCodecName)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != macCodecName {
			t.Fatalf("Lookup(%q).Name() = %q", macCodecName, c.Name())
		}
		defer func() {
			if recover() == nil {
				t.Fatal("a second registration did not panic")
			}
		}()
		Register(fakeMACCodec{"other"})
	})
}

func TestLookupUnknownAndEmpty(t *testing.T) {
	withSlot(t, func() {
		if _, err := Lookup(macCodecName); err == nil || !strings.Contains(err.Error(), "nothing") {
			t.Fatalf("lookup in an empty slot: %v", err)
		}
		Register(fakeMACCodec{macCodecName})
		for _, name := range []string{"no-such-codec", "", CodecName} {
			if _, err := Lookup(name); err == nil || !strings.Contains(err.Error(), macCodecName) {
				t.Fatalf("Lookup(%q): %v", name, err)
			}
		}
	})
}

func TestDefaultFor(t *testing.T) {
	if got := DefaultFor(true); got != macCodecName {
		t.Fatalf("DefaultFor(true) = %q", got)
	}
	if got := DefaultFor(false); got != CodecName {
		t.Fatalf("DefaultFor(false) = %q", got)
	}
}

package ecc

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestRegistry(t *testing.T) {
	names := Names()
	for _, want := range []string{"secded"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("Names() = %v, missing %q", names, want)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
	for _, n := range names {
		c, err := Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != n {
			t.Fatalf("Lookup(%q).Name() = %q", n, c.Name())
		}
		if c.CheckBytes() <= 0 || c.CheckBytes() > 8 {
			t.Fatalf("%s: implausible CheckBytes %d", n, c.CheckBytes())
		}
		// Exactly one of the two family interfaces, matching CarriesMAC.
		_, isBlock := c.(BlockCodec)
		_, isMAC := c.(MACCodec)
		if isBlock == isMAC {
			t.Fatalf("%s: block=%v mac=%v, want exactly one family", n, isBlock, isMAC)
		}
		if isMAC != c.CarriesMAC() {
			t.Fatalf("%s: CarriesMAC()=%v but MACCodec=%v", n, c.CarriesMAC(), isMAC)
		}
	}
}

func TestLookupUnknownAndEmpty(t *testing.T) {
	if _, err := Lookup("no-such-codec"); err == nil || !strings.Contains(err.Error(), "no-such-codec") {
		t.Fatalf("unknown lookup: %v", err)
	}
	// The empty name is an error by design: placement-aware defaulting
	// lives in core.Config, not here.
	if _, err := Lookup(""); err == nil {
		t.Fatal("empty lookup should fail")
	}
}

func TestDefaultFor(t *testing.T) {
	if got := DefaultFor(true); got != DefaultMACCodec {
		t.Fatalf("DefaultFor(true) = %q", got)
	}
	if got := DefaultFor(false); got != DefaultBlockCodec {
		t.Fatalf("DefaultFor(false) = %q", got)
	}
	// Both defaults must resolve, with the right family.
	for _, mac := range []bool{true, false} {
		c, err := Lookup(DefaultFor(mac))
		if err != nil && mac {
			// macsecded registers from internal/macecc; this package's
			// tests may run without it linked.
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if c.CarriesMAC() != mac {
			t.Fatalf("DefaultFor(%v) resolves to CarriesMAC()=%v", mac, c.CarriesMAC())
		}
	}
}

// TestSecdedCodecMatchesBlockHelpers pins the "secded" codec to the legacy
// EncodeBlock/DecodeBlock helpers it wraps: same check bytes, same
// corrections, same verdicts.
func TestSecdedCodecMatchesBlockHelpers(t *testing.T) {
	cod, err := Lookup("secded")
	if err != nil {
		t.Fatal(err)
	}
	bcod := cod.(BlockCodec)
	if bcod.CheckBytes() != WordsPerBlock {
		t.Fatalf("CheckBytes() = %d, want %d", bcod.CheckBytes(), WordsPerBlock)
	}

	rng := rand.New(rand.NewSource(11))
	data := make([]byte, BlockSize)
	check := make([]byte, WordsPerBlock)
	for trial := 0; trial < 200; trial++ {
		rng.Read(data)
		orig := append([]byte(nil), data...)

		if err := bcod.EncodeInto(check, data); err != nil {
			t.Fatal(err)
		}
		legacy, err := EncodeBlock(data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(check, legacy[:]) {
			t.Fatalf("trial %d: EncodeInto %x != EncodeBlock %x", trial, check, legacy)
		}

		// One data flip: the codec must correct it exactly like the
		// helpers do.
		bit := rng.Intn(8 * BlockSize)
		data[bit/8] ^= 1 << uint(bit%8)
		out, err := bcod.DecodeAndCorrect(data, check)
		if err != nil {
			t.Fatal(err)
		}
		if out.CorrectedBits != 1 || !bytes.Equal(data, orig) {
			t.Fatalf("trial %d: single-bit repair failed: %+v", trial, out)
		}

		// Two flips in one word: detected, never silently accepted.
		word := rng.Intn(WordsPerBlock)
		a, b := rng.Intn(64), rng.Intn(64)
		for b == a {
			b = rng.Intn(64)
		}
		data[word*8+a/8] ^= 1 << uint(a%8)
		data[word*8+b/8] ^= 1 << uint(b%8)
		out, err = bcod.DecodeAndCorrect(data, check)
		if err != nil {
			t.Fatal(err)
		}
		if out.Clean() {
			t.Fatalf("trial %d: double-bit fault reported clean", trial)
		}
		copy(data, orig)
	}

	// Size validation.
	if err := bcod.EncodeInto(check[:4], data); err == nil {
		t.Fatal("short check buffer should fail")
	}
	if _, err := bcod.DecodeAndCorrect(data, check[:4]); err == nil {
		t.Fatal("short check buffer should fail")
	}
}

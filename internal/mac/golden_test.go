package mac_test

import (
	"testing"

	"authmem/internal/crypto"
	"authmem/internal/mac"
)

// TestGoldenTags pins tag values for a fixed key and inputs, on the
// production path (crypto.MAC, which tags every stored block) and on this
// package's reference Key. Persisted NVMM images embed these MACs, so a
// change here breaks stored images: bump the persistence format if these
// must move. (An external test package because crypto imports mac.)
func TestGoldenTags(t *testing.T) {
	material := make([]byte, 24)
	for i := range material {
		material[i] = byte(i*7 + 3)
	}
	prod, err := crypto.NewMAC(material)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mac.NewKey(material)
	if err != nil {
		t.Fatal(err)
	}
	ct := make([]byte, mac.BlockSize)
	for i := range ct {
		ct[i] = byte(i)
	}
	golden := []struct {
		addr, ctr, tag uint64
	}{
		{0x0, 0, 0x00e395f701fd4f0d},
		{0x1000, 1, 0x005a8156e4cc7d95},
		{0xffffc0, 123456, 0x0037848c3a55993c},
	}
	for name, tagOf := range map[string]func(ct []byte, addr, counter uint64) (uint64, error){
		"crypto.MAC": prod.Tag,
		"mac.Key":    ref.Tag,
	} {
		for _, g := range golden {
			tag, err := tagOf(ct, g.addr, g.ctr)
			if err != nil {
				t.Fatal(err)
			}
			if tag != g.tag {
				t.Fatalf("%s: tag(%#x,%d) = %#016x, want %#016x", name, g.addr, g.ctr, tag, g.tag)
			}
		}
	}
}

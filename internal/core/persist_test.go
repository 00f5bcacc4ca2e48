package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"authmem/internal/ctr"
)

// persistCampaign writes a mixed workload (including enough hot writes to
// force re-encryptions on grouped schemes) and returns the ground truth.
func persistCampaign(t *testing.T, e *Engine) map[uint64][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	truth := make(map[uint64][]byte)
	for i := 0; i < 3000; i++ {
		blk := uint64(rng.Intn(400))
		if i%3 == 0 {
			blk = uint64(rng.Intn(4)) // hot
		}
		data := block(rng.Int63())
		if err := e.Write(blk*BlockBytes, data); err != nil {
			t.Fatal(err)
		}
		truth[blk*BlockBytes] = data
	}
	return truth
}

func TestPersistResumeRoundTrip(t *testing.T) {
	for _, cfg := range allDesignPoints() {
		name := cfg.Scheme.String() + "/" + cfg.Placement.String()
		e := newEngine(t, cfg)
		truth := persistCampaign(t, e)

		var buf bytes.Buffer
		digest, err := e.Persist(&buf)
		if err != nil {
			t.Fatalf("%s: persist: %v", name, err)
		}

		r, err := Resume(cfg, bytes.NewReader(buf.Bytes()), &digest)
		if err != nil {
			t.Fatalf("%s: resume: %v", name, err)
		}
		dst := make([]byte, BlockBytes)
		for addr, want := range truth {
			if _, err := r.Read(addr, dst); err != nil {
				t.Fatalf("%s: read %#x after resume: %v", name, addr, err)
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("%s: block %#x corrupted across persist/resume", name, addr)
			}
		}
		// The resumed engine keeps working: writes advance counters from
		// the restored state without nonce reuse (verified by reading
		// back under the new counter).
		fresh := block(1234)
		if err := r.Write(0, fresh); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(0, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, fresh) {
			t.Fatalf("%s: post-resume write broken", name)
		}
	}
}

func TestResumeRejectsTamperedImage(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	e := newEngine(t, cfg)
	truth := persistCampaign(t, e)
	var buf bytes.Buffer
	digest, err := e.Persist(&buf)
	if err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()

	// Section offsets (MACInECC layout): magic 8 + header 48 (six u64
	// fields) + codec ID (u64 length + name), then the data section (count
	// + n*(idx 8 + ct 64 + meta 8)), then the counter images (count +
	// m*(idx 8 + 64)).
	const header = 8 + 6*8
	dataOff := header + 8 + len(cfg.CodecName())
	nBlocks := e.store.Len()
	metaOff := dataOff + 8 + nBlocks*(8+64+8)
	u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(img[off:]) }
	if got := u64(dataOff); got != uint64(nBlocks) {
		t.Fatalf("data section count %d at offset %d, want %d", got, dataOff, nBlocks)
	}
	if got := u64(metaOff); got != uint64(e.images.Len()) {
		t.Fatalf("counter section count %d at offset %d, want %d", got, metaOff, e.images.Len())
	}
	firstCt := dataOff + 8 + 8 // the first stored block's ciphertext
	if !bytes.Equal(img[firstCt:firstCt+BlockBytes], e.store.Ciphertext(u64(dataOff+8))) {
		t.Fatal("data offset does not land on the first stored ciphertext")
	}
	firstImg := metaOff + 8 + 8 // the first stored counter image
	if !bytes.Equal(img[firstImg:firstImg+BlockBytes], e.images.Load(u64(metaOff+8))) {
		t.Fatal("counter offset does not land on the first stored image")
	}

	// 1. Tampering a counter-block image is caught eagerly at Resume by
	// the tree verification.
	bad := append([]byte(nil), img...)
	bad[firstImg+20] ^= 0x40 // 20th byte of the first stored image
	var ie *IntegrityError
	if _, err := Resume(cfg, bytes.NewReader(bad), &digest); !errors.As(err, &ie) {
		t.Fatalf("tampered counter image resumed: %v", err)
	}

	// 2. Tampering the trusted top level is caught by the digest pin.
	bad = append([]byte(nil), img...)
	bad[len(bad)-1] ^= 0x01
	if _, err := Resume(cfg, bytes.NewReader(bad), &digest); !errors.As(err, &ie) {
		t.Fatalf("tampered root resumed under a pinned digest: %v", err)
	}

	// 3. A single ciphertext bit flip is an ordinary correctable memory
	// fault: Resume succeeds and the demand read repairs it.
	bad = append([]byte(nil), img...)
	bad[firstCt+30] ^= 0x04 // 30th ciphertext byte of the first block
	r, err := Resume(cfg, bytes.NewReader(bad), &digest)
	if err != nil {
		t.Fatalf("correctable fault blocked resume: %v", err)
	}
	dst := make([]byte, BlockBytes)
	for addr, want := range truth {
		if _, err := r.Read(addr, dst); err != nil {
			t.Fatalf("read %#x: %v", addr, err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("block %#x wrong after fault repair", addr)
		}
	}
}

// TestDataTreePersistResume: the sixth v1 header field once recorded a
// classic tree over data. Every engine writes 0 there, resumes its own image,
// and refuses the same image with 1 in that slot.
func TestDataTreePersistResume(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	e := newEngine(t, cfg)
	truth := persistCampaign(t, e)
	var buf bytes.Buffer
	digest, err := e.Persist(&buf)
	if err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	const treeSlot = 8 + 5*8 // magic 8, then the sixth u64 header field
	if got := binary.LittleEndian.Uint64(img[treeSlot:]); got != 0 {
		t.Fatalf("tree-design slot is %d, want 0", got)
	}
	r, err := Resume(cfg, bytes.NewReader(img), &digest)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockBytes)
	for addr, want := range truth {
		if _, err := r.Read(addr, dst); err != nil {
			t.Fatalf("read %#x: %v", addr, err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("block %#x wrong", addr)
		}
	}

	bad := append([]byte(nil), img...)
	bad[treeSlot] = 1
	if _, err := Resume(cfg, bytes.NewReader(bad), &digest); err == nil || !strings.Contains(err.Error(), "config field 5 is 1") {
		t.Fatalf("image with a classic-tree header resumed: %v", err)
	}
}

func TestResumeRejectsRollback(t *testing.T) {
	// Whole-image rollback: persist, write more, persist again; resuming
	// the OLD image with the NEW digest must fail.
	cfg := smallCfg(ctr.Delta, MACInECC)
	e := newEngine(t, cfg)
	persistCampaign(t, e)
	var old bytes.Buffer
	if _, err := e.Persist(&old); err != nil {
		t.Fatal(err)
	}
	if err := e.Write(0, block(77)); err != nil {
		t.Fatal(err)
	}
	var cur bytes.Buffer
	curDigest, err := e.Persist(&cur)
	if err != nil {
		t.Fatal(err)
	}

	_, err = Resume(cfg, bytes.NewReader(old.Bytes()), &curDigest)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("rollback to old image not detected: %v", err)
	}
	// Without the digest pin, the rollback goes through — the documented
	// residual risk.
	if _, err := Resume(cfg, bytes.NewReader(old.Bytes()), nil); err != nil {
		t.Fatalf("unpinned resume should succeed: %v", err)
	}
}

func TestResumeRejectsConfigMismatch(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	e := newEngine(t, cfg)
	persistCampaign(t, e)
	var buf bytes.Buffer
	if _, err := e.Persist(&buf); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Scheme = ctr.Split
	if _, err := Resume(other, bytes.NewReader(buf.Bytes()), nil); err == nil {
		t.Fatal("scheme mismatch should fail")
	}
	other = cfg
	other.RegionBytes *= 2
	if _, err := Resume(other, bytes.NewReader(buf.Bytes()), nil); err == nil {
		t.Fatal("region mismatch should fail")
	}
}

func TestResumeRejectsGarbage(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	if _, err := Resume(cfg, bytes.NewReader([]byte("not an image")), nil); err == nil {
		t.Fatal("garbage should fail")
	}
	if _, err := Resume(cfg, bytes.NewReader(nil), nil); err == nil {
		t.Fatal("empty input should fail")
	}
}

func TestResumeTruncatedImage(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	e := newEngine(t, cfg)
	persistCampaign(t, e)
	var buf bytes.Buffer
	if _, err := e.Persist(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	for _, cut := range []int{9, len(img) / 3, len(img) - 5} {
		if _, err := Resume(cfg, bytes.NewReader(img[:cut]), nil); err == nil {
			t.Fatalf("truncation at %d resumed cleanly", cut)
		}
	}
}

func TestResumeWithWrongKeyFailsOnRead(t *testing.T) {
	// The key never travels with the image. A resume under the wrong key
	// rebuilds... nothing usable: tree verification fails immediately
	// (node MACs were computed under the real key).
	cfg := smallCfg(ctr.Delta, MACInECC)
	e := newEngine(t, cfg)
	persistCampaign(t, e)
	var buf bytes.Buffer
	if _, err := e.Persist(&buf); err != nil {
		t.Fatal(err)
	}
	wrong := cfg
	wrong.KeyMaterial = make([]byte, KeyMaterialLen)
	_, err := Resume(wrong, bytes.NewReader(buf.Bytes()), nil)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("wrong-key resume should fail integrity: %v", err)
	}
}

func TestPersistDeterministic(t *testing.T) {
	cfg := smallCfg(ctr.Split, MACInline)
	e := newEngine(t, cfg)
	persistCampaign(t, e)
	var a, b bytes.Buffer
	da, err := e.Persist(&a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := e.Persist(&b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) || da != db {
		t.Fatal("persist image not deterministic")
	}
}

// TestPersistAllocationsAreConstant: a fold's allocations do not grow with
// the resident set — every block and image entry is framed in one reused
// buffer, so 4x the blocks cost the same handful of objects.
func TestPersistAllocationsAreConstant(t *testing.T) {
	for _, cfg := range []Config{smallCfg(ctr.Delta, MACInECC), smallCfg(ctr.Split, MACInline)} {
		e := newEngine(t, cfg)
		fill := func(from, to uint64) {
			t.Helper()
			span := make([]byte, 64*BlockBytes)
			for blk := from; blk < to; blk += 64 {
				if err := e.WriteBlocks(blk*BlockBytes, span); err != nil {
					t.Fatal(err)
				}
			}
		}
		persist := func() {
			if _, err := e.Persist(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
		fill(0, 1024)
		small := testing.AllocsPerRun(5, persist)
		fill(1024, 4096)
		large := testing.AllocsPerRun(5, persist)
		if small != large || large > 16 {
			t.Fatalf("%s: Persist allocates %.0f objects for 1024 resident blocks and %.0f for 4096", cfg.Scheme, small, large)
		}
	}
}

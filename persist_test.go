package authmem

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestFacadePersistResume power-cycles the region through Persist and the
// pinned resume, with data straddling what is a shard boundary at four shards.
func TestFacadePersistResume(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		cfg := testConfig(DeltaEncoding, MACInECC)
		m := newMemShards(t, cfg, shards)
		data := make([]byte, 64*BlockSize)
		rand.New(rand.NewSource(3)).Read(data)
		off := int64(m.Size()/4) - 3*BlockSize
		if _, err := m.WriteAt(data, off); err != nil {
			t.Fatal(err)
		}

		var img bytes.Buffer
		digest, err := m.Persist(&img)
		if err != nil {
			t.Fatal(err)
		}

		// "Power cycle": a fresh Memory from the image, same key.
		m2, err := ResumeSharded(cfg, shards, bytes.NewReader(img.Bytes()), &digest)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if _, err := m2.ReadAt(got, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("data lost across persist/resume")
		}
		if m2.RootDigest() != digest {
			t.Fatal("resumed root digest differs")
		}
		if _, err := ResumeSharded(cfg, 2*shards, bytes.NewReader(img.Bytes()), nil); err == nil {
			t.Fatal("image resumed under another shard count")
		}
	})
}

func TestFacadeResumeRollbackPinned(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		cfg := testConfig(DeltaEncoding, MACInECC)
		m := newMemShards(t, cfg, shards)
		if err := m.Write(0, make([]byte, BlockSize)); err != nil {
			t.Fatal(err)
		}
		var old bytes.Buffer
		if _, err := m.Persist(&old); err != nil {
			t.Fatal(err)
		}
		if err := m.Write(0, bytes.Repeat([]byte{9}, BlockSize)); err != nil {
			t.Fatal(err)
		}
		var cur bytes.Buffer
		digest, err := m.Persist(&cur)
		if err != nil {
			t.Fatal(err)
		}
		var ie *IntegrityError
		if _, err := ResumeSharded(cfg, shards, bytes.NewReader(old.Bytes()), &digest); !errors.As(err, &ie) {
			t.Fatalf("pinned rollback not detected: %v", err)
		}
	})
}

func TestFacadeResumeBadConfig(t *testing.T) {
	if _, err := Resume(Config{}, bytes.NewReader(nil), nil); err == nil {
		t.Fatal("invalid config should fail")
	}
}

// TestOneShardBitsMatchCallerSerializedMemory pins what New(cfg) stores to
// what the caller-serialized Memory (a bare engine, deleted at PR 23) stored
// for the same operations: SHA-256 of the base image and of the delta log,
// recorded at 790dc95 from Memory.Persist / NewDeltaLog / AppendDelta. Images
// and logs written before the one-device change therefore resume after it,
// and the reverse.
func TestOneShardBitsMatchCallerSerializedMemory(t *testing.T) {
	for _, c := range []struct {
		scheme    CounterScheme
		placement MACPlacement
		base, log string
	}{
		{Monolithic, MACInECC, "41c63e27976abd30db5caddfad91943dbac31dcae88955a4339d00e565dc8eb0", "35338c36079a25521fad9b79bb704b3304046e66ac7808a55177a1ec3c1cc1e0"},
		{Monolithic, InlineMAC, "677020a397434a9ad25ff20c64b5fa0bc6a64bf69e57af03688c6391ca367500", "d6a65a66114db18c2557979c19deef70e3f2655ae92493fea6c1e4f46735ab02"},
		{SplitCounter, MACInECC, "75911813bc0f002c212d12db4629ea2f96006f76701b84799b83e92582e4b881", "783d1cb48b7678bc96fd190a4c5c567c7191ef9bc8c2d3ddab5b2d10a5c44d9a"},
		{SplitCounter, InlineMAC, "d0f7b1c9a85fc919188dcfdcd926f02f98f00a3db18fcfbccd23b2ec782e8635", "cb285ceb8f9ddc839d543634c57612f40faf97954da226f2d45daab7950b795e"},
		{DeltaEncoding, MACInECC, "f974fbaf4c6e108c09d26fd6b9b28290dd19cd9a521649994c4f5206c0fb0ec7", "e11d3a9d83e5e47c89091d79614dc08e4ba08549c18ba61ee3ffd0b221023cea"},
		{DeltaEncoding, InlineMAC, "4f4ede3868e6adc6929c3a6162844458fd55eb3304b988a4ed2dd6552f8f6c1a", "6a75a6083ec1a1d0c59f18f357fc82e1946729926468bf1dca15a3499164d097"},
		{DualLengthDelta, MACInECC, "8b997e992e405b5714d25e7d995bfa0bebabb2979997e9dd5ed6bb620ea1383f", "af1b7958d7841a94bc56f24a2bb5c48ce74cdcb2a267494e3b55628446b82b21"},
		{DualLengthDelta, InlineMAC, "2094e3c2afeb9d2cd522bad1576f0b3cd0f8602aa088d423d09e5905328be3b0", "4cc327baced34108a19d0cf9e374387d80cee1d7e6a34a9fc9d2ffcec5219fe6"},
	} {
		m := newMem(t, testConfig(c.scheme, c.placement))
		m.EnableDeltaTracking()
		rng := rand.New(rand.NewSource(23))
		data := make([]byte, BlockSize)
		write := func(n int) {
			for i := 0; i < n; i++ {
				addr := uint64(rng.Intn(4096)) * BlockSize
				if i%3 == 0 {
					addr = 7 * BlockSize // a hot block: overflows split minors
				}
				rng.Read(data)
				if err := m.Write(addr, data); err != nil {
					t.Fatal(err)
				}
			}
		}
		write(450)
		var base, log bytes.Buffer
		if _, err := m.Persist(&base); err != nil {
			t.Fatal(err)
		}
		dl, err := m.NewShardDeltaLog(0, &log)
		if err != nil {
			t.Fatal(err)
		}
		for ep := 0; ep < 3; ep++ {
			write(120)
			if _, err := m.AppendDeltaShard(0, dl); err != nil {
				t.Fatal(err)
			}
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(base.Bytes())); got != c.base {
			t.Errorf("%v/%v: base image hashes to %s, the parent's Memory wrote %s", c.scheme, c.placement, got, c.base)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(log.Bytes())); got != c.log {
			t.Errorf("%v/%v: delta log hashes to %s, the parent's Memory wrote %s", c.scheme, c.placement, got, c.log)
		}
	}
}

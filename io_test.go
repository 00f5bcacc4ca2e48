package authmem

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func ioMem(t testing.TB, shards int) *Memory {
	t.Helper()
	return newMemShards(t, testConfig(DeltaEncoding, MACInECC), shards)
}

func TestReadAtWriteAtAligned(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		m := ioMem(t, shards)
		data := make([]byte, 3*BlockSize)
		rand.New(rand.NewSource(1)).Read(data)
		if n, err := m.WriteAt(data, 2*BlockSize); err != nil || n != len(data) {
			t.Fatalf("WriteAt: n=%d err=%v", n, err)
		}
		got := make([]byte, len(data))
		if n, err := m.ReadAt(got, 2*BlockSize); err != nil || n != len(got) {
			t.Fatalf("ReadAt: n=%d err=%v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("aligned round trip corrupted data")
		}
	})
}

func TestWriteAtUnalignedMergesNeighbors(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		m := ioMem(t, shards)
		base := make([]byte, 2*BlockSize)
		for i := range base {
			base[i] = 0xEE
		}
		if _, err := m.WriteAt(base, 0); err != nil {
			t.Fatal(err)
		}
		// Overwrite 10 bytes straddling the block boundary.
		patch := []byte("0123456789")
		if n, err := m.WriteAt(patch, BlockSize-5); err != nil || n != 10 {
			t.Fatalf("n=%d err=%v", n, err)
		}
		got := make([]byte, 2*BlockSize)
		if _, err := m.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), base...)
		copy(want[BlockSize-5:], patch)
		if !bytes.Equal(got, want) {
			t.Fatal("unaligned write did not merge correctly")
		}
	})
}

func TestReadAtUnaligned(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		m := ioMem(t, shards)
		data := make([]byte, 4*BlockSize)
		rand.New(rand.NewSource(2)).Read(data)
		if _, err := m.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 100)
		if _, err := m.ReadAt(got, 37); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[37:137]) {
			t.Fatal("unaligned read wrong")
		}
	})
}

func TestReadAtWriteAtPropertyRoundTrip(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		m := ioMem(t, shards)
		f := func(seed int64, offSeed uint32, lenSeed uint16) bool {
			off := int64(offSeed % (1 << 18))
			length := int(lenSeed%300) + 1
			data := make([]byte, length)
			rand.New(rand.NewSource(seed)).Read(data)
			if n, err := m.WriteAt(data, off); err != nil || n != length {
				return false
			}
			got := make([]byte, length)
			if n, err := m.ReadAt(got, off); err != nil || n != length {
				return false
			}
			return bytes.Equal(got, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Error(err)
		}
	})
}

func TestReadAtNegativeOffset(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		m := ioMem(t, shards)
		if _, err := m.ReadAt(make([]byte, 8), -1); err == nil {
			t.Fatal("negative offset should fail")
		}
		if _, err := m.WriteAt(make([]byte, 8), -1); err == nil {
			t.Fatal("negative offset should fail")
		}
	})
}

// TestReadAtOutOfRegion: ReadAt ends like any io.ReaderAt — the bytes before
// Size() with io.EOF — while a WriteAt past the end stays an error.
func TestReadAtOutOfRegion(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		m := ioMem(t, shards)
		size := int64(m.Size())
		tail := bytes.Repeat([]byte{0xC3}, 100)
		if _, err := m.WriteAt(tail, size-100); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 128)
		if n, err := m.ReadAt(got, size-64); n != 64 || err != io.EOF {
			t.Fatalf("read crossing the region end: n=%d err=%v, want 64 and io.EOF", n, err)
		}
		if !bytes.Equal(got[:64], tail[36:]) {
			t.Fatal("bytes before the region end read back wrong")
		}
		for _, off := range []int64{size, size + 4096} {
			if n, err := m.ReadAt(got, off); n != 0 || err != io.EOF {
				t.Fatalf("read at %d (size %d): n=%d err=%v, want 0 and io.EOF", off, size, n, err)
			}
		}
		// What the contract is for: a section reader over more than the
		// region ends instead of failing.
		all, err := io.ReadAll(io.NewSectionReader(m, size-100, 1<<30))
		if err != nil || !bytes.Equal(all, tail) {
			t.Fatalf("section reader over the region end: %d bytes, err %v", len(all), err)
		}
		if _, err := m.WriteAt(make([]byte, 128), size-64); err == nil {
			t.Fatal("write crossing the region end should fail")
		}
	})
}

func TestWriteAtTamperedNeighborRefused(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		// A partial write must not silently merge with tampered data: the
		// read-modify-write's verify step fails first.
		m := ioMem(t, shards)
		if _, err := m.WriteAt(bytes.Repeat([]byte{1}, BlockSize), 0); err != nil {
			t.Fatal(err)
		}
		for _, bit := range []int{0, 9, 200} {
			if err := flipAt(m, planeData, 0, bit); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.WriteAt([]byte("xy"), 10); err == nil {
			t.Fatal("partial write over tampered block should fail")
		}
	})
}

func TestReadAtZeroLength(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		m := ioMem(t, shards)
		if n, err := m.ReadAt(nil, 0); err != nil || n != 0 {
			t.Fatalf("zero-length read: n=%d err=%v", n, err)
		}
		if n, err := m.WriteAt(nil, 0); err != nil || n != 0 {
			t.Fatalf("zero-length write: n=%d err=%v", n, err)
		}
	})
}

package wal

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"
)

func testSeed() [SeedSize]byte { return sha256.Sum256([]byte("base snapshot")) }

func testKey() []byte { return bytes.Repeat([]byte{0x5a}, 32) }

// buildLog appends the given payloads and returns the raw log plus the
// record boundary offsets (byte offset where each record ends).
func buildLog(t *testing.T, payloads [][]byte) ([]byte, []int64) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testKey(), testSeed())
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int64{w.Offset()}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, w.Offset())
	}
	if got := int64(buf.Len()); got != w.Offset() {
		t.Fatalf("writer offset %d, buffer %d", w.Offset(), got)
	}
	return buf.Bytes(), bounds
}

func replayAll(t *testing.T, log []byte) (ReplayResult, [][]byte) {
	t.Helper()
	var got [][]byte
	res, err := Replay(bytes.NewReader(log), testKey(), testSeed(), func(seq uint64, payload []byte) error {
		got = append(got, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return res, got
}

func TestRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("alpha"),
		bytes.Repeat([]byte{0xab}, 4096),
		[]byte{0x00},
		bytes.Repeat([]byte("delta"), 777),
	}
	log, _ := buildLog(t, payloads)
	res, got := replayAll(t, log)
	if res.Verdict != VerdictClean || res.Records != len(payloads) || res.FailedAt != -1 {
		t.Fatalf("unexpected result %+v", res)
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("payload %d mismatch", i)
		}
	}
}

func TestEmptyLogIsClean(t *testing.T) {
	log, _ := buildLog(t, nil)
	res, got := replayAll(t, log)
	if res.Verdict != VerdictClean || res.Records != 0 || len(got) != 0 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestTruncationAtEveryByte(t *testing.T) {
	payloads := [][]byte{[]byte("one"), []byte("twotwo"), bytes.Repeat([]byte{7}, 100)}
	log, bounds := buildLog(t, payloads)
	boundary := make(map[int64]int) // offset -> records wholly before it
	for i, b := range bounds {
		boundary[b] = i
	}
	for cut := 0; cut <= len(log); cut++ {
		res, got := replayAll(t, log[:cut])
		if n, ok := boundary[int64(cut)]; ok {
			if res.Verdict != VerdictClean || res.Records != n {
				t.Fatalf("cut %d (boundary): want clean/%d, got %+v", cut, n, res)
			}
			continue
		}
		// Mid-record (or mid-header) cut: replay must deliver exactly the
		// records wholly before the cut and report truncation.
		want := 0
		for _, b := range bounds {
			if int64(cut) >= b {
				want = boundary[b]
			}
		}
		if res.Verdict != VerdictTruncated {
			t.Fatalf("cut %d: want truncated, got %+v", cut, res)
		}
		if res.Records != want || len(got) != want {
			t.Fatalf("cut %d: want %d records, got %+v", cut, want, res)
		}
	}
}

func TestBitFlipsNeverReplaySilently(t *testing.T) {
	payloads := [][]byte{[]byte("first record"), []byte("second record"), []byte("third record")}
	log, _ := buildLog(t, payloads)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		mut := append([]byte(nil), log...)
		bit := rng.Intn(len(mut) * 8)
		mut[bit/8] ^= 1 << (bit % 8)
		var got [][]byte
		res, err := Replay(bytes.NewReader(mut), testKey(), testSeed(), func(seq uint64, payload []byte) error {
			got = append(got, append([]byte(nil), payload...))
			return nil
		})
		if err != nil {
			t.Fatalf("trial %d: unexpected error %v", trial, err)
		}
		if res.Verdict == VerdictClean && res.Records == len(payloads) {
			// A flip inside a length prefix can re-frame the log; the seal
			// must still catch it before all records replay as valid.
			same := true
			for i := range payloads {
				if !bytes.Equal(got[i], payloads[i]) {
					same = false
				}
			}
			if !same {
				t.Fatalf("trial %d bit %d: clean verdict with altered payloads", trial, bit)
			}
			t.Fatalf("trial %d bit %d: flip replayed clean", trial, bit)
		}
		// Delivered records must be an exact prefix of the originals.
		for i := range got {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("trial %d bit %d: delivered record %d altered", trial, bit, i)
			}
		}
	}
}

func TestWrongSeedIsCorrupt(t *testing.T) {
	log, _ := buildLog(t, [][]byte{[]byte("x")})
	other := sha256.Sum256([]byte("a different base"))
	res, err := Replay(bytes.NewReader(log), testKey(), other, func(uint64, []byte) error {
		t.Fatal("callback must not run")
		return nil
	})
	if err != nil || res.Verdict != VerdictCorrupt || res.Records != 0 {
		t.Fatalf("unexpected result %+v err %v", res, err)
	}
}

func TestWrongKeyIsCorrupt(t *testing.T) {
	log, _ := buildLog(t, [][]byte{[]byte("x"), []byte("y")})
	res, err := Replay(bytes.NewReader(log), []byte("not the key"), testSeed(), func(uint64, []byte) error {
		t.Fatal("callback must not run")
		return nil
	})
	if err != nil || res.Verdict != VerdictCorrupt || res.Records != 0 || res.FailedAt != 0 {
		t.Fatalf("unexpected result %+v err %v", res, err)
	}
}

func TestSpliceBetweenLogsIsCorrupt(t *testing.T) {
	logA, boundsA := buildLog(t, [][]byte{[]byte("a0"), []byte("a1")})
	logB, boundsB := buildLog(t, [][]byte{[]byte("b0 with other content"), []byte("b1")})
	// Graft log B's record 1 after log A's record 0: framing and sequence
	// are intact, but the chain digest diverges, so the grafted record's
	// seal must fail.
	graft := append(append([]byte(nil), logA[:boundsA[1]]...), logB[boundsB[1]:]...)
	res, err := Replay(bytes.NewReader(graft), testKey(), testSeed(), func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictCorrupt || res.Records != 1 || res.FailedAt != 1 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestDroppedRecordIsDetected(t *testing.T) {
	log, bounds := buildLog(t, [][]byte{[]byte("r0"), []byte("r1"), []byte("r2")})
	// Remove the middle record: sequence numbers and the chain both break.
	cut := append(append([]byte(nil), log[:bounds[1]]...), log[bounds[2]:]...)
	res, err := Replay(bytes.NewReader(cut), testKey(), testSeed(), func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictCorrupt || res.Records != 1 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestCallbackErrorPropagates(t *testing.T) {
	log, _ := buildLog(t, [][]byte{[]byte("r0"), []byte("r1")})
	wantErr := fmt.Errorf("apply failed")
	n := 0
	res, err := Replay(bytes.NewReader(log), testKey(), testSeed(), func(seq uint64, payload []byte) error {
		if seq == 1 {
			return wantErr
		}
		n++
		return nil
	})
	if err == nil || res.Records != 1 || n != 1 || res.FailedAt != 1 {
		t.Fatalf("unexpected result %+v err %v", res, err)
	}
}

func TestAppendRejectsBadPayloads(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testKey(), testSeed())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := NewWriter(&buf, nil, testSeed()); err == nil {
		t.Fatal("empty key accepted")
	}
}

// TestSealerMatchesCryptoHMAC pins the precomputed-pad sealer to the
// reference crypto/hmac construction bit for bit — the on-disk seal format
// must never drift from standard HMAC-SHA256.
func TestSealerMatchesCryptoHMAC(t *testing.T) {
	for _, klen := range []int{1, 31, 32, 64, 65, 200} {
		key := bytes.Repeat([]byte{byte(klen)}, klen)
		s := newSealer(key)
		var chain [sha256.Size]byte
		for i := range chain {
			chain[i] = byte(i * 3)
		}
		got := s.seal(nil, chain)
		ref := hmac.New(sha256.New, key)
		ref.Write(chain[:])
		if want := ref.Sum(nil); !bytes.Equal(got, want) {
			t.Fatalf("key len %d: sealer diverges from crypto/hmac", klen)
		}
	}
}

// countingWriter records the size of every Write it is handed.
type countingWriter struct {
	bytes.Buffer
	writes []int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	return c.Buffer.Write(p)
}

// TestEpochIsOneWrite: N staged records plus the closing Append reach the
// io.Writer as one write below stageLimit, and as ceil(bytes/stageLimit)
// writes of exactly stageLimit (the last one shorter) above it.
func TestEpochIsOneWrite(t *testing.T) {
	for _, tc := range []struct {
		name     string
		records  int
		payload  int
		wantMany bool
	}{
		{"below the limit", 40, 600, false},
		{"above the limit", 200, 4700, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cw countingWriter
			w, err := NewWriter(&cw, testKey(), testSeed())
			if err != nil {
				t.Fatal(err)
			}
			cw.writes = nil // the header is NewWriter's own write
			p := bytes.Repeat([]byte{0xc3}, tc.payload)
			for i := 0; i < tc.records; i++ {
				if err := w.Stage(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Append([]byte("commit")); err != nil {
				t.Fatal(err)
			}
			total := int(w.Offset()) - HeaderSize
			want := (total + stageLimit - 1) / stageLimit
			if (want > 1) != tc.wantMany {
				t.Fatalf("case sized wrong: %d bytes against a %d-byte limit", total, stageLimit)
			}
			if len(cw.writes) != want {
				t.Fatalf("%d bytes reached the writer in %d writes, want %d", total, len(cw.writes), want)
			}
			for i, n := range cw.writes[:len(cw.writes)-1] {
				if n != stageLimit {
					t.Fatalf("early write %d is %d bytes, want exactly %d", i, n, stageLimit)
				}
			}
			if cap(w.buf) > 2*(stageLimit+tc.payload+recordOverhead) {
				t.Fatalf("staging buffer grew to %d bytes", cap(w.buf))
			}
			if int64(cw.Len()) != w.Offset() {
				t.Fatalf("writer offset %d, log %d", w.Offset(), cw.Len())
			}
			res, got := replayAll(t, cw.Bytes())
			if res.Verdict != VerdictClean || len(got) != tc.records+1 {
				t.Fatalf("staged log replays %+v with %d records", res, len(got))
			}
			// A second epoch reuses the buffer and is again one batch.
			cw.writes = nil
			if err := w.Stage(p); err != nil {
				t.Fatal(err)
			}
			if err := w.Append([]byte("commit")); err != nil {
				t.Fatal(err)
			}
			if len(cw.writes) != 1 {
				t.Fatalf("second epoch took %d writes", len(cw.writes))
			}
		})
	}
}

// referenceLog frames payloads one record at a time, straight from the
// format in the package comment and with crypto/hmac, writing each record on
// its own — the byte stream the staged Writer must reproduce exactly.
func referenceLog(key []byte, seed [SeedSize]byte, payloads [][]byte) []byte {
	var log bytes.Buffer
	log.Write(headerMagic[:])
	log.Write(seed[:])
	chain := seed
	for seq, p := range payloads {
		var rec bytes.Buffer
		binary.Write(&rec, binary.LittleEndian, uint32(len(p)))
		binary.Write(&rec, binary.LittleEndian, uint64(seq))
		rec.Write(p)
		binary.Write(&rec, binary.LittleEndian, crc32.ChecksumIEEE(rec.Bytes()[4:]))
		h := sha256.New()
		h.Write(chain[:])
		h.Write(rec.Bytes()[4:12])
		h.Write(p)
		h.Sum(chain[:0])
		mac := hmac.New(sha256.New, key)
		mac.Write(chain[:])
		rec.Write(mac.Sum(nil))
		log.Write(rec.Bytes())
	}
	return log.Bytes()
}

// TestStagedBytesEqualRecordwiseBytes: staging changes when bytes reach the
// io.Writer, never which bytes. Batches of every shape — all staged, flushed
// one by one, crossing stageLimit — equal the record-at-a-time reference, so
// every truncation, bit-flip and crash-point test over a built log still
// tests the format replay reads.
func TestStagedBytesEqualRecordwiseBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var payloads [][]byte
	for i := 0; i < 150; i++ {
		p := make([]byte, 1+rng.Intn(6000))
		rng.Read(p)
		payloads = append(payloads, p)
	}
	want := referenceLog(testKey(), testSeed(), payloads)
	if len(want) <= stageLimit {
		t.Fatalf("reference log is %d bytes; it must cross the %d-byte limit", len(want), stageLimit)
	}
	for _, batch := range []int{1, 7, len(payloads)} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, testKey(), testSeed())
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range payloads {
			if (i+1)%batch == 0 {
				err = w.Append(p)
			} else {
				err = w.Stage(p)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("batches of %d: staged log differs from the record-at-a-time reference", batch)
		}
		if w.Offset() != int64(len(want)) || w.Records() != uint64(len(payloads)) {
			t.Fatalf("batches of %d: offset %d records %d", batch, w.Offset(), w.Records())
		}
	}
}

// failingWriter accepts budget bytes, then fails every write (writing the
// part that still fits, as a full disk would).
type failingWriter struct {
	bytes.Buffer
	budget int
}

var errDiskFull = errors.New("disk full")

func (f *failingWriter) Write(p []byte) (int, error) {
	if len(p) > f.budget {
		n, _ := f.Buffer.Write(p[:f.budget])
		f.budget = 0
		return n, errDiskFull
	}
	f.budget -= len(p)
	return f.Buffer.Write(p)
}

// TestFailedWritePoisonsWriter: after one failed write the log holds an
// unknown prefix of the batch, so every later Stage, Append and Flush must
// return the same error and write nothing more — and what did reach storage
// still replays to a typed verdict with only whole sealed records delivered.
func TestFailedWritePoisonsWriter(t *testing.T) {
	fw := &failingWriter{budget: HeaderSize + 100}
	w, err := NewWriter(fw, testKey(), testSeed())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Stage(bytes.Repeat([]byte{1}, 40)); err != nil {
		t.Fatal(err)
	}
	if err := w.Stage(bytes.Repeat([]byte{2}, 40)); err != nil {
		t.Fatal(err)
	}
	first := w.Flush()
	if !errors.Is(first, errDiskFull) {
		t.Fatalf("flush over a full disk returned %v", first)
	}
	stored := fw.Len()
	fw.budget = 1 << 20 // space came back; the Writer must not resume mid-record
	for name, call := range map[string]func() error{
		"Stage":  func() error { return w.Stage([]byte("x")) },
		"Append": func() error { return w.Append([]byte("x")) },
		"Flush":  w.Flush,
	} {
		if err := call(); err != first {
			t.Fatalf("%s after a failed write returned %v, want the first error", name, err)
		}
	}
	if fw.Len() != stored {
		t.Fatalf("poisoned writer wrote %d more bytes", fw.Len()-stored)
	}
	res, got := replayAll(t, fw.Bytes())
	if res.Verdict != VerdictTruncated || len(got) != 1 {
		t.Fatalf("half-written batch replays %+v with %d records", res, len(got))
	}
}

// TestAppendAllocatesNothing: once the staging buffer has grown, sealing and
// writing an epoch allocates nothing — one hasher, one buffer, both reused.
func TestAppendAllocatesNothing(t *testing.T) {
	w, err := NewWriter(io.Discard, testKey(), testSeed())
	if err != nil {
		t.Fatal(err)
	}
	group := bytes.Repeat([]byte{0x11}, 4700)
	commit := bytes.Repeat([]byte{0x22}, 41)
	epoch := func() {
		for i := 0; i < 8; i++ {
			if err := w.Stage(group); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Append(commit); err != nil {
			t.Fatal(err)
		}
	}
	epoch()
	if n := testing.AllocsPerRun(50, epoch); n != 0 {
		t.Fatalf("an epoch of 9 records allocates %.2f objects", n)
	}
}

package gf64

import (
	"math/rand"
	"testing"
)

// edgeValues are the operands most likely to expose windowing or reduction
// mistakes: boundary bits, all-ones, the reduction polynomial itself, and
// values with every window populated.
var edgeValues = []uint64{
	0, 1, 2, 3, 0xF, 0x10, 0x8000000000000000, 0xC000000000000000,
	0xFFFFFFFFFFFFFFFF, 0xFFFFFFFF00000000, 0x00000000FFFFFFFF,
	Poly, ^Poly, 0x8888888888888888, 0x1111111111111111,
	0xF0F0F0F0F0F0F0F0, 1 << 63, 1<<63 | 1, 0xFEDCBA9876543210,
}

// TestMulTableMatchesMul proves the table-driven path equivalent to the
// constant-time reference on 10k random pairs plus all edge-value pairs.
func TestMulTableMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		a, x := rng.Uint64(), rng.Uint64()
		tab := NewTable(x)
		if got, want := tab.Mul(a), Mul(a, x); got != want {
			t.Fatalf("NewTable(%#x).Mul(%#x) = %#x, want %#x", x, a, got, want)
		}
	}
	for _, x := range edgeValues {
		tab := NewTable(x)
		for _, a := range edgeValues {
			if got, want := tab.Mul(a), Mul(a, x); got != want {
				t.Fatalf("Table(%#x).Mul(%#x) = %#x, want %#x", x, a, got, want)
			}
		}
	}
}

// TestMulTableReusedAcrossOperands checks one table serves many operands
// (the usage pattern of a per-key table).
func TestMulTableReusedAcrossOperands(t *testing.T) {
	const x = 0x9E3779B97F4A7C15
	tab := NewTable(x)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10_000; i++ {
		a := rng.Uint64()
		if got, want := tab.Mul(a), Mul(a, x); got != want {
			t.Fatalf("tab.Mul(%#x) = %#x, want %#x", a, got, want)
		}
	}
}

// hornerTable is Horner over a table multiply: the shape of one chain of
// the MAC's two-chain hash (internal/crypto).
func hornerTable(t *Table, m []uint64) uint64 {
	var acc uint64
	for _, v := range m {
		acc = t.Mul(acc ^ v)
	}
	return acc
}

func TestHornerTableMatchesHorner(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 1_000; trial++ {
		x := rng.Uint64()
		m := make([]uint64, rng.Intn(12))
		for i := range m {
			m[i] = rng.Uint64()
		}
		tab := NewTable(x)
		if got, want := hornerTable(tab, m), Horner(x, m); got != want {
			t.Fatalf("hornerTable(x=%#x, m=%x) = %#x, want %#x", x, m, got, want)
		}
	}
}

func TestHornerTableEmpty(t *testing.T) {
	if hornerTable(NewTable(0xDEADBEEF), nil) != 0 {
		t.Fatal("hornerTable of empty message should be 0")
	}
}

// TestReduceHighFoldBits exercises the double-fold in Reduce with hi values
// whose top bits (60..63) set — the cases where the first fold of
// hi * (x^4+x^3+x+1) itself overflows past bit 63 and a second fold is
// required. Correctness is pinned against the bit-serial Mul.
func TestReduceHighFoldBits(t *testing.T) {
	cases := []uint64{
		1 << 60, 1 << 61, 1 << 62, 1 << 63,
		0xF << 60, 0xFFFFFFFFFFFFFFFF, 1<<63 | 1, 1<<63 | Poly,
		0xF000000000000001, 0x8000000000000000 | 1<<35,
	}
	for _, hi := range cases {
		for _, lo := range []uint64{0, 1, ^uint64(0), Poly} {
			// (hi, lo) is the unreduced product hi*x^64 + lo; since
			// x^64 ≡ Poly (mod p) and lo is already below x^64, the
			// reduced value is hi*Poly + lo computed in the field.
			want := Mul(hi, Poly) ^ lo
			if got := Reduce(hi, lo); got != want {
				t.Fatalf("Reduce(%#x, %#x) = %#x, want %#x", hi, lo, got, want)
			}
		}
	}
}

// TestReduceSecondFoldMatters proves the comment in Reduce honest: with the
// second fold disabled, high hi bits produce wrong results. This guards
// against "simplifying" the loop to one pass.
func TestReduceSecondFoldMatters(t *testing.T) {
	oneFold := func(hi, lo uint64) uint64 {
		return lo ^ hi ^ (hi << 1) ^ (hi << 3) ^ (hi << 4)
	}
	anyDiffer := false
	for _, hi := range []uint64{1 << 60, 1 << 61, 1 << 62, 1 << 63, 0xF << 60} {
		if oneFold(hi, 0) != Reduce(hi, 0) {
			anyDiffer = true
		}
	}
	if !anyDiffer {
		t.Fatal("single fold agreed with Reduce on all high-bit cases; test is vacuous")
	}
}

// TestMulWideConstantDistanceForm cross-checks the mask-accumulate MulWide
// against an independent per-bit accumulation with variable shifts.
func TestMulWideConstantDistanceForm(t *testing.T) {
	ref := func(a, b uint64) (hi, lo uint64) {
		for i := 0; i < 64; i++ {
			if b>>uint(i)&1 == 1 {
				lo ^= a << uint(i)
				if i > 0 {
					hi ^= a >> uint(64-i)
				}
			}
		}
		return hi, lo
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10_000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		hi, lo := MulWide(a, b)
		whi, wlo := ref(a, b)
		if hi != whi || lo != wlo {
			t.Fatalf("MulWide(%#x,%#x) = (%#x,%#x), want (%#x,%#x)", a, b, hi, lo, whi, wlo)
		}
	}
}

func BenchmarkMulTable(b *testing.B) {
	tab := NewTable(0xDEADBEEFCAFEBABE)
	var acc uint64 = 0x9E3779B97F4A7C15
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acc = tab.Mul(acc)
	}
	sink = acc
}

func BenchmarkHornerTable8(b *testing.B) {
	tab := NewTable(0xABCDEF0123456789)
	msg := make([]uint64, 8)
	for i := range msg {
		msg[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	b.ReportAllocs()
	b.ResetTimer()
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= hornerTable(tab, msg)
	}
	sink = acc
}

func BenchmarkNewTable(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkTable = NewTable(uint64(i) | 1)
	}
}

var sinkTable *Table

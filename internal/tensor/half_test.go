package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHalfExactValues(t *testing.T) {
	cases := map[float32]float32{
		0: 0, 1: 1, -1: -1, 0.5: 0.5, 2: 2, -2: -2,
		65504:          65504,          // max finite half
		0.000061035156: 0.000061035156, // min normal half
	}
	for in, want := range cases {
		if got := RoundHalf(in); got != want {
			t.Errorf("RoundHalf(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestHalfSpecials(t *testing.T) {
	if !math.IsInf(float64(RoundHalf(1e10)), 1) {
		t.Error("overflow should produce +Inf")
	}
	if !math.IsInf(float64(RoundHalf(float32(math.Inf(-1)))), -1) {
		t.Error("-Inf should survive")
	}
	if !math.IsNaN(float64(RoundHalf(float32(math.NaN())))) {
		t.Error("NaN should survive")
	}
	if RoundHalf(1e-10) != 0 {
		t.Error("tiny values should flush to zero")
	}
	// Subnormal half survives (2^-24 is the smallest subnormal).
	sub := float32(math.Ldexp(1, -24))
	if RoundHalf(sub) != sub {
		t.Errorf("smallest subnormal lost: %v", RoundHalf(sub))
	}
}

func TestHalfRoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1 and 1+2^-10; RNE keeps 1.
	halfway := float32(1 + math.Ldexp(1, -11))
	if got := RoundHalf(halfway); got != 1 {
		t.Errorf("halfway rounding = %v, want 1 (ties to even)", got)
	}
	// 1 + 3·2^-11 is halfway between 1+2^-10 and 1+2^-9; RNE rounds up to even.
	halfway2 := float32(1 + 3*math.Ldexp(1, -11))
	want := float32(1 + math.Ldexp(1, -9))
	if got := RoundHalf(halfway2); got != want {
		t.Errorf("halfway2 rounding = %v, want %v", got, want)
	}
}

// Property: RoundHalf is idempotent and the error is bounded by half an ulp
// (≤ 2^-11 relative for normal values).
func TestHalfRoundingProperty(t *testing.T) {
	f := func(x float32) bool {
		if math.IsNaN(float64(x)) {
			return true
		}
		r := RoundHalf(x)
		if RoundHalf(r) != r && !math.IsNaN(float64(r)) {
			return false // not idempotent
		}
		ax := math.Abs(float64(x))
		if ax > 6e4 || ax < 1e-4 {
			return true // outside the precise range; covered by specials
		}
		rel := math.Abs(float64(r)-float64(x)) / ax
		return rel <= math.Ldexp(1, -11)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHalfBitsRoundTrip(t *testing.T) {
	// Every one of the 65536 half patterns round-trips bit-exactly (modulo
	// NaN payload normalization).
	for i := 0; i <= 0xFFFF; i++ {
		h := uint16(i)
		f := FromHalfBits(h)
		if math.IsNaN(float64(f)) {
			if ToHalfBits(f)&0x7C00 != 0x7C00 {
				t.Fatalf("NaN pattern %#x did not stay NaN", h)
			}
			continue
		}
		if got := ToHalfBits(f); got != h {
			t.Fatalf("pattern %#x → %v → %#x", h, f, got)
		}
	}
}

// TestRoundHalfMatchesConversion checks RoundHalf's direct bit path bit for
// bit against the field-by-field conversion FromHalfBits(ToHalfBits(f)).
// It covers every sign, exponent and top-10-mantissa-bit combination (the
// bits binary16 keeps) with the low 13 bits set to each rounding case:
// zero, just above zero, just below, at and just above the halfway point,
// and all ones, plus neighbours of each (2^19 × 12 inputs); then signed
// zeros, infinities, NaN payloads and the largest finite half with its
// rounding neighbours.
func TestRoundHalfMatchesConversion(t *testing.T) {
	check := func(b uint32) {
		f := math.Float32frombits(b)
		got, want := math.Float32bits(RoundHalf(f)), math.Float32bits(FromHalfBits(ToHalfBits(f)))
		if got != want {
			t.Fatalf("RoundHalf(%#08x) = %#08x, conversion gives %#08x", b, got, want)
		}
	}
	lows := []uint32{0, 1, 2, 0x0800, 0x0FFE, 0x0FFF, 0x1000, 0x1001, 0x1002, 0x1800, 0x1FFE, 0x1FFF}
	for hi := uint32(0); hi < 1<<19; hi++ {
		for _, lo := range lows {
			check(hi<<13 | lo)
		}
	}
	for _, b := range []uint32{
		0x00000000, 0x80000000, // ±0
		0x7F800000, 0xFF800000, // ±Inf
		0x7FC00000, 0xFFC00000, 0x7F800001, 0x7FBFFFFF, 0x7FFFFFFF, 0xFFFFFFFF, // NaNs
		0x477FE000, 0x477FDFFF, 0x477FE001, // 65504 and its float32 neighbours
		0x477FEFFF, 0x477FF000, 0x477FF001, // around 65520, the overflow tie
		0x47800000, 0xC77FE000, 0xC77FF000, // 65536, -65504, -65520
		0x38800000, 0x387FFFFF, 0x387FF000, 0x387FEFFF, // around 2^-14, the smallest normal
	} {
		check(b)
	}
}

package tensor

import "math"

// IEEE 754 half-precision (binary16) conversion, used by the simulator's
// FP16 mode (the Fig. 17 design represents all network data structures in
// half precision). Rounding is round-to-nearest-even, matching hardware FMA
// output quantization.

// ToHalfBits converts a float32 to binary16 bits.
func ToHalfBits(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23&0xFF) - 127 + 15
	mant := b & 0x7FFFFF

	switch {
	case exp >= 31: // overflow or Inf/NaN
		if int32(b>>23&0xFF) == 255 {
			if mant != 0 {
				return sign | 0x7E00 // NaN
			}
			return sign | 0x7C00 // Inf
		}
		return sign | 0x7C00 // overflow → Inf
	case exp <= 0: // subnormal or underflow
		if exp < -10 {
			return sign // flush to zero
		}
		mant |= 0x800000 // implicit leading 1
		shift := uint32(14 - exp)
		half := mant >> shift
		// round to nearest even
		rem := mant & ((1 << shift) - 1)
		mid := uint32(1) << (shift - 1)
		if rem > mid || (rem == mid && half&1 == 1) {
			half++
		}
		return sign | uint16(half)
	default:
		half := uint16(exp)<<10 | uint16(mant>>13)
		rem := mant & 0x1FFF
		if rem > 0x1000 || (rem == 0x1000 && half&1 == 1) {
			half++ // may carry into the exponent, which is correct
		}
		return sign | half
	}
}

// FromHalfBits converts binary16 bits to float32.
func FromHalfBits(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1F)
	mant := uint32(h & 0x3FF)
	switch exp {
	case 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// subnormal: normalize
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3FF
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case 31:
		if mant == 0 {
			return math.Float32frombits(sign | 0x7F800000)
		}
		return math.Float32frombits(sign | 0x7FC00000 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | mant<<13)
	}
}

// Float32 bit bounds of RoundHalf's direct path: |f| from the smallest
// normal binary16 (2^-14) up to, but excluding, 65520 — the midpoint
// between the largest finite half (65504) and 65536, which rounds to even
// and so overflows to Inf.
const (
	halfNormalMinBits = 0x38800000
	halfOverflowBits  = 0x477FF000
)

// roundHalfDirect rounds float32 bits b that stay normal in binary16: round
// to nearest even at bit 13, the lowest mantissa bit binary16 keeps, then
// clear the 13 bits below it (a carry out of the mantissa bumps the
// exponent, which is correct). The same arithmetic leaves ±0 as it is, and
// the datapath writes many zeros (ReLU outputs, MEMSET fills), so ±0 takes
// this path too. ok is false for every other input.
func roundHalfDirect(b uint32) (r uint32, ok bool) {
	if a := b &^ (1 << 31); a != 0 && a-halfNormalMinBits >= halfOverflowBits-halfNormalMinBits {
		return 0, false
	}
	return (b + 0x0FFF + (b >> 13 & 1)) &^ 0x1FFF, true
}

// RoundHalf rounds a float32 through binary16 (the value a half-precision
// datapath would store). ±0 and values that stay normal in binary16 round
// directly on the float32 bits (roundHalfDirect); subnormal, overflowing,
// Inf and NaN inputs go through FromHalfBits(ToHalfBits(f)), which
// TestRoundHalfMatchesConversion checks the direct path against.
func RoundHalf(f float32) float32 {
	if r, ok := roundHalfDirect(math.Float32bits(f)); ok {
		return math.Float32frombits(r)
	}
	return FromHalfBits(ToHalfBits(f))
}

// RoundHalfSlice rounds a slice in place. It takes the direct path inline,
// since RoundHalf itself is too large for the compiler to inline.
func RoundHalfSlice(vals []float32) {
	for i, v := range vals {
		if r, ok := roundHalfDirect(math.Float32bits(v)); ok {
			vals[i] = math.Float32frombits(r)
		} else {
			vals[i] = RoundHalf(v)
		}
	}
}

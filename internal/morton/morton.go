// Package morton provides space-filling-curve (Z-order) codes in k
// dimensions. Coordinates are normalized into a bounding box and
// quantized to Bits-per-axis integers whose bits are interleaved, so
// points close in space are close on the curve. The sharded planning
// pipeline's shard key and the merge solvers' Z-order neighbor pruning
// share it.
//
// A code uses k·Bits of the returned uint64 (most significant bit of
// the interleaving first within those bits), so prefixes of a code are
// spatial cells: taking the top b bits of the used range partitions the
// box into 2^b Z-order cells of equal volume. That prefix is the shard
// key of the internal/shard planning pipeline.
package morton

// Bits is the per-axis quantization resolution. 16 bits per axis keeps
// codes of up to 4 dimensions inside a uint64.
const Bits = 16

// MaxDims is the largest dimensionality a single uint64 code supports
// at the package resolution.
const MaxDims = 64 / Bits

// Normalize quantizes v within [lo, hi] to the Bits-wide integer range,
// clamping values outside the bounds. Degenerate bounds (hi <= lo)
// quantize to 0, so constant axes never perturb the interleaving.
func Normalize(v, lo, hi float64) uint32 {
	if hi <= lo {
		return 0
	}
	f := (v - lo) / (hi - lo)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return uint32(f * float64((1<<Bits)-1))
}

// Interleave spreads the low 16 bits of v so there is a zero bit between
// each pair of consecutive bits (the 2-D dilation). Axis i of a 2-D code
// is Interleave(x_i) shifted left by i.
func Interleave(v uint32) uint64 {
	x := uint64(v) & 0xFFFF
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// Code2 interleaves two normalized 16-bit coordinates into a 32-bit
// Morton code (x in the even bits, y in the odd bits): the 2-D key of
// the shard pipeline and of the neighbor pruning.
func Code2(x, y uint32) uint64 {
	return Interleave(x) | Interleave(y)<<1
}

// Code interleaves one normalized Bits-wide value per axis into a
// k·Bits-bit Morton code. Axis 0 occupies the least significant bit of
// each k-bit group. It panics when len(coords) is 0 or exceeds MaxDims.
func Code(coords []uint32) uint64 {
	k := len(coords)
	if k == 0 || k > MaxDims {
		panic("morton: dimensionality outside [1, MaxDims]")
	}
	if k == 2 {
		return Code2(coords[0], coords[1])
	}
	var code uint64
	for bit := 0; bit < Bits; bit++ {
		for axis := 0; axis < k; axis++ {
			code |= uint64(coords[axis]>>uint(bit)&1) << uint(bit*k+axis)
		}
	}
	return code
}

// CodePoint normalizes a k-dimensional point within the box [lo, hi]
// and returns its Morton code. lo and hi must have the same length as
// the point.
func CodePoint(p, lo, hi []float64) uint64 {
	if len(p) > MaxDims {
		panic("morton: dimensionality outside [1, MaxDims]")
	}
	var coords [MaxDims]uint32
	for i := range p {
		coords[i] = Normalize(p[i], lo[i], hi[i])
	}
	return Code(coords[:len(p)])
}

// UsedBits returns the number of significant bits in a k-dimensional
// code at the package resolution.
func UsedBits(k int) int { return k * Bits }

// Prefix returns the top `bits` bits of a k-dimensional code — the
// Z-order cell index partitioning the space into 2^bits cells. bits
// values outside [0, UsedBits(k)] are clamped.
func Prefix(code uint64, k, bits int) int {
	used := UsedBits(k)
	if bits <= 0 {
		return 0
	}
	if bits > used {
		bits = used
	}
	return int(code >> uint(used-bits))
}

package morton

import (
	"math/rand"
	"testing"
)

func TestNormalizeClamps(t *testing.T) {
	if got := Normalize(-5, 0, 10); got != 0 {
		t.Fatalf("below-range value normalized to %d, want 0", got)
	}
	if got := Normalize(15, 0, 10); got != (1<<Bits)-1 {
		t.Fatalf("above-range value normalized to %d, want max", got)
	}
	if got := Normalize(3, 7, 7); got != 0 {
		t.Fatalf("degenerate bounds normalized to %d, want 0", got)
	}
}

func TestInterleaveSpreadsBits(t *testing.T) {
	// Every set bit of the input must land at twice its position.
	v := uint32(0b1011)
	want := uint64(0b1000101)
	if got := Interleave(v); got != want {
		t.Fatalf("Interleave(%b) = %b, want %b", v, got, want)
	}
}

func TestCodeMatchesCode2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		x := uint32(rng.Intn(1 << Bits))
		y := uint32(rng.Intn(1 << Bits))
		if Code([]uint32{x, y}) != Code2(x, y) {
			t.Fatalf("Code and Code2 disagree for (%d, %d)", x, y)
		}
	}
}

// TestCodeGenericMatchesSlow cross-checks the generic interleaver against
// a bit-at-a-time reference in 3 and 4 dimensions.
func TestCodeGenericMatchesSlow(t *testing.T) {
	slow := func(coords []uint32) uint64 {
		k := len(coords)
		var code uint64
		for bit := 0; bit < Bits; bit++ {
			for axis := 0; axis < k; axis++ {
				if coords[axis]&(1<<uint(bit)) != 0 {
					code |= 1 << uint(bit*k+axis)
				}
			}
		}
		return code
	}
	rng := rand.New(rand.NewSource(2))
	for _, k := range []int{1, 3, 4} {
		for i := 0; i < 200; i++ {
			coords := make([]uint32, k)
			for d := range coords {
				coords[d] = uint32(rng.Intn(1 << Bits))
			}
			if got, want := Code(coords), slow(coords); got != want {
				t.Fatalf("k=%d Code(%v) = %x, want %x", k, coords, got, want)
			}
		}
	}
}

// TestPrefixPartitions checks that prefixes split the unit square into
// the expected quadrants: the top 2 bits of a 2-D code are (y_hi, x_hi).
// In one dimension the code is the coordinate itself
// (TestCodeGenericMatchesSlow), so the 2-bit prefixes are the axis'
// quarters in order: every prefix shard of a 1-D key is a contiguous run
// of the sorted coordinates.
func TestPrefixPartitions(t *testing.T) {
	cases := []struct {
		p    []float64
		want int
	}{
		{[]float64{0.1, 0.1}, 0}, // low x, low y
		{[]float64{0.9, 0.1}, 1}, // high x, low y
		{[]float64{0.1, 0.9}, 2}, // low x, high y
		{[]float64{0.9, 0.9}, 3}, // high x, high y
		{[]float64{0.1}, 0},
		{[]float64{0.3}, 1},
		{[]float64{0.6}, 2},
		{[]float64{0.9}, 3},
	}
	for _, c := range cases {
		k := len(c.p)
		lo, hi := make([]float64, k), make([]float64, k)
		for d := range hi {
			hi[d] = 1
		}
		if got := Prefix(CodePoint(c.p, lo, hi), k, 2); got != c.want {
			t.Fatalf("Prefix of %v = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestPrefixClamping(t *testing.T) {
	code := Code([]uint32{12345, 54321})
	if got := Prefix(code, 2, 0); got != 0 {
		t.Fatalf("zero-bit prefix = %d, want 0", got)
	}
	if got := Prefix(code, 2, 99); got != int(code) {
		t.Fatalf("over-wide prefix = %d, want full code %d", got, code)
	}
}

// TestPrefixLocality samples nearby and distant point pairs: points in
// the same quadrant must share the 2-bit prefix; distinct quadrants must
// not.
func TestPrefixLocality(t *testing.T) {
	lo := []float64{0, 0, 0}
	hi := []float64{100, 100, 100}
	a := CodePoint([]float64{10, 10, 10}, lo, hi)
	b := CodePoint([]float64{20, 20, 20}, lo, hi)
	c := CodePoint([]float64{90, 90, 90}, lo, hi)
	if Prefix(a, 3, 3) != Prefix(b, 3, 3) {
		t.Fatalf("nearby points landed in different octants")
	}
	if Prefix(a, 3, 3) == Prefix(c, 3, 3) {
		t.Fatalf("opposite corners landed in the same octant")
	}
}

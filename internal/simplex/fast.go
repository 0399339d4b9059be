// The kernel's machine-word instance: rat64, a normalized int64 fraction,
// computed by fastArith. Arithmetic is exact (never floats), so a solve
// that finishes on rat64 returns the same statuses, pivot count and vertex
// as one on big.Rat. Every operation is overflow-checked and the
// numerator/denominator magnitudes are capped (maxFastMag). An operation
// that leaves that range sets fastArith's sticky overflow flag and returns
// 0/1. The values computed after it are meaningless, so the kernel reads
// the flag before it charges the next pivot and, once it is set, Solve
// reruns the whole solve on big.Rat.
package simplex

import (
	"math"
	"math/big"
)

// maxFastMag caps the absolute numerator and the denominator of every
// rat64. 1<<46 leaves ~17 bits of headroom under int64 for the
// cross-multiplications inside add/compare, and doubles as the
// near-degenerate guard: tableaus whose entries genuinely need larger
// numbers are exactly the ones where int64 pivoting would thrash through
// fallbacks one operation at a time, so bail out early and wholesale.
const maxFastMag = int64(1) << 46

// rat64 is a normalized machine-word rational: d > 0, gcd(|n|, d) == 1.
// The zero value is 0/0 and invalid; fastArith never returns it.
type rat64 struct {
	n, d int64
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// gcd64 is the nonnegative gcd of nonnegative operands (gcd64(0, b) == b).
func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func sign1(v int64) int64 {
	if v < 0 {
		return -1
	}
	return 1
}

// fastArith computes on rat64. overflow is sticky: once an operation
// leaves the capped int64 range, it stays set for the rest of the solve.
type fastArith struct {
	overflow bool
}

// fail records an overflow and returns the placeholder 0/1, a valid rat64,
// so the operations that follow never divide by zero.
//
//xic:hotpath
func (f *fastArith) fail() rat64 {
	f.overflow = true
	return rat64{0, 1}
}

//xic:hotpath
func (f *fastArith) overflowed() bool { return f.overflow }

// makeRat normalizes n/d. It fails on d == 0, on MinInt64 operands (whose
// negation overflows), and on magnitudes beyond maxFastMag.
//
//xic:hotpath
func (f *fastArith) makeRat(n, d int64) rat64 {
	if d == 0 || n == math.MinInt64 || d == math.MinInt64 {
		return f.fail()
	}
	if d < 0 {
		n, d = -n, -d
	}
	if n == 0 {
		return rat64{0, 1}
	}
	g := gcd64(abs64(n), d)
	n, d = n/g, d/g
	if n > maxFastMag || n < -maxFastMag || d > maxFastMag {
		return f.fail()
	}
	return rat64{n, d}
}

// makeInt is makeRat(n, 1) without the gcd: the magnitude cap is the only
// check an integer needs.
//
//xic:hotpath
func (f *fastArith) makeInt(n int64) rat64 {
	if n > maxFastMag || n < -maxFastMag {
		return f.fail()
	}
	return rat64{n, 1}
}

// mul64 is overflow-checked multiplication. Operands of MinInt64 are
// rejected up front: MinInt64 * -1 wraps to itself and would pass the
// division test below.
//
//xic:hotpath
func (f *fastArith) mul64(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a == math.MinInt64 || b == math.MinInt64 {
		f.overflow = true
		return 0
	}
	r := a * b
	if r/b != a {
		f.overflow = true
		return 0
	}
	return r
}

// add64 is overflow-checked addition.
//
//xic:hotpath
func (f *fastArith) add64(a, b int64) int64 {
	r := a + b
	if (a > 0 && b > 0 && r < 0) || (a < 0 && b < 0 && r >= 0) {
		f.overflow = true
		return 0
	}
	return r
}

// fromRat converts an exact rational, failing when it does not fit the
// capped int64 range.
func (f *fastArith) fromRat(v *big.Rat) rat64 {
	if !v.Num().IsInt64() || !v.Denom().IsInt64() {
		return f.fail()
	}
	return f.makeRat(v.Num().Int64(), v.Denom().Int64())
}

//xic:hotpath
func (f *fastArith) fromInt(v int64) rat64 { return f.makeInt(v) }

func (*fastArith) setRat(dst *big.Rat, v rat64) { dst.SetFrac64(v.n, v.d) }

//xic:hotpath
func (*fastArith) sign(a rat64) int {
	switch {
	case a.n > 0:
		return 1
	case a.n < 0:
		return -1
	}
	return 0
}

//xic:hotpath
func (*fastArith) neg(a rat64) rat64 { return rat64{-a.n, a.d} }

// inv fails on zero (a pivot element is never zero, so this is defensive).
//
//xic:hotpath
func (f *fastArith) inv(a rat64) rat64 {
	if a.n == 0 {
		return f.fail()
	}
	return f.makeRat(a.d*sign1(a.n), abs64(a.n))
}

// add adds with every overflow and magnitude check. Integer operands, the
// common case on cardinality encodings, skip the cross-multiplication and
// the gcd.
//
//xic:hotpath
func (f *fastArith) add(a, b rat64) rat64 {
	if a.d == 1 && b.d == 1 {
		return f.makeInt(f.add64(a.n, b.n))
	}
	n := f.add64(f.mul64(a.n, b.d), f.mul64(b.n, a.d))
	return f.makeRat(n, f.mul64(a.d, b.d))
}

//xic:hotpath
func (f *fastArith) sub(a, b rat64) rat64 { return f.add(a, rat64{-b.n, b.d}) }

// mul cross-cancels before multiplying so products stay as small as the
// normalized result allows. Integer operands skip the cancellation.
//
//xic:hotpath
func (f *fastArith) mul(a, b rat64) rat64 {
	if a.d == 1 && b.d == 1 {
		return f.makeInt(f.mul64(a.n, b.n))
	}
	g1 := gcd64(abs64(a.n), b.d)
	g2 := gcd64(abs64(b.n), a.d)
	n := f.mul64(a.n/g1, b.n/g2)
	return f.makeRat(n, f.mul64(a.d/g2, b.d/g1))
}

// mulSub, negMul and quo compose the checked operations in a fixed order:
// which inputs overflow, and so every pinned pivot and fallback count,
// depends on it.
//
//xic:hotpath
func (f *fastArith) mulSub(a, fa, b rat64) rat64 { return f.sub(a, f.mul(fa, b)) }

//xic:hotpath
func (f *fastArith) negMul(fa, b rat64) rat64 { return f.neg(f.mul(fa, b)) }

//xic:hotpath
func (f *fastArith) quo(a, b rat64) rat64 { return f.mul(a, f.inv(b)) }

// cmp compares a and b by cross-multiplication; the products are checked
// because two in-range rationals can still overflow int64 when crossed.
//
//xic:hotpath
func (f *fastArith) cmp(a, b rat64) int {
	l, r := f.mul64(a.n, b.d), f.mul64(b.n, a.d)
	switch {
	case l < r:
		return -1
	case l > r:
		return 1
	}
	return 0
}

// firstNegative is Bland's entering rule: the first column of the reduced
// costs row whose cost is negative, or -1.
//
//xic:hotpath
func (*fastArith) firstNegative(row []rat64) int {
	for j, v := range row {
		if v.n < 0 {
			return j
		}
	}
	return -1
}

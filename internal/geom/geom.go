// Package geom provides the planar geometric predicates needed by the
// incremental Delaunay triangulation: Orient2D (is a point left of, right
// of, or on a directed line) and InCircle (is a point inside, outside, or
// on the circumcircle of a triangle).
//
// Both predicates use a fast float64 path with a forward-error-bound filter
// in the style of Shewchuk's adaptive predicates; when the filter cannot
// certify the sign, they fall back to exact rational arithmetic via
// math/big. This makes the predicates exact for all *finite* float64
// inputs, which the conflict-graph Delaunay algorithm relies on for
// termination. NaN and the infinities have no rational value — the exact
// fallback panics on them — so callers must reject such coordinates first
// (package delaunay does, at every entry point).
package geom

import "math/big"

// Point is a point in the plane.
type Point struct {
	X, Y float64
}

// Sign is the result of an exact predicate.
type Sign int

// Predicate results: Negative, Zero, or Positive determinant sign.
const (
	Negative Sign = -1
	Zero     Sign = 0
	Positive Sign = 1
)

// Machine epsilon for float64 (2^-53).
const epsilon = 1.1102230246251565e-16

// Error-bound coefficients, following Shewchuk's derivation: a sign
// computed by the naive expression is certain when the magnitude exceeds
// these multiples of the accumulated magnitudes.
var (
	ccwErrBound      = (3.0 + 16.0*epsilon) * epsilon
	inCircleErrBound = (10.0 + 96.0*epsilon) * epsilon
)

// Orient2D returns the sign of the signed area of triangle (a, b, c):
// Positive if the triangle is counter-clockwise, Negative if clockwise,
// Zero if the points are collinear.
func Orient2D(a, b, c Point) Sign {
	detLeft := (a.X - c.X) * (b.Y - c.Y)
	detRight := (a.Y - c.Y) * (b.X - c.X)
	det := detLeft - detRight

	var detSum float64
	if detLeft > 0 {
		if detRight <= 0 {
			return signOf(det)
		}
		detSum = detLeft + detRight
	} else if detLeft < 0 {
		if detRight >= 0 {
			return signOf(det)
		}
		detSum = -detLeft - detRight
	} else {
		return signOf(det)
	}
	if det >= ccwErrBound*detSum || -det >= ccwErrBound*detSum {
		return signOf(det)
	}
	return orient2DExact(a, b, c)
}

func signOf(x float64) Sign {
	switch {
	case x > 0:
		return Positive
	case x < 0:
		return Negative
	default:
		return Zero
	}
}

func orient2DExact(a, b, c Point) Sign {
	ax := new(big.Rat).SetFloat64(a.X)
	ay := new(big.Rat).SetFloat64(a.Y)
	bx := new(big.Rat).SetFloat64(b.X)
	by := new(big.Rat).SetFloat64(b.Y)
	cx := new(big.Rat).SetFloat64(c.X)
	cy := new(big.Rat).SetFloat64(c.Y)

	acx := new(big.Rat).Sub(ax, cx)
	bcy := new(big.Rat).Sub(by, cy)
	acy := new(big.Rat).Sub(ay, cy)
	bcx := new(big.Rat).Sub(bx, cx)

	left := new(big.Rat).Mul(acx, bcy)
	right := new(big.Rat).Mul(acy, bcx)
	return Sign(left.Cmp(right))
}

// InCircle returns Positive if d lies strictly inside the circumcircle of
// the counter-clockwise triangle (a, b, c), Negative if strictly outside,
// and Zero if the four points are cocircular. The triangle must be in
// counter-clockwise orientation for the sign convention to hold.
func InCircle(a, b, c, d Point) Sign {
	adx := a.X - d.X
	ady := a.Y - d.Y
	bdx := b.X - d.X
	bdy := b.Y - d.Y
	cdx := c.X - d.X
	cdy := c.Y - d.Y

	bdxcdy := bdx * cdy
	cdxbdy := cdx * bdy
	alift := adx*adx + ady*ady

	cdxady := cdx * ady
	adxcdy := adx * cdy
	blift := bdx*bdx + bdy*bdy

	adxbdy := adx * bdy
	bdxady := bdx * ady
	clift := cdx*cdx + cdy*cdy

	det := alift*(bdxcdy-cdxbdy) + blift*(cdxady-adxcdy) + clift*(adxbdy-bdxady)

	permanent := (abs(bdxcdy)+abs(cdxbdy))*alift +
		(abs(cdxady)+abs(adxcdy))*blift +
		(abs(adxbdy)+abs(bdxady))*clift
	errBound := inCircleErrBound * permanent
	if det > errBound || -det > errBound {
		return signOf(det)
	}
	return inCircleExact(a, b, c, d)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func inCircleExact(a, b, c, d Point) Sign {
	// Compute the 3x3 determinant
	//   | ax-dx  ay-dy  (ax-dx)^2+(ay-dy)^2 |
	//   | bx-dx  by-dy  (bx-dx)^2+(by-dy)^2 |
	//   | cx-dx  cy-dy  (cx-dx)^2+(cy-dy)^2 |
	// exactly over rationals.
	dx := new(big.Rat).SetFloat64(d.X)
	dy := new(big.Rat).SetFloat64(d.Y)

	row := func(p Point) (x, y, lift *big.Rat) {
		x = new(big.Rat).Sub(new(big.Rat).SetFloat64(p.X), dx)
		y = new(big.Rat).Sub(new(big.Rat).SetFloat64(p.Y), dy)
		xx := new(big.Rat).Mul(x, x)
		yy := new(big.Rat).Mul(y, y)
		lift = new(big.Rat).Add(xx, yy)
		return
	}
	ax, ay, al := row(a)
	bx, by, bl := row(b)
	cx, cy, cl := row(c)

	// Cofactor expansion along the lift column.
	minor := func(x1, y1, x2, y2 *big.Rat) *big.Rat {
		m1 := new(big.Rat).Mul(x1, y2)
		m2 := new(big.Rat).Mul(x2, y1)
		return new(big.Rat).Sub(m1, m2)
	}
	det := new(big.Rat).Mul(al, minor(bx, by, cx, cy))
	det.Sub(det, new(big.Rat).Mul(bl, minor(ax, ay, cx, cy)))
	det.Add(det, new(big.Rat).Mul(cl, minor(ax, ay, bx, by)))
	return Sign(det.Sign())
}

// InTriangle reports whether p lies inside or on the boundary of the
// counter-clockwise triangle (a, b, c).
func InTriangle(a, b, c, p Point) bool {
	return Orient2D(a, b, p) >= 0 && Orient2D(b, c, p) >= 0 && Orient2D(c, a, p) >= 0
}

// Package delaunay implements randomized incremental Delaunay triangulation
// by the Bowyer-Watson algorithm with a Guibas-Knuth/Clarkson-Shor conflict
// graph, in expected O(n log n) time for random insertion orders.
//
// Beyond producing the triangulation, the package extracts the dependency
// DAG that the paper's framework (Section 3) executes under relaxed
// schedulers: when point i is inserted, every not-yet-inserted point j
// lying in the circumcircle of a destroyed (cavity) triangle "encroaches"
// on i's update — right before i is added, i's and j's encroaching regions
// share a triangle, hence at least an edge — so j depends on i. This is the
// operational dependency of Blelloch, Gu, Shun & Sun (SPAA 2016) [10],
// which satisfies the p_ij <= C/i property that Theorem 3.3 requires.
//
// The implementation uses a super-triangle whose vertices lie far outside
// the input's bounding box; triangles incident to super vertices are
// excluded from the reported mesh. Predicates are exact (package geom), so
// the algorithm is robust for all finite float64 inputs; exact duplicate
// points and non-finite coordinates are rejected.
package delaunay

import (
	"fmt"
	"math"

	"relaxsched/internal/core"
	"relaxsched/internal/geom"
)

// tri is one triangle of the evolving triangulation.
type tri struct {
	v     [3]int32 // vertex point ids, counter-clockwise
	nb    [3]int32 // nb[i] is the neighbor across the edge opposite v[i]; -1 = none
	alive bool
	pts   []int32 // conflict list: uninserted points inside the circumcircle
}

// Triangulation is an incremental Delaunay triangulation under
// construction. Create with New, add points with Insert (in any order), and
// read the result with Triangles.
type Triangulation struct {
	pts      []geom.Point // input points followed by the 3 super vertices
	n        int          // number of input points
	tris     []tri
	inserted []bool
	conflict []int32 // uninserted point id -> some conflicting triangle

	// onDepend, when non-nil, is called as onDepend(i, j) for every
	// uninserted point j encroached by the insertion of i.
	onDepend func(i, j int)

	// scratch state
	visit      []int32 // triangle id -> visit epoch
	visitEpoch int32
	ptMark     []int32 // point id -> dedup epoch
	ptEpoch    int32
	cavity     []int32
	candidates []int32
	byFirst    map[int32]int32
	bySecond   map[int32]int32
}

// New prepares a triangulation over the given points. Points must be
// distinct; Insert reports an error otherwise. The slice is not retained.
func New(points []geom.Point) *Triangulation {
	n := len(points)
	t := &Triangulation{
		pts:      make([]geom.Point, n, n+3),
		n:        n,
		inserted: make([]bool, n),
		conflict: make([]int32, n),
		visit:    nil,
		ptMark:   make([]int32, n),
		byFirst:  make(map[int32]int32, 8),
		bySecond: make(map[int32]int32, 8),
	}
	copy(t.pts, points)

	sa, sb, sc := superVertices(points)
	t.pts = append(t.pts, sa, sb, sc)

	root := tri{
		v:     [3]int32{int32(n), int32(n + 1), int32(n + 2)},
		nb:    [3]int32{-1, -1, -1},
		alive: true,
	}
	// Ensure CCW.
	if geom.Orient2D(sa, sb, sc) != geom.Positive {
		root.v[1], root.v[2] = root.v[2], root.v[1]
	}
	root.pts = make([]int32, n)
	for i := range root.pts {
		root.pts[i] = int32(i)
	}
	t.tris = append(t.tris, root)
	t.visit = append(t.visit, 0)
	for i := range t.conflict {
		t.conflict[i] = 0
	}
	return t
}

// boundingBox returns the axis-aligned bounding box of points (the unit
// square when there are none).
func boundingBox(points []geom.Point) (minX, minY, maxX, maxY float64) {
	if len(points) == 0 {
		return 0, 0, 1, 1
	}
	minX, minY = points[0].X, points[0].Y
	maxX, maxY = minX, minY
	for _, p := range points[1:] {
		if p.X < minX {
			minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	return minX, minY, maxX, maxY
}

// superVertices returns the three vertices of a super-triangle lying far
// outside the bounding box of points, so no input point's circumcircle
// relationship with real triangles is disturbed by the artificial corners.
func superVertices(points []geom.Point) (sa, sb, sc geom.Point) {
	minX, minY, maxX, maxY := boundingBox(points)
	span := maxX - minX
	if maxY-minY > span {
		span = maxY - minY
	}
	if span <= 0 {
		span = 1
	}
	cx, cy := (minX+maxX)/2, (minY+maxY)/2
	const m = 1e6
	sa = geom.Point{X: cx - 3*m*span, Y: cy - m*span}
	sb = geom.Point{X: cx + 3*m*span, Y: cy - m*span}
	sc = geom.Point{X: cx, Y: cy + 3*m*span}
	return sa, sb, sc
}

// OnDepend registers a callback invoked as f(i, j) whenever the insertion
// of point i encroaches the not-yet-inserted point j. Used by BuildDAG.
func (t *Triangulation) OnDepend(f func(i, j int)) { t.onDepend = f }

// NumInserted returns the number of points inserted so far.
func (t *Triangulation) NumInserted() int {
	count := 0
	for _, in := range t.inserted {
		if in {
			count++
		}
	}
	return count
}

// inConflict reports whether point p is strictly inside ti's circumcircle.
func (t *Triangulation) inConflict(ti int32, p geom.Point) bool {
	tr := &t.tris[ti]
	return geom.InCircle(t.pts[tr.v[0]], t.pts[tr.v[1]], t.pts[tr.v[2]], p) == geom.Positive
}

// Insert adds point id p (0-based index into the constructor's slice) to
// the triangulation. Points may be inserted in any order; each id must be
// inserted exactly once.
func (t *Triangulation) Insert(p int) error {
	if p < 0 || p >= t.n {
		return fmt.Errorf("delaunay: point id %d out of range", p)
	}
	if t.inserted[p] {
		return fmt.Errorf("delaunay: point %d already inserted", p)
	}
	pp := t.pts[p]

	// 1. Grow the conflict cavity from the tracked conflicting triangle.
	start := t.conflict[p]
	if !t.tris[start].alive {
		return fmt.Errorf("delaunay: internal error: stale conflict pointer for point %d", p)
	}
	if !t.inConflict(start, pp) {
		// Exact duplicates (and only those, given exact predicates and the
		// conflict invariant) have no conflicting triangle.
		return fmt.Errorf("delaunay: point %d conflicts with nothing; duplicate point?", p)
	}
	t.visitEpoch++
	t.cavity = t.cavity[:0]
	t.cavity = append(t.cavity, start)
	t.visit[start] = t.visitEpoch
	for head := 0; head < len(t.cavity); head++ {
		ti := t.cavity[head]
		for k := 0; k < 3; k++ {
			nb := t.tris[ti].nb[k]
			if nb < 0 || t.visit[nb] == t.visitEpoch {
				continue
			}
			t.visit[nb] = t.visitEpoch
			if t.inConflict(nb, pp) {
				t.cavity = append(t.cavity, nb)
			}
		}
	}

	// 2. Collect candidate dependents: union of cavity conflict lists.
	t.ptEpoch++
	t.candidates = t.candidates[:0]
	for _, ti := range t.cavity {
		for _, q := range t.tris[ti].pts {
			if q == int32(p) || t.inserted[q] || t.ptMark[q] == t.ptEpoch {
				continue
			}
			t.ptMark[q] = t.ptEpoch
			t.candidates = append(t.candidates, q)
		}
	}
	if t.onDepend != nil {
		for _, q := range t.candidates {
			t.onDepend(p, int(q))
		}
	}

	// 3. Walk the cavity boundary and build the star of new triangles.
	clear(t.byFirst)
	clear(t.bySecond)
	firstNew := int32(len(t.tris))
	for _, ti := range t.cavity {
		for k := 0; k < 3; k++ {
			nb := t.tris[ti].nb[k]
			if nb >= 0 && t.visit[nb] == t.visitEpoch && t.inCavity(nb) {
				continue // internal edge
			}
			a := t.tris[ti].v[(k+1)%3]
			b := t.tris[ti].v[(k+2)%3]
			nt := int32(len(t.tris))
			t.tris = append(t.tris, tri{
				v:     [3]int32{a, b, int32(p)},
				nb:    [3]int32{-1, -1, nb},
				alive: true,
			})
			t.visit = append(t.visit, 0)
			t.byFirst[a] = nt
			t.bySecond[b] = nt
			if nb >= 0 {
				// Re-point the outer neighbor from the dead triangle to nt.
				for x := 0; x < 3; x++ {
					if t.tris[nb].nb[x] == ti {
						t.tris[nb].nb[x] = nt
						break
					}
				}
			}
		}
	}
	// Link the fan: triangle (a, b, p) meets byFirst[b] across edge (b, p)
	// and bySecond[a] across edge (p, a).
	for nt := firstNew; nt < int32(len(t.tris)); nt++ {
		a, b := t.tris[nt].v[0], t.tris[nt].v[1]
		t.tris[nt].nb[0] = t.byFirst[b]
		t.tris[nt].nb[1] = t.bySecond[a]
	}

	// 4. Redistribute conflicts of the dead triangles to the new ones.
	for _, q := range t.candidates {
		qq := t.pts[q]
		found := int32(-1)
		for nt := firstNew; nt < int32(len(t.tris)); nt++ {
			if t.inConflict(nt, qq) {
				t.tris[nt].pts = append(t.tris[nt].pts, q)
				found = nt
			}
		}
		if found >= 0 {
			t.conflict[q] = found
			continue
		}
		// q no longer conflicts with any new triangle; its pointer must be
		// rebuilt from the surviving lists it still appears on. Walk all
		// alive triangles as a (rare, exactness-guarded) fallback.
		if alt := t.findConflictSlow(qq); alt >= 0 {
			t.conflict[q] = alt
		} else {
			return fmt.Errorf("delaunay: point %d lost all conflicts; duplicate point?", q)
		}
	}

	// 5. Kill the cavity.
	for _, ti := range t.cavity {
		t.tris[ti].alive = false
		t.tris[ti].pts = nil
	}
	t.inserted[p] = true
	return nil
}

// inCavity reports whether a visited triangle belongs to the current
// cavity (it was visited and found in conflict). Visited non-conflicting
// triangles are boundary neighbors.
func (t *Triangulation) inCavity(ti int32) bool {
	for _, c := range t.cavity {
		if c == ti {
			return true
		}
	}
	return false
}

// findConflictSlow scans all alive triangles for one in conflict with q.
func (t *Triangulation) findConflictSlow(q geom.Point) int32 {
	for ti := range t.tris {
		if t.tris[ti].alive && t.inConflict(int32(ti), q) {
			return int32(ti)
		}
	}
	return -1
}

// Triangle is one triangle of the final mesh, as indices into the input
// point slice, in counter-clockwise order.
type Triangle struct {
	A, B, C int
}

// Triangles returns the triangles of the current mesh, excluding those
// incident to the artificial super-triangle vertices.
func (t *Triangulation) Triangles() []Triangle {
	out := make([]Triangle, 0, 2*t.n) // n points have fewer than 2n faces
	for i := range t.tris {
		tr := &t.tris[i]
		if !tr.alive {
			continue
		}
		if int(tr.v[0]) >= t.n || int(tr.v[1]) >= t.n || int(tr.v[2]) >= t.n {
			continue
		}
		out = append(out, Triangle{A: int(tr.v[0]), B: int(tr.v[1]), C: int(tr.v[2])})
	}
	return out
}

// CheckDelaunay verifies the empty-circumcircle property of the reported
// mesh against every input point, in O(T*n) time (use on small inputs /
// tests). It returns the first violation found.
func (t *Triangulation) CheckDelaunay() error {
	triangles := t.Triangles()
	for _, tr := range triangles {
		a, b, c := t.pts[tr.A], t.pts[tr.B], t.pts[tr.C]
		for p := 0; p < t.n; p++ {
			if p == tr.A || p == tr.B || p == tr.C || !t.inserted[p] {
				continue
			}
			if geom.InCircle(a, b, c, t.pts[p]) == geom.Positive {
				return fmt.Errorf("delaunay: point %d inside circumcircle of (%d,%d,%d)", p, tr.A, tr.B, tr.C)
			}
		}
	}
	return nil
}

// checkFinite rejects NaN and infinite coordinates: the predicates are
// exact only for finite inputs (geom's exact fallback cannot represent
// anything else), so every entry point refuses them before doing any work.
func checkFinite(points []geom.Point) error {
	for i, p := range points {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return fmt.Errorf("delaunay: point %d has a non-finite coordinate (%v, %v)", i, p.X, p.Y)
		}
	}
	return nil
}

// Triangulate builds the Delaunay triangulation of points, inserting in the
// given order (pass nil for 0..n-1). It returns the mesh triangles; points
// with a NaN or infinite coordinate are rejected.
func Triangulate(points []geom.Point, order []int) ([]Triangle, error) {
	if err := checkFinite(points); err != nil {
		return nil, err
	}
	t := New(points)
	if order == nil {
		for i := range points {
			if err := t.Insert(i); err != nil {
				return nil, err
			}
		}
	} else {
		if len(order) != len(points) {
			return nil, fmt.Errorf("delaunay: order has %d entries for %d points", len(order), len(points))
		}
		for _, i := range order {
			if err := t.Insert(i); err != nil {
				return nil, err
			}
		}
	}
	return t.Triangles(), nil
}

// BuildDAG runs the sequential incremental algorithm in label order
// (0..n-1) and returns the dependency DAG of Section 3 together with the
// finished triangulation. Points must already be in the (random) label
// order; shuffle before calling to model a randomized incremental run.
// Non-finite coordinates are rejected as in Triangulate.
func BuildDAG(points []geom.Point) (*core.DAG, *Triangulation, error) {
	if err := checkFinite(points); err != nil {
		return nil, nil, err
	}
	t := New(points)
	dag := core.NewDAG(len(points))
	t.OnDepend(func(i, j int) { dag.AddDep(i, j) })
	for i := range points {
		if err := t.Insert(i); err != nil {
			return nil, nil, err
		}
	}
	t.OnDepend(nil)
	return dag, t, nil
}

package delaunay

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"relaxsched/internal/engine"
	"relaxsched/internal/geom"
)

// This file is the concurrent randomized incremental Delaunay triangulation:
// a workload over the generic relaxed-execution engine where every task is
// one point insertion, prioritized by its permutation index. Unlike the
// static-DAG workload (core.ParallelRun over BuildDAG's pre-extracted
// conflict DAG), dependencies here are discovered *on line, during
// execution*: a popped insertion locates its conflict triangle by walking
// the history of destroyed triangles, then tries to claim the whole
// Bowyer-Watson cavity (plus its boundary ring) through per-triangle atomic
// claim states. If any cavity triangle is currently owned by a racing
// insertion, the attempt releases everything it claimed and reports
// engine.Blocked — the engine re-inserts the point, exactly the paper's
// "task stays in the scheduler". On success the cavity is retriangulated
// and atomically retired: each destroyed triangle is stamped with the arena
// id range of the star that replaced it before being marked dead, so
// later-arriving points that last saw a now-dead triangle re-locate by
// containment descent through those redirects (the Guibas-Knuth history
// walk). The final mesh is the Delaunay triangulation, which for points in
// general position is unique — identical to the sequential Triangulate
// output for any insertion order.
//
// A point's first locate does not start that walk at the root of the
// history: a static pyramid of grids over the bounding box (seedGrid) names,
// for every cell, the earliest-inserted point that falls in it, and the
// cavity seed that point left in hint — a dead triangle whose redirect range
// is the point's own star — is a far better place to start. Any triangle
// whose closed region contains p, alive or dead, is a valid start of the
// descent, and a seed is only taken after one of its star triangles passed
// InTriangle on immutable vertices; so locating stays a read-only walk over
// immutable data that takes no claim and no lock, and the descent from
// triangle 0 remains the one fallback.

// Claim states of one concurrent triangle. Free triangles are alive and
// unowned; a claimed triangle is being read or restructured by exactly one
// in-flight insertion; dead is terminal (ids are never reused).
const (
	ptriFree    int32 = 0
	ptriClaimed int32 = 1
	ptriDead    int32 = -1
)

// Triangle storage is a chunked arena: ids are dense int32s, chunks are
// allocated on demand behind atomic pointers, and nothing ever moves — so
// racing workers can hold triangle pointers across an allocation by any
// other worker.
const (
	ptriChunkBits = 12
	ptriChunkSize = 1 << ptriChunkBits
	ptriChunkMask = ptriChunkSize - 1
)

type ptriChunk [ptriChunkSize]ptri

// ptri is one triangle of the concurrent triangulation. v is immutable
// after construction (any worker may read it for containment and
// circumcircle tests); nb is read and written only while the triangle is
// claimed (or before it is published); redir is written once, before the
// dead mark, and read only after observing state == ptriDead — the atomic
// state transitions order every access.
type ptri struct {
	v     [3]int32 // vertex point ids, counter-clockwise; immutable
	nb    [3]int32 // neighbor across the edge opposite v[i]; -1 = none
	redir [2]int32 // id range [redir[0], redir[1]] of the replacing star
	state atomic.Int32
}

// ParallelOptions configure a ParallelTriangulate run.
type ParallelOptions struct {
	// ExecOptions are the shared engine knobs: queue backend and relaxation
	// multiplier, worker count, batching (the number of insertions a
	// worker moves per queue operation), and seeding.
	engine.ExecOptions
}

// ParallelResult is the wasted-work accounting of a parallel triangulation.
type ParallelResult struct {
	// Inserted is the number of successful point insertions (== n).
	Inserted int64
	// Pops is the total number of queue pops.
	Pops int64
	// Blocked counts pops whose cavity claim failed against a racing
	// insertion and were re-inserted — this workload's extra steps.
	Blocked int64
	// Tris is the total number of triangles ever allocated.
	Tris int64
	// DescentSteps counts the history stars scanned while locating, over all
	// attempts: every level of a descent and every seed candidate tried.
	// DescentSteps/Inserted is the locate cost per point (~3 ln n when every
	// descent starts at the root).
	DescentSteps int64
	// SeedFallbacks counts first locates that found no usable seed and began
	// at triangle 0, the root of the history.
	SeedFallbacks int64
}

// parScratch is the per-worker retriangulation scratch (the concurrent
// analogue of Triangulation's cavity state) and the worker's share of the
// locate counters, summed after the run. Padded to whole cache lines:
// neighbouring workers rewrite their slice headers on every insertion.
type parScratch struct {
	cavity   []int32
	boundary []int32
	claimed  []int32
	edges    []pedge

	descentSteps  int64
	seedFallbacks int64
	_             [16]byte
}

// pedge is one cavity boundary edge: directed (a, b) with the outer
// neighbor beyond it and the dying cavity triangle it came from.
type pedge struct {
	a, b, outer, from int32
}

// parTriangulation is the engine workload. It is safe for concurrent
// TryExecute calls: all cross-worker coordination goes through the
// per-triangle claim states and the append-only arena.
type parTriangulation struct {
	pts   []geom.Point // input points followed by the 3 super vertices
	n     int
	order []int // insertion permutation; priority = position

	// hint[p] is the last triangle (possibly dead by now) known to contain
	// point p; -1 = never located. Only the current holder of p's task
	// writes it, but the first locate of any nearby point reads it through
	// the seed grid — once p is inserted it is p's cavity seed, the way into
	// p's star — hence atomic.
	hint []atomic.Int32
	grid seedGrid

	chunks      []atomic.Pointer[ptriChunk]
	chunkAllocs atomic.Int64 // chunks allocated, lost installs included
	cursor      atomic.Int64 // next free arena id
	maxTris     int64

	scratch []parScratch

	failed atomic.Bool // fast-path flag: drain remaining tasks on error
	errMu  sync.Mutex
	err    error
}

// seedCellPoints bounds the points per cell on the finest level of the seed
// grid, which is the coarsest one averaging no more than this. Measured, not
// configurable: README "Measuring" has the sweep.
const seedCellPoints = 2

// seedGrid is a static pyramid of grids over the input's bounding box:
// level l has 2^l × 2^l cells, and every cell names the point of earliest
// permutation position that falls in it (-1: none does). It is built once,
// before the run, and never written again.
type seedGrid struct {
	minX, minY     float64
	scaleX, scaleY float64 // finest-level cells per unit of length
	top            int     // the finest level
	first          []int32 // all levels, coarsest first, each row-major
}

// level returns the cells of level l.
func (g *seedGrid) level(l int) []int32 {
	off := (1<<(2*l) - 1) / 3 // 4^0 + ... + 4^(l-1)
	return g.first[off : off+1<<(2*l)]
}

func newSeedGrid(points []geom.Point, order []int) seedGrid {
	n := len(points)
	var g seedGrid
	for seedCellPoints<<(2*g.top) < n {
		g.top++
	}
	g.first = make([]int32, (4<<(2*g.top)-1)/3)
	for i := range g.first {
		g.first[i] = -1
	}

	minX, minY, maxX, maxY := boundingBox(points)
	g.minX, g.minY = minX, minY
	// A zero extent leaves scale 0 (one row or column of cells); an overflowed
	// or denormal one gives 0 or +Inf, which cell's clamp absorbs.
	side := float64(int(1) << g.top)
	if maxX > minX {
		g.scaleX = side / (maxX - minX)
	}
	if maxY > minY {
		g.scaleY = side / (maxY - minY)
	}

	// Finest level: walking the permutation backwards leaves the earliest
	// position in every cell. Coarser levels: the minimum over the four
	// children, with -1 read as the largest unsigned value so that an empty
	// child never wins. Positions become point ids at the end.
	fine := g.level(g.top)
	for pos := n - 1; pos >= 0; pos-- {
		ix, iy := g.cell(points[order[pos]])
		fine[iy<<g.top|ix] = int32(pos)
	}
	for l := g.top - 1; l >= 0; l-- {
		coarse := g.level(l)
		for i, c := range g.level(l + 1) {
			x, y := i&(2<<l-1), i>>(l+1)
			if d := &coarse[(y>>1)<<l|x>>1]; uint32(c) < uint32(*d) {
				*d = c
			}
		}
	}
	for i, pos := range g.first {
		if pos >= 0 {
			g.first[i] = int32(order[pos])
		}
	}
	return g
}

// cell returns pp's cell on the finest level. It is total: anything outside
// the box, NaN included, lands on a border cell.
func (g *seedGrid) cell(pp geom.Point) (ix, iy int) {
	return gridCoord((pp.X-g.minX)*g.scaleX, 1<<g.top), gridCoord((pp.Y-g.minY)*g.scaleY, 1<<g.top)
}

func gridCoord(f float64, side int) int {
	if !(f >= 0) { // negative or NaN
		return 0
	}
	if f >= float64(side) {
		return side - 1
	}
	return int(f)
}

// newParallel builds the shared state: points + super-triangle, the root
// triangle at arena id 0, and the (validated) insertion permutation.
func newParallel(points []geom.Point, order []int) (*parTriangulation, error) {
	n := len(points)
	if order == nil {
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
	} else {
		if len(order) != n {
			return nil, fmt.Errorf("delaunay: order has %d entries for %d points", len(order), n)
		}
		seen := make([]bool, n)
		for _, p := range order {
			if p < 0 || p >= n || seen[p] {
				return nil, fmt.Errorf("delaunay: order is not a permutation of 0..%d", n-1)
			}
			seen[p] = true
		}
	}
	// The arena bound is generous: a randomized insertion order creates an
	// expected O(n) triangles (~9n); exhausting 32n means the permutation
	// was adversarial enough to abort the run with a clear error.
	maxTris := int64(32)*int64(n) + 1024
	w := &parTriangulation{
		pts:     make([]geom.Point, n, n+3),
		n:       n,
		order:   order,
		hint:    make([]atomic.Int32, n),
		grid:    newSeedGrid(points, order),
		maxTris: maxTris,
		chunks:  make([]atomic.Pointer[ptriChunk], (maxTris+ptriChunkSize-1)>>ptriChunkBits),
	}
	for i := range w.hint {
		w.hint[i].Store(-1)
	}
	copy(w.pts, points)
	sa, sb, sc := superVertices(points)
	w.pts = append(w.pts, sa, sb, sc)

	base, _ := w.alloc(1)
	root := w.tri(base)
	root.v = [3]int32{int32(n), int32(n + 1), int32(n + 2)}
	root.nb = [3]int32{-1, -1, -1}
	if geom.Orient2D(sa, sb, sc) != geom.Positive {
		root.v[1], root.v[2] = root.v[2], root.v[1]
	}
	return w, nil
}

func (w *parTriangulation) tri(id int32) *ptri {
	return &w.chunks[id>>ptriChunkBits].Load()[id&ptriChunkMask]
}

// alloc reserves k consecutive arena ids, materializing any chunks the
// range touches. ok is false when the arena bound is exhausted.
//
// Zeroing a chunk takes as long as an insertion, so if every reservation
// that found its chunk missing allocated one, racing workers would routinely
// all do so and all but one would lose the CAS. Instead the one reservation
// whose range enters a chunk — the cursor hands out each id once, so it is
// unique — materializes the *next* chunk, a whole chunk of insertions before
// anyone needs it. Nothing waits on that: a reservation that still finds its
// chunk missing (chunk 0; a look-ahead descheduled mid-allocation) installs
// one itself.
func (w *parTriangulation) alloc(k int) (int32, bool) {
	base := w.cursor.Add(int64(k)) - int64(k)
	if base+int64(k) > w.maxTris {
		return 0, false
	}
	first, last := base>>ptriChunkBits, (base+int64(k)-1)>>ptriChunkBits
	if next := last + 1; (base-1)>>ptriChunkBits != last && next < int64(len(w.chunks)) {
		w.installChunk(next)
	}
	for ci := first; ci <= last; ci++ {
		w.installChunk(ci)
	}
	return int32(base), true
}

func (w *parTriangulation) installChunk(ci int64) {
	if w.chunks[ci].Load() == nil {
		w.chunkAllocs.Add(1)
		w.chunks[ci].CompareAndSwap(nil, new(ptriChunk))
	}
}

func (w *parTriangulation) inConflict(tr *ptri, pp geom.Point) bool {
	return geom.InCircle(w.pts[tr.v[0]], w.pts[tr.v[1]], w.pts[tr.v[2]], pp) == geom.Positive
}

// containingChild descends one history level: among the star triangles
// that replaced dead tr, find the one containing pp. The star covers the
// whole cavity region tr belonged to, so the scan cannot miss unless the
// invariant "tr contained pp" was already broken.
func (w *parTriangulation) containingChild(tr *ptri, pp geom.Point) (int32, bool) {
	for c := tr.redir[0]; c <= tr.redir[1]; c++ {
		ct := w.tri(c)
		if geom.InTriangle(w.pts[ct.v[0]], w.pts[ct.v[1]], w.pts[ct.v[2]], pp) {
			return c, true
		}
	}
	return 0, false
}

// seedTriangle picks where a point's first descent starts. From p's finest
// grid cell to the coarsest, it takes the cell's earliest point v: if v has
// been inserted, hint[v] is v's cavity seed — a dead triangle whose redirect
// range is v's star, published by the dead mark — and a star triangle
// containing p is a valid start many levels below the root. A candidate
// that does not work out (v is p itself or not inserted yet, or p lies
// outside its star) only moves the search to the next coarser cell, whose
// earliest point came earlier and has a larger star; triangle 0 is what is
// left when every level fails.
func (w *parTriangulation) seedTriangle(s *parScratch, pp geom.Point) int32 {
	g := &w.grid
	ix, iy := g.cell(pp)
	prev := int32(-1)
	for l := g.top; l >= 0; l, ix, iy = l-1, ix>>1, iy>>1 {
		v := g.level(l)[iy<<l|ix]
		if v < 0 || v == prev {
			continue
		}
		prev = v
		h := w.hint[v].Load()
		if h < 0 {
			continue
		}
		tr := w.tri(h)
		if tr.state.Load() != ptriDead {
			continue
		}
		s.descentSteps++
		if c, ok := w.containingChild(tr, pp); ok {
			return c
		}
	}
	s.seedFallbacks++
	return 0
}

func (w *parTriangulation) releaseAll(claimed []int32) {
	for _, id := range claimed {
		w.tri(id).state.Store(ptriFree)
	}
}

func (w *parTriangulation) fail(err error) {
	w.errMu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.errMu.Unlock()
	w.failed.Store(true)
}

func containsID(ids []int32, id int32) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// Frontier seeds every point insertion, prioritized by permutation index.
func (w *parTriangulation) Frontier(emit func(value, priority int64)) {
	for pos, p := range w.order {
		emit(int64(p), int64(pos))
	}
}

// TryExecute attempts one point insertion: locate, claim, retriangulate,
// publish. It returns Blocked — after releasing every claim it took — the
// moment it meets a triangle owned by a racing insertion, and Discarded
// only while draining after a run-level failure.
func (w *parTriangulation) TryExecute(ctx *engine.Ctx, value, _ int64) engine.Status {
	if w.failed.Load() {
		return engine.Discarded
	}
	p := int32(value)
	pp := w.pts[p]
	s := &w.scratch[ctx.Worker]

	// 1. Locate: descend the history redirects from the last known triangle
	// — on the first attempt, from an earlier neighbour's star — to the alive
	// triangle containing p. Dead triangles' redirect ranges are immutable
	// once the dead mark is visible, so the walk needs no claims; it ends on
	// an alive (free or transiently claimed) triangle.
	t := w.hint[p].Load()
	if t < 0 {
		t = w.seedTriangle(s, pp)
	}
	for {
		tr := w.tri(t)
		if tr.state.Load() != ptriDead {
			break
		}
		s.descentSteps++
		child, ok := w.containingChild(tr, pp)
		if !ok {
			w.fail(fmt.Errorf("delaunay: parallel: history descent lost point %d", p))
			return engine.Discarded
		}
		t = child
	}
	// Keep the descent's progress across Blocked attempts; once p is in, this
	// is its cavity seed and what neighbours' first locates start from.
	w.hint[p].Store(t)

	// 2. Claim the containing triangle — the cavity seed. A failed CAS
	// means a racing insertion owns it (or just killed it): the dependency
	// is discovered here, during execution, not from a pre-built DAG.
	seed := w.tri(t)
	if !seed.state.CompareAndSwap(ptriFree, ptriClaimed) {
		return engine.Blocked
	}
	if !w.inConflict(seed, pp) {
		// The containing triangle's circumcircle always strictly contains
		// interior points; equality happens only when p coincides with a
		// vertex, i.e. a duplicate of an already-inserted point.
		seed.state.Store(ptriFree)
		w.fail(fmt.Errorf("delaunay: point %d conflicts with nothing; duplicate point?", p))
		return engine.Discarded
	}

	// 3. Grow the conflict cavity, claiming every triangle it reads: cavity
	// members and the boundary ring beyond them (whose neighbor pointers
	// the retriangulation rewrites). Any claim lost to a racing insertion
	// aborts the whole attempt.
	s.claimed = append(s.claimed[:0], t)
	s.cavity = append(s.cavity[:0], t)
	s.boundary = s.boundary[:0]
	for head := 0; head < len(s.cavity); head++ {
		tr := w.tri(s.cavity[head])
		for k := 0; k < 3; k++ {
			nb := tr.nb[k]
			if nb < 0 || containsID(s.claimed, nb) {
				continue
			}
			nbt := w.tri(nb)
			if !nbt.state.CompareAndSwap(ptriFree, ptriClaimed) {
				w.releaseAll(s.claimed)
				return engine.Blocked
			}
			s.claimed = append(s.claimed, nb)
			if w.inConflict(nbt, pp) {
				s.cavity = append(s.cavity, nb)
			} else {
				s.boundary = append(s.boundary, nb)
			}
		}
	}

	// 4. Retriangulate: collect the cavity boundary edges, allocate the
	// star, link the fan (as in the sequential Insert) and repoint the
	// outer neighbors. Everything here touches only claimed triangles and
	// not-yet-published arena slots.
	s.edges = s.edges[:0]
	for _, ti := range s.cavity {
		tr := w.tri(ti)
		for k := 0; k < 3; k++ {
			nb := tr.nb[k]
			if nb >= 0 && containsID(s.cavity, nb) {
				continue // internal edge
			}
			s.edges = append(s.edges, pedge{a: tr.v[(k+1)%3], b: tr.v[(k+2)%3], outer: nb, from: ti})
		}
	}
	base, ok := w.alloc(len(s.edges))
	if !ok {
		w.releaseAll(s.claimed)
		w.fail(fmt.Errorf("delaunay: parallel: triangle arena exhausted (%d triangles)", w.maxTris))
		return engine.Discarded
	}
	for i, e := range s.edges {
		nt := base + int32(i)
		tr := w.tri(nt)
		tr.v = [3]int32{e.a, e.b, p}
		tr.nb = [3]int32{-1, -1, e.outer}
		if e.outer >= 0 {
			out := w.tri(e.outer)
			for x := 0; x < 3; x++ {
				if out.nb[x] == e.from {
					out.nb[x] = nt
					break
				}
			}
		}
	}
	// Triangle i = (a, b, p) meets, across edge (b, p), the triangle j whose
	// first vertex is b — which in turn meets i across its edge (p, a). The
	// boundary is a handful of edges, so a scan beats any index.
	for i, e := range s.edges {
		for j, f := range s.edges {
			if f.a == e.b {
				w.tri(base + int32(i)).nb[0] = base + int32(j)
				w.tri(base + int32(j)).nb[1] = base + int32(i)
				break
			}
		}
	}

	// 5. Publish: stamp each cavity triangle with the star's id range and
	// mark it dead (the dead mark's release ordering makes the fully built
	// star visible to history descents), then release the boundary ring.
	// The star triangles were never claimed — they become reachable, and
	// therefore claimable, exactly now.
	last := base + int32(len(s.edges)) - 1
	for _, ti := range s.cavity {
		tr := w.tri(ti)
		tr.redir[0], tr.redir[1] = base, last
		tr.state.Store(ptriDead)
	}
	for _, bi := range s.boundary {
		w.tri(bi).state.Store(ptriFree)
	}
	return engine.Executed
}

// triangles extracts the final mesh (meaningful only at quiescence),
// excluding super-triangle-incident faces.
func (w *parTriangulation) triangles() []Triangle {
	total := w.cursor.Load()
	out := make([]Triangle, 0, 2*w.n) // n points have fewer than 2n faces
	for id := int64(0); id < total; id++ {
		tr := w.tri(int32(id))
		if tr.state.Load() == ptriDead {
			continue
		}
		if int(tr.v[0]) >= w.n || int(tr.v[1]) >= w.n || int(tr.v[2]) >= w.n {
			continue
		}
		out = append(out, Triangle{A: int(tr.v[0]), B: int(tr.v[1]), C: int(tr.v[2])})
	}
	return out
}

// ParallelTriangulate builds the Delaunay triangulation of points with
// worker goroutines over a concurrent relaxed queue — the first engine
// workload whose dependency DAG is discovered during execution rather than
// seeded or pre-built. Insertions are prioritized by permutation index
// (pass a pre-shuffled order, or nil for 0..n-1, to model the randomized
// incremental algorithm); a relaxed pop order only costs Blocked retries,
// never correctness, because the Delaunay triangulation of points in
// general position is unique. The mesh therefore equals Triangulate's for
// the same points (compare with MeshesEqual; triangle order differs).
// Input is validated before any worker starts: an invalid order, or a NaN or
// infinite coordinate, is an error (a panic inside an insertion would leave
// its cavity claimed forever and the run would never end).
func ParallelTriangulate(points []geom.Point, order []int, opts ParallelOptions) ([]Triangle, ParallelResult, error) {
	if opts.Threads < 1 {
		return nil, ParallelResult{}, fmt.Errorf("delaunay: need Threads >= 1, got %d", opts.Threads)
	}
	if err := checkFinite(points); err != nil {
		return nil, ParallelResult{}, err
	}
	w, err := newParallel(points, order)
	if err != nil {
		return nil, ParallelResult{}, err
	}
	w.scratch = make([]parScratch, opts.Threads)
	stats, err := engine.Run(w, engine.Options{ExecOptions: opts.ExecOptions})
	res := ParallelResult{
		Inserted: stats.Executed,
		Pops:     stats.Popped,
		Blocked:  stats.Reinserted,
		Tris:     w.cursor.Load(),
	}
	for i := range w.scratch {
		res.DescentSteps += w.scratch[i].descentSteps
		res.SeedFallbacks += w.scratch[i].seedFallbacks
	}
	if err != nil {
		return nil, res, fmt.Errorf("delaunay: %w", err)
	}
	if w.err != nil {
		return nil, res, w.err
	}
	if stats.Failed > 0 {
		return nil, res, fmt.Errorf("delaunay: %d insertions quarantined (first: %v)", stats.Failed, stats.Failures[0].Err)
	}
	if stats.Executed != int64(w.n) {
		return nil, res, fmt.Errorf("delaunay: parallel run inserted %d of %d points", stats.Executed, w.n)
	}
	return w.triangles(), res, nil
}

// canonTriangle rotates t so its smallest vertex comes first, preserving
// orientation.
func canonTriangle(t Triangle) Triangle {
	switch {
	case t.B < t.A && t.B < t.C:
		return Triangle{A: t.B, B: t.C, C: t.A}
	case t.C < t.A && t.C < t.B:
		return Triangle{A: t.C, B: t.A, C: t.B}
	default:
		return t
	}
}

// MeshesEqual reports whether two meshes contain the same triangles,
// ignoring triangle order and vertex rotation (orientation still matters:
// both meshes are CCW). Use it to compare ParallelTriangulate's output —
// whose triangle order depends on scheduling — against Triangulate's.
func MeshesEqual(a, b []Triangle) bool {
	if len(a) != len(b) {
		return false
	}
	ca := make([]Triangle, len(a))
	cb := make([]Triangle, len(b))
	for i := range a {
		ca[i] = canonTriangle(a[i])
		cb[i] = canonTriangle(b[i])
	}
	less := func(s []Triangle) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i].A != s[j].A {
				return s[i].A < s[j].A
			}
			if s[i].B != s[j].B {
				return s[i].B < s[j].B
			}
			return s[i].C < s[j].C
		}
	}
	sort.Slice(ca, less(ca))
	sort.Slice(cb, less(cb))
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

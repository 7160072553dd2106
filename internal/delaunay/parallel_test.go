package delaunay

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"relaxsched/internal/cq"
	"relaxsched/internal/engine"
	"relaxsched/internal/geom"
	"relaxsched/internal/rng"
)

// TestParallelDeterminism is the mesh-identity gate: for the same point set
// and permutation, ParallelTriangulate must produce exactly Triangulate's
// mesh on every backend, thread count and batch size — the Delaunay
// triangulation of points in general position is unique, so any divergence
// is a lost or corrupted insertion. Run with -race in CI.
func TestParallelDeterminism(t *testing.T) {
	const n = 600
	pts := randomPoints(n, 42)
	order := rng.New(7).Perm(n)
	want, err := Triangulate(pts, order)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range cq.Backends() {
		for _, batch := range []int{0, 16} {
			for _, threads := range []int{1, 4, 8} {
				name := fmt.Sprintf("%s/batch%d/threads%d", backend, batch, threads)
				t.Run(name, func(t *testing.T) {
					got, res, err := ParallelTriangulate(pts, order, ParallelOptions{ExecOptions: engine.ExecOptions{Threads: threads, QueueMultiplier: 2, Backend: backend, BatchSize: batch, Seed: uint64(3 + threads)}})
					if err != nil {
						t.Fatal(err)
					}
					if res.Inserted != n {
						t.Fatalf("inserted %d of %d", res.Inserted, n)
					}
					if res.Pops != res.Inserted+res.Blocked {
						t.Fatalf("accounting: pops %d != inserted %d + blocked %d", res.Pops, res.Inserted, res.Blocked)
					}
					if !MeshesEqual(got, want) {
						t.Fatalf("parallel mesh (%d triangles) differs from sequential (%d)", len(got), len(want))
					}
				})
			}
		}
	}
}

// TestParallelDelaunayProperty re-verifies the empty-circumcircle property
// directly (not just against the sequential mesh) on a fresh point set.
func TestParallelDelaunayProperty(t *testing.T) {
	const n = 250
	pts := randomPoints(n, 99)
	tris, _, err := ParallelTriangulate(pts, nil, ParallelOptions{ExecOptions: engine.ExecOptions{Threads: 4, QueueMultiplier: 2, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	checkEmptyCircles(t, pts, tris)
}

// checkEmptyCircles asserts the defining property of a Delaunay mesh: every
// face is counter-clockwise and no input point lies strictly inside its
// circumcircle. O(faces × points): small inputs only.
func checkEmptyCircles(t *testing.T, pts []geom.Point, tris []Triangle) {
	t.Helper()
	for _, tr := range tris {
		a, b, c := pts[tr.A], pts[tr.B], pts[tr.C]
		if geom.Orient2D(a, b, c) != geom.Positive {
			t.Fatalf("face (%d,%d,%d) is not counter-clockwise", tr.A, tr.B, tr.C)
		}
		for p := range pts {
			if geom.InCircle(a, b, c, pts[p]) == geom.Positive {
				t.Fatalf("point %d inside circumcircle of (%d,%d,%d)", p, tr.A, tr.B, tr.C)
			}
		}
	}
}

func TestParallelFewPoints(t *testing.T) {
	for n := 0; n <= 3; n++ {
		pts := randomPoints(n, 5)
		got, res, err := ParallelTriangulate(pts, nil, ParallelOptions{ExecOptions: engine.ExecOptions{Threads: 2, QueueMultiplier: 1, Seed: 9}})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want, err := Triangulate(pts, nil)
		if err != nil {
			t.Fatalf("n=%d: sequential: %v", n, err)
		}
		if !MeshesEqual(got, want) {
			t.Fatalf("n=%d: parallel mesh differs from sequential", n)
		}
		if res.Inserted != int64(n) {
			t.Fatalf("n=%d: inserted %d", n, res.Inserted)
		}
	}
}

func TestParallelDuplicatePointFails(t *testing.T) {
	pts := randomPoints(50, 11)
	pts = append(pts, pts[17]) // exact duplicate
	if _, _, err := ParallelTriangulate(pts, nil, ParallelOptions{ExecOptions: engine.ExecOptions{Threads: 4, QueueMultiplier: 2, Seed: 2}}); err == nil {
		t.Fatal("duplicate point accepted")
	}
}

func TestParallelInvalidOptions(t *testing.T) {
	pts := randomPoints(10, 1)
	if _, _, err := ParallelTriangulate(pts, nil, ParallelOptions{ExecOptions: engine.ExecOptions{Threads: 0, QueueMultiplier: 1}}); err == nil {
		t.Fatal("Threads 0 accepted")
	}
	if _, _, err := ParallelTriangulate(pts, []int{1, 2, 3}, ParallelOptions{ExecOptions: engine.ExecOptions{Threads: 1, QueueMultiplier: 1}}); err == nil {
		t.Fatal("short order accepted")
	}
	if _, _, err := ParallelTriangulate(pts, []int{0, 0, 1, 2, 3, 4, 5, 6, 7, 8}, ParallelOptions{ExecOptions: engine.ExecOptions{Threads: 1, QueueMultiplier: 1}}); err == nil {
		t.Fatal("non-permutation order accepted")
	}
}

func TestMeshesEqual(t *testing.T) {
	a := []Triangle{{A: 0, B: 1, C: 2}, {A: 1, B: 3, C: 2}}
	b := []Triangle{{A: 2, B: 1, C: 3}, {A: 1, B: 2, C: 0}} // rotated + reordered
	if !MeshesEqual(a, b) {
		t.Fatal("rotated/reordered meshes reported unequal")
	}
	c := []Triangle{{A: 0, B: 2, C: 1}, {A: 1, B: 3, C: 2}} // flipped orientation
	if MeshesEqual(a, c) {
		t.Fatal("orientation-flipped meshes reported equal")
	}
	if MeshesEqual(a, a[:1]) {
		t.Fatal("different-size meshes reported equal")
	}
}

// TestSeedTriangleContainsPoint pins the one property the seeded locate
// needs, on a single goroutine so no schedule can matter: whatever
// seedTriangle returns for a point that has never been located is either
// the root or a triangle whose closed region contains the point, and the
// history descent from it ends on an alive triangle that contains it too.
func TestSeedTriangleContainsPoint(t *testing.T) {
	const n = 20000
	pts := randomPoints(n, 23)
	order := rng.New(5).Perm(n)
	w, err := newParallel(pts, order)
	if err != nil {
		t.Fatal(err)
	}
	w.scratch = make([]parScratch, 1)
	ctx := &engine.Ctx{Worker: 0}
	for pos, p := range order[:n/2] {
		if st := w.TryExecute(ctx, int64(p), int64(pos)); st != engine.Executed {
			t.Fatalf("insertion %d of point %d: status %v (%v)", pos, p, st, w.err)
		}
	}
	contains := func(id int32, pp geom.Point) bool {
		tr := w.tri(id)
		return geom.InTriangle(w.pts[tr.v[0]], w.pts[tr.v[1]], w.pts[tr.v[2]], pp)
	}
	for _, p := range order[n/2:] {
		pp := pts[p]
		id := w.seedTriangle(&w.scratch[0], pp)
		if id != 0 && !contains(id, pp) {
			t.Fatalf("point %d: seed triangle %d does not contain it", p, id)
		}
		for w.tri(id).state.Load() == ptriDead {
			child, ok := w.containingChild(w.tri(id), pp)
			if !ok {
				t.Fatalf("point %d: descent from seed lost it at triangle %d", p, id)
			}
			id = child
		}
		if !contains(id, pp) {
			t.Fatalf("point %d: descent from seed ended on triangle %d, which does not contain it", p, id)
		}
	}
}

// TestLocateCostBound is the count-based statement of what seeding buys:
// with one worker the counters repeat exactly, a descent from the root costs
// about 3 ln n ≈ 25-30 star scans per point at this size, and a seeded one
// about 5.
func TestLocateCostBound(t *testing.T) {
	const n = 20000
	pts := randomPoints(n, 77)
	order := rng.New(13).Perm(n)
	_, res, err := ParallelTriangulate(pts, order, ParallelOptions{ExecOptions: engine.ExecOptions{Threads: 1, QueueMultiplier: 1, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.DescentSteps > 8*res.Inserted {
		t.Fatalf("%d star scans for %d insertions (%.1f each), want at most 8 each", res.DescentSteps, res.Inserted, float64(res.DescentSteps)/float64(res.Inserted))
	}
	if res.SeedFallbacks < 1 || res.SeedFallbacks > n/20 {
		t.Fatalf("%d of %d first locates started at the root, want at least the first insertion and at most 5%%", res.SeedFallbacks, n)
	}
}

// TestArenaChunksAllocatedOnce pins the arena's allocation protocol. Driven
// from one goroutine, the chunk after the one the cursor is in must exist
// after every insertion — the look-ahead that keeps racing workers from all
// finding the same chunk missing and all allocating it. Then it counts
// allocations, lost installs included, over whole runs. On one worker that
// is one per chunk used plus the look-ahead past the end.
//
// On T workers the count depends on the schedule (a look-ahead descheduled
// for a whole chunk's worth of insertions costs one more allocation each
// time), so the test asserts only what the install protocol proves. A
// worker allocates chunk c only after loading chunks[c] as nil, and then
// CASes its chunk in; whether that CAS wins or loses, chunks[c] is non-nil
// from then on and is never cleared, so the same worker never sees c
// missing again. Hence each chunk is allocated at most once per worker,
// chunks 0..used (the used ones and one look-ahead past them) are the only
// ones ever installed, and chunkAllocs <= T·(used+1). Each used chunk is
// allocated at least once, so chunkAllocs >= used as well.
func TestArenaChunksAllocatedOnce(t *testing.T) {
	const n = 20000
	pts := randomPoints(n, 31)
	order := rng.New(3).Perm(n)
	fresh := func(threads int) *parTriangulation {
		w, err := newParallel(pts, order)
		if err != nil {
			t.Fatal(err)
		}
		w.scratch = make([]parScratch, threads)
		return w
	}

	w := fresh(1)
	for pos, p := range order {
		if st := w.TryExecute(&engine.Ctx{Worker: 0}, int64(p), int64(pos)); st != engine.Executed {
			t.Fatalf("insertion %d of point %d: status %v (%v)", pos, p, st, w.err)
		}
		if ahead := (w.cursor.Load()-1)>>ptriChunkBits + 1; w.chunks[ahead].Load() == nil {
			t.Fatalf("after insertion %d the cursor is in chunk %d and chunk %d is not there yet", pos, ahead-1, ahead)
		}
	}

	for _, threads := range []int64{1, 4} {
		w := fresh(int(threads))
		if _, err := engine.Run(w, engine.Options{ExecOptions: engine.ExecOptions{Threads: int(threads), QueueMultiplier: 2, Seed: 9}}); err != nil || w.err != nil {
			t.Fatal(err, w.err)
		}
		used := (w.cursor.Load() + ptriChunkSize - 1) >> ptriChunkBits
		if used < 20 {
			t.Fatalf("only %d chunks used; the input is too small to say anything", used)
		}
		if got := w.chunkAllocs.Load(); got < used || got > threads*(used+1) {
			t.Fatalf("threads %d: %d chunks allocated for %d used, want between %d and %d", threads, got, used, used, threads*(used+1))
		}
	}
}

// TestParallelInputFamilies runs inputs the uniform square says nothing
// about — above all how the seed grid over the bounding box behaves when the
// points do not fill the box — and compares each mesh with Triangulate's.
func TestParallelInputFamilies(t *testing.T) {
	r := rng.New(2024)
	gen := func(n int, f func(i int) geom.Point) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = f(i)
		}
		return pts
	}
	families := []struct {
		name string
		pts  []geom.Point
	}{
		{"clusters and two far outliers", append(gen(600, func(i int) geom.Point {
			c := float64(i % 5)
			return geom.Point{X: c + 0.01*r.Float64(), Y: math.Mod(c*0.37, 1) + 0.01*r.Float64()}
		}), geom.Point{X: -4000, Y: -7000}, geom.Point{X: 9000, Y: 5000})},
		{"parabola", gen(150, func(int) geom.Point { x := r.Float64(); return geom.Point{X: x, Y: x * x} })},
		{"circle", gen(300, func(int) geom.Point {
			a := 2 * math.Pi * r.Float64()
			return geom.Point{X: math.Cos(a), Y: math.Sin(a)}
		})},
		{"all in one grid cell", append(gen(400, func(int) geom.Point {
			return geom.Point{X: 0.5 + 1e-9*r.Float64(), Y: 0.5 + 1e-9*r.Float64()}
		}), geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 1})},
		{"zero extent on one axis", gen(40, func(i int) geom.Point { return geom.Point{X: 3, Y: float64(i)} })},
		{"zero extent on one axis plus one point", append(gen(40, func(i int) geom.Point {
			return geom.Point{X: 3, Y: float64(i)}
		}), geom.Point{X: 5, Y: 17.5})},
		{"fewer points than cells", gen(3, func(i int) geom.Point { return geom.Point{X: float64(i), Y: float64(i * i)} })},
	}
	for _, f := range families {
		order := rng.New(uint64(len(f.pts))).Perm(len(f.pts))
		want, err := Triangulate(f.pts, order)
		if err != nil {
			t.Fatalf("%s: sequential: %v", f.name, err)
		}
		for _, threads := range []int{1, 4} {
			got, res, err := ParallelTriangulate(f.pts, order, ParallelOptions{ExecOptions: engine.ExecOptions{Threads: threads, QueueMultiplier: 2, Seed: 5}})
			if err != nil {
				t.Fatalf("%s, threads %d: %v", f.name, threads, err)
			}
			if !MeshesEqual(got, want) {
				t.Fatalf("%s, threads %d: parallel mesh (%d triangles) differs from sequential (%d)", f.name, threads, len(got), len(want))
			}
			if res.SeedFallbacks < 1 {
				t.Fatalf("%s, threads %d: no first locate started at the root, not even the first insertion's", f.name, threads)
			}
		}
	}
}

// TestParallelCocircularLattice: on an integer lattice every unit square is
// cocircular, so the Delaunay mesh is not unique and which diagonal a square
// gets depends on the order cavities happened to grow in. MeshesEqual against
// Triangulate is therefore the wrong check here (it already fails at
// Threads > 1 without any seeding); the face count — fixed by Euler's
// formula — and the empty-circumcircle property are the right ones.
func TestParallelCocircularLattice(t *testing.T) {
	const side = 16
	var pts []geom.Point
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			pts = append(pts, geom.Point{X: float64(x), Y: float64(y)})
		}
	}
	order := rng.New(8).Perm(len(pts))
	for _, threads := range []int{1, 4} {
		tris, _, err := ParallelTriangulate(pts, order, ParallelOptions{ExecOptions: engine.ExecOptions{Threads: threads, QueueMultiplier: 2, Seed: 4}})
		if err != nil {
			t.Fatalf("threads %d: %v", threads, err)
		}
		if want := 2 * (side - 1) * (side - 1); len(tris) != want {
			t.Fatalf("threads %d: %d faces, want %d", threads, len(tris), want)
		}
		checkEmptyCircles(t, pts, tris)
	}
}

// TestNonFiniteCoordinatesRejected: a NaN or infinite coordinate used to
// panic inside geom's exact fallback — which in ParallelTriangulate happened
// after the attempt had claimed its cavity, so the claims were never released
// and the run never returned. Every entry point must refuse such input up
// front; each call runs in its own goroutine so that a regression is a test
// failure, not a wedged suite.
func TestNonFiniteCoordinatesRejected(t *testing.T) {
	entries := map[string]func([]geom.Point) error{
		"Triangulate": func(pts []geom.Point) error { _, err := Triangulate(pts, nil); return err },
		"BuildDAG":    func(pts []geom.Point) error { _, _, err := BuildDAG(pts); return err },
		"ParallelTriangulate": func(pts []geom.Point) error {
			_, _, err := ParallelTriangulate(pts, nil, ParallelOptions{ExecOptions: engine.ExecOptions{Threads: 2, QueueMultiplier: 2, Seed: 1}})
			return err
		},
	}
	for name, call := range entries {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for axis := 0; axis < 2; axis++ {
				pts := randomPoints(40, 6)
				if axis == 0 {
					pts[11].X = bad
				} else {
					pts[11].Y = bad
				}
				done := make(chan error, 1) // the call's one result; never blocks a late finisher
				go func() {
					defer func() {
						if r := recover(); r != nil {
							done <- fmt.Errorf("panicked: %v", r)
						}
					}()
					if err := call(pts); err == nil {
						done <- errors.New("accepted")
					} else {
						done <- nil
					}
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Errorf("%s with coordinate %v on axis %d: %v", name, bad, axis, err)
					}
				case <-time.After(time.Minute):
					t.Fatalf("%s with coordinate %v on axis %d: no result after a minute", name, bad, axis)
				}
			}
		}
	}
}

// TestSeedGridCellIsTotal: the grid must map anything to a valid cell even
// if validation is ever bypassed — no int(NaN) indexing.
func TestSeedGridCellIsTotal(t *testing.T) {
	pts := randomPoints(1000, 4)
	g := newSeedGrid(pts, rng.New(1).Perm(len(pts)))
	side := 1 << g.top
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e300, 1e300, 0.5} {
		for _, pp := range []geom.Point{{X: v, Y: 0.5}, {X: 0.5, Y: v}, {X: v, Y: v}} {
			if ix, iy := g.cell(pp); ix < 0 || ix >= side || iy < 0 || iy >= side {
				t.Fatalf("cell(%v) = (%d, %d), outside [0, %d)", pp, ix, iy, side)
			}
		}
	}
}

// FuzzParallelMatchesSequential decodes bytes into up to 64 points of a
// 16×16 integer lattice — collinear, cocircular and duplicate points on
// purpose — and holds ParallelTriangulate to Triangulate: one errs exactly
// when the other does (duplicates), and otherwise the meshes have the same
// number of faces and the parallel one is Delaunay. (On a lattice the mesh is
// not unique, so MeshesEqual would be the wrong oracle.)
func FuzzParallelMatchesSequential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55})             // collinear
	f.Add([]byte{0x00, 0x01, 0x10, 0x11, 0x22, 0x21, 0x12})       // unit squares: cocircular
	f.Add([]byte{0x37, 0x9a, 0x37, 0x05})                         // duplicate
	f.Add([]byte{0x00, 0xf0, 0x0f, 0xff, 0x78, 0x87, 0x77, 0x88}) // corners and centre
	f.Add([]byte("relaxed schedulers: a fuzz seed with some length to it"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		pts := make([]geom.Point, len(data))
		for i, b := range data {
			pts[i] = geom.Point{X: float64(b >> 4), Y: float64(b & 15)}
		}
		want, seqErr := Triangulate(pts, nil)
		got, _, parErr := ParallelTriangulate(pts, nil, ParallelOptions{ExecOptions: engine.ExecOptions{Threads: 2, QueueMultiplier: 2, Seed: 1}})
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("sequential error %v, parallel error %v", seqErr, parErr)
		}
		if seqErr != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("parallel mesh has %d faces, sequential %d", len(got), len(want))
		}
		checkEmptyCircles(t, pts, got)
	})
}

// Example delaunay: relaxed-order incremental mesh triangulation.
//
// The program generates random points, extracts the dependency DAG of the
// randomized incremental Delaunay algorithm (Section 3 of the paper),
// executes it through a relaxed scheduler — counting the wasted work the
// paper's Theorem 3.3 bounds — and re-builds the mesh in the relaxed
// processing order, verifying that out-of-order execution produces the
// exact same Delaunay triangulation. It then triangulates the same points
// with worker goroutines over a concurrent relaxed queue
// (ParallelTriangulate, whose dependencies are discovered during
// execution) and verifies that mesh too. Optionally writes the mesh as
// SVG.
//
// Run with:
//
//	go run ./examples/delaunay [-n 2000] [-k 8] [-threads 4] [-svg mesh.svg]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"

	"relaxsched"
)

func main() {
	var (
		n       = flag.Int("n", 2000, "number of points")
		k       = flag.Int("k", 8, "scheduler relaxation factor")
		threads = flag.Int("threads", 4, "workers for the parallel triangulation")
		svg     = flag.String("svg", "", "write the triangulation as SVG to this file")
	)
	flag.Parse()

	// Deterministic pseudo-random points in the unit square.
	pts := make([]relaxsched.Point, *n)
	state := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state%(1<<53)) / (1 << 53)
	}
	for i := range pts {
		pts[i] = relaxsched.Point{X: next(), Y: next()}
	}

	// Sequential randomized incremental run -> dependency DAG.
	dag, err := relaxsched.DelaunayDAG(pts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("points: %d, dependency edges: %d\n", dag.N, dag.NumDeps())

	// Relaxed execution through an adversarial k-relaxed scheduler.
	var order []int
	run, err := relaxsched.RunIncremental(dag, relaxsched.NewKRelaxedScheduler(dag.N, *k),
		relaxsched.RunOptions{OnProcess: func(label int) { order = append(order, label) }})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("relaxed run (k=%d): %d steps for %d tasks -> %d extra steps (%.2f%% overhead)\n",
		*k, run.Steps, run.Processed, run.ExtraSteps,
		100*(run.Overhead()-1))

	// Rebuild the mesh in the relaxed order; Delaunay triangulations are
	// unique for points in general position, so the mesh must match the
	// sequential one.
	seqTris, err := relaxsched.Triangulate(pts, nil)
	if err != nil {
		log.Fatal(err)
	}
	relTris, err := relaxsched.Triangulate(pts, order)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh: %d triangles sequentially, %d via relaxed order\n",
		len(seqTris), len(relTris))
	if len(seqTris) != len(relTris) {
		log.Fatal("relaxed-order mesh differs from sequential mesh")
	}

	// True parallel triangulation: goroutines over a concurrent relaxed
	// queue, dependencies discovered on line (a racing cavity claim blocks
	// and retries). The mesh must again be the unique Delaunay one.
	parTris, pres, err := relaxsched.ParallelTriangulate(pts, nil, relaxsched.ParallelDelaunayOptions{ExecOptions: relaxsched.ExecOptions{Threads: *threads, QueueMultiplier: 2, Seed: 42}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel x%d:  %d pops for %d insertions -> %d blocked retries; mesh matches: %v\n",
		*threads, pres.Pops, pres.Inserted, pres.Blocked, relaxsched.MeshesEqual(parTris, seqTris))
	fmt.Printf("locating:     %.1f history stars scanned per point, %d first locates started at the root\n",
		float64(pres.DescentSteps)/float64(max(pres.Inserted, 1)), pres.SeedFallbacks)
	if !relaxsched.MeshesEqual(parTris, seqTris) {
		log.Fatal("parallel mesh differs from sequential mesh")
	}

	if *svg != "" {
		if err := writeSVG(*svg, pts, relTris); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *svg)
	}
}

func writeSVG(path string, pts []relaxsched.Point, tris []relaxsched.Triangle) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	const size = 800.0
	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		size, size, size, size)
	for _, t := range tris {
		a, b, c := pts[t.A], pts[t.B], pts[t.C]
		fmt.Fprintf(w,
			`<polygon points="%.2f,%.2f %.2f,%.2f %.2f,%.2f" fill="none" stroke="steelblue" stroke-width="0.5"/>`+"\n",
			a.X*size, (1-a.Y)*size, b.X*size, (1-b.Y)*size, c.X*size, (1-c.Y)*size)
	}
	fmt.Fprintln(w, `</svg>`)
	if err := w.Flush(); err != nil {
		return err
	}
	return nil
}

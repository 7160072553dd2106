package graph

import (
	"fmt"
	"math"

	"relaxsched/internal/rng"
)

// Random generates an undirected Erdos-Renyi-style G(n, m) multigraph-free
// graph with m edges and uniform integer weights in [1, maxW]. This is the
// synthetic stand-in for the paper's "random" input (1M nodes, 10M edges,
// weights in (0, 100]). Self-loops are rejected; (rare) duplicate edges are
// allowed, as in the paper's construction, and harmless for SSSP.
func Random(n, m int, maxW int64, seed uint64) *Graph {
	if n < 2 {
		panic("graph: Random needs n >= 2")
	}
	r := rng.New(seed)
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		u := r.Intn(n)
		v := r.Intn(n)
		for v == u {
			v = r.Intn(n)
		}
		b.AddEdge(u, v, 1+int64(r.Uint64n(uint64(maxW))))
	}
	return b.Build()
}

// Road generates a road-network-like graph: a width x height grid where
// each node connects to its right and down neighbours, a fraction of edges
// is removed to create irregularity, and weights model physical distances —
// wide range [1, maxW] with high variance. Grids have diameter
// Theta(width + height), reproducing the high-diameter, high-weight-variance
// regime where the paper observes visible relaxation overhead on the USA
// road network. It is the synthetic substitute for DIMACS USA-road (24M
// nodes), which we cannot ship; use ParseDIMACS for the real file.
//
// Every horizontal edge is kept, so each row is a connected path.
// dropPerMille removes roughly that fraction (in 1/1000) of the vertical
// edges outside column 0; column 0 keeps all of its vertical edges, which
// stitches the rows together and keeps the graph connected. Each edge is
// stored as two arcs, and the arcs of vertex u come in the order up, left,
// right, down (those that exist).
//
// It panics unless width, height >= 2, width·height <= math.MaxInt32 and
// 1 <= maxW <= 2^30.
func Road(width, height int, maxW int64, dropPerMille int, seed uint64) *Graph {
	if width < 2 || height < 2 {
		panic("graph: Road needs width, height >= 2")
	}
	if width > math.MaxInt32/height {
		panic(fmt.Sprintf("graph: Road grid %dx%d has more than 2^31-1 nodes", width, height))
	}
	if maxW < 1 || maxW > 1<<30 {
		panic(fmt.Sprintf("graph: Road maxW = %d, want 1..2^30", maxW))
	}
	r := rng.New(seed)
	n := width * height
	weight := func() int32 {
		// Physical-distance-like: mixture of short local roads and long
		// highway segments.
		if r.Intn(10) == 0 {
			return 1 + int32(r.Uint64n(uint64(maxW)))
		}
		return 1 + int32(r.Uint64n(uint64(maxW/10+1)))
	}
	// Pass 1 draws every edge's weight in row-major order: the edge to
	// the right, then the edge down (after its drop test). right[u] and
	// down[u] hold the weights, 0 where there is no edge.
	right := make([]int32, n)
	down := make([]int32, n)
	arcs := 0
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			u := y*width + x
			if x+1 < width {
				right[u] = weight()
				arcs += 2
			}
			if y+1 < height && (x == 0 || r.Intn(1000) >= dropPerMille) {
				down[u] = weight()
				arcs += 2
			}
		}
	}
	// Pass 2 writes the CSR at its final size in one sweep.
	g := &Graph{
		NumNodes: n,
		Offsets:  make([]int64, n+1),
		Targets:  make([]int32, arcs),
		Weights:  make([]int32, arcs),
	}
	i := 0
	arc := func(v int, w int32) {
		g.Targets[i] = int32(v)
		g.Weights[i] = w
		i++
	}
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			u := y*width + x
			if y > 0 && down[u-width] != 0 {
				arc(u-width, down[u-width])
			}
			if x > 0 {
				arc(u-1, right[u-1])
			}
			if right[u] != 0 {
				arc(u+1, right[u])
			}
			if down[u] != 0 {
				arc(u+width, down[u])
			}
			g.Offsets[u+1] = int64(i)
		}
	}
	return g
}

// Social generates a social-network-like graph by preferential attachment
// (Barabasi-Albert): nodes arrive one by one and attach to deg existing
// nodes chosen proportionally to current degree, yielding a heavy-tailed
// degree distribution and O(log n) diameter. Weights are uniform in
// [1, maxW]. It is the synthetic substitute for the LiveJournal friendship
// graph (5M nodes, 69M edges, weights in (0, 100]).
func Social(n, deg int, maxW int64, seed uint64) *Graph {
	if n < deg+1 || deg < 1 {
		panic("graph: Social needs n > deg >= 1")
	}
	r := rng.New(seed)
	b := NewBuilder(n)
	// endpoints holds every edge endpoint seen so far; sampling uniformly
	// from it realizes degree-proportional attachment.
	endpoints := make([]int32, 0, 2*n*deg)
	// Seed clique over the first deg+1 nodes.
	for u := 0; u < deg; u++ {
		for v := u + 1; v <= deg; v++ {
			b.AddEdge(u, v, 1+int64(r.Uint64n(uint64(maxW))))
			endpoints = append(endpoints, int32(u), int32(v))
		}
	}
	for u := deg + 1; u < n; u++ {
		for i := 0; i < deg; i++ {
			v := int(endpoints[r.Intn(len(endpoints))])
			if v == u {
				v = r.Intn(u) // fall back to uniform among existing
			}
			b.AddEdge(u, v, 1+int64(r.Uint64n(uint64(maxW))))
			endpoints = append(endpoints, int32(u), int32(v))
		}
	}
	return b.Build()
}

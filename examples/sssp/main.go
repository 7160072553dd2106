// Example sssp: parallel single-source shortest paths over a relaxed
// MultiQueue scheduler, on the paper's three input families (Section 7).
//
// The program generates a random, a road-like and a social-like graph,
// runs the concurrent SSSP at several thread counts, and prints the
// relaxation overhead (tasks processed / reachable vertices) and wall
// time — a miniature of Figure 1. Supply -dimacs FILE to use a real
// DIMACS .gr graph (e.g. the USA road network) instead of the generated
// road family.
//
// Run with:
//
//	go run ./examples/sssp [-n 100000] [-threads 8] [-dimacs path.gr]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"relaxsched"
)

func main() {
	var (
		n      = flag.Int("n", 100000, "approximate node count for generated graphs")
		maxT   = flag.Int("threads", runtime.NumCPU(), "maximum thread count")
		dimacs = flag.String("dimacs", "", "optional DIMACS .gr file replacing the road family")
	)
	flag.Parse()

	type family struct {
		name string
		g    *relaxsched.Graph
	}
	side := 1
	for side*side < *n/4 {
		side++
	}
	families := []family{
		{"random", relaxsched.RandomGraphWith(relaxsched.RandomGraphOptions{N: *n, M: 5 * *n, MaxWeight: 100, Seed: 1})},
		{"road", relaxsched.RoadGraphWith(relaxsched.RoadGraphOptions{
			Width: side, Height: side, MaxWeight: 10000, DropPerMille: 100, Seed: 2,
		})},
		{"social", relaxsched.SocialGraphWith(relaxsched.SocialGraphOptions{N: *n, Degree: 8, MaxWeight: 100, Seed: 3})},
	}
	if *dimacs != "" {
		f, err := os.Open(*dimacs)
		if err != nil {
			log.Fatal(err)
		}
		g, err := relaxsched.ParseDIMACS(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		families[1] = family{"dimacs", g}
	}

	for _, fam := range families {
		start := time.Now()
		exact := relaxsched.Dijkstra(fam.g, 0)
		seqTime := time.Since(start)
		fmt.Printf("\n%s: %d nodes, %d arcs, %d reachable, sequential Dijkstra %v\n",
			fam.name, fam.g.NumNodes, fam.g.NumEdges(), exact.Reached, seqTime.Round(time.Millisecond))
		fmt.Printf("%8s %12s %10s %10s\n", "threads", "processed", "overhead", "time")
		for threads := 1; threads <= *maxT; threads *= 2 {
			start = time.Now()
			res := relaxsched.ParallelSSSPWith(fam.g, 0, relaxsched.ParallelSSSPOptions{
				ExecOptions: relaxsched.ExecOptions{Threads: threads, QueueMultiplier: 2, Seed: uint64(threads)},
			})
			elapsed := time.Since(start)
			for v := range exact.Dist {
				if res.Dist[v] != exact.Dist[v] {
					log.Fatalf("%s: distance mismatch at %d", fam.name, v)
				}
			}
			fmt.Printf("%8d %12d %10.4f %10v\n",
				threads, res.Processed, res.Overhead(), elapsed.Round(time.Millisecond))
		}
	}
}

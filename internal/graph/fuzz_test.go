package graph

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"relaxsched/internal/rng"
)

// FuzzParseDIMACS checks that the parser never panics and that every
// successfully parsed graph validates and round-trips.
func FuzzParseDIMACS(f *testing.F) {
	f.Add("p sp 3 2\na 1 2 5\na 2 3 7\n")
	f.Add("c comment\np sp 1 0\n")
	f.Add("p sp 2 1\na 1 2 1000000\n")
	f.Add("a 1 2 3\n")
	f.Add("p sp 0 0\n")
	f.Add("p sp 2 1\na 2 1 0\n")
	f.Add(strings.Repeat("c x\n", 50) + "p sp 4 1\na 4 4 9\n")
	f.Add("p sp 2 1\na 1 2 2000000000\n")
	f.Add("p sp 3000000000 0\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ParseDIMACS(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph invalid: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteDIMACS(&buf, g); err != nil {
			t.Fatalf("write failed: %v", err)
		}
		g2, err := ParseDIMACS(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if g2.NumNodes != g.NumNodes || g2.NumEdges() != g.NumEdges() {
			t.Fatal("round trip changed shape")
		}
	})
}

// roadReference builds Road's graph through a Builder: the same rng
// draws, each edge added as two arcs, and the CSR from Build's counting
// sort. Road writes its CSR directly and must match it exactly.
func roadReference(width, height int, maxW int64, dropPerMille int, seed uint64) *Graph {
	r := rng.New(seed)
	b := NewBuilder(width * height)
	id := func(x, y int) int { return y*width + x }
	weight := func() int64 {
		if r.Intn(10) == 0 {
			return 1 + int64(r.Uint64n(uint64(maxW)))
		}
		return 1 + int64(r.Uint64n(uint64(maxW/10+1)))
	}
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			if x+1 < width {
				b.AddEdge(id(x, y), id(x+1, y), weight())
			}
			if y+1 < height {
				if x == 0 || r.Intn(1000) >= dropPerMille {
					b.AddEdge(id(x, y), id(x, y+1), weight())
				}
			}
		}
	}
	return b.Build()
}

// FuzzRoadMatchesBuilder checks Road against roadReference over grid
// shapes, weight ranges (down to 1 and up to 2^30), drop rates outside
// [0, 1000] included, and seeds.
func FuzzRoadMatchesBuilder(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint32(0), int16(0), uint64(1))
	f.Add(uint8(5), uint8(9), uint32(99), int16(50), uint64(2))
	f.Add(uint8(62), uint8(62), uint32(1<<30-1), int16(1000), uint64(20190622))
	f.Add(uint8(17), uint8(3), uint32(9), int16(-5), uint64(7))
	f.Fuzz(func(t *testing.T, w, h uint8, maxW uint32, drop int16, seed uint64) {
		width, height := 2+int(w)%63, 2+int(h)%63
		mw := 1 + int64(maxW)%(1<<30)
		got := Road(width, height, mw, int(drop), seed)
		want := roadReference(width, height, mw, int(drop), seed)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Road(%d, %d, %d, %d, %d) differs from the Builder reference", width, height, mw, drop, seed)
		}
	})
}

package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ParseDIMACS reads a graph in the DIMACS shortest-path challenge ".gr"
// format, the format the USA road networks used in the paper's experiments
// are distributed in:
//
//	c  comment lines
//	p sp <nodes> <arcs>
//	a <from> <to> <weight>
//
// Node ids in the file are 1-based and are converted to 0-based. The node
// count must fit an int32 and weights must lie in [1, 2^30]. The arc count
// in the header is checked against the number of "a" lines.
func ParseDIMACS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var b *Builder
	declaredArcs := -1
	arcs := 0
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		switch text[0] {
		case 'c':
			continue
		case 'p':
			if b != nil {
				return nil, fmt.Errorf("dimacs: line %d: duplicate problem line", line)
			}
			fields := strings.Fields(text)
			if len(fields) != 4 || fields[1] != "sp" {
				return nil, fmt.Errorf("dimacs: line %d: malformed problem line %q", line, text)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("dimacs: line %d: bad node count %q", line, fields[2])
			}
			if n > math.MaxInt32 {
				// Targets are int32; refuse before anything is sized by n.
				return nil, fmt.Errorf("dimacs: line %d: node count %d exceeds %d", line, n, math.MaxInt32)
			}
			m, err := strconv.Atoi(fields[3])
			if err != nil || m < 0 {
				return nil, fmt.Errorf("dimacs: line %d: bad arc count %q", line, fields[3])
			}
			declaredArcs = m
			b = NewBuilder(n)
		case 'a':
			if b == nil {
				return nil, fmt.Errorf("dimacs: line %d: arc before problem line", line)
			}
			fields := strings.Fields(text)
			if len(fields) != 4 {
				return nil, fmt.Errorf("dimacs: line %d: malformed arc line %q", line, text)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			w, err3 := strconv.ParseInt(fields[3], 10, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("dimacs: line %d: non-numeric arc %q", line, text)
			}
			if u < 1 || u > b.n || v < 1 || v > b.n {
				return nil, fmt.Errorf("dimacs: line %d: node id out of range in %q", line, text)
			}
			if w <= 0 {
				return nil, fmt.Errorf("dimacs: line %d: non-positive weight in %q", line, text)
			}
			if w > 1<<30 {
				return nil, fmt.Errorf("dimacs: line %d: weight exceeds 2^30 in %q", line, text)
			}
			b.AddArc(u-1, v-1, w)
			arcs++
		default:
			return nil, fmt.Errorf("dimacs: line %d: unknown line type %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dimacs: read error: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("dimacs: missing problem line")
	}
	if declaredArcs >= 0 && arcs != declaredArcs {
		return nil, fmt.Errorf("dimacs: header declares %d arcs, found %d", declaredArcs, arcs)
	}
	return b.Build(), nil
}

// WriteDIMACS writes g in DIMACS ".gr" format (used by tests and to export
// generated graphs for external tools).
func WriteDIMACS(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p sp %d %d\n", g.NumNodes, g.NumEdges()); err != nil {
		return err
	}
	for u := 0; u < g.NumNodes; u++ {
		targets, weights := g.OutEdges(u)
		for i := range targets {
			if _, err := fmt.Fprintf(bw, "a %d %d %d\n", u+1, targets[i]+1, weights[i]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

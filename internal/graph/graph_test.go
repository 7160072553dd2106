package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"
	"testing/quick"

	"relaxsched/internal/rng"
)

func TestBuilderBuildsCSR(t *testing.T) {
	b := NewBuilder(4)
	b.AddArc(0, 1, 10)
	b.AddArc(0, 2, 20)
	b.AddArc(2, 3, 30)
	b.AddArc(1, 0, 5)
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	targets, weights := g.OutEdges(0)
	if len(targets) != 2 {
		t.Fatalf("deg(0) = %d", len(targets))
	}
	found := map[int32]int32{}
	for i := range targets {
		found[targets[i]] = weights[i]
	}
	if found[1] != 10 || found[2] != 20 {
		t.Fatalf("out-edges of 0 wrong: %v", found)
	}
	if g.OutDegree(3) != 0 {
		t.Fatalf("deg(3) = %d", g.OutDegree(3))
	}
}

func TestBuilderPanics(t *testing.T) {
	b := NewBuilder(2)
	for name, f := range map[string]func(){
		"out of range": func() { b.AddArc(0, 5, 1) },
		"zero weight":  func() { b.AddArc(0, 1, 0) },
		"neg weight":   func() { b.AddArc(0, 1, -3) },
		"huge weight":  func() { b.AddArc(0, 1, 1<<31) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestAddEdgeSymmetric(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 2, 7)
	g := b.Build()
	t0, w0 := g.OutEdges(0)
	t2, w2 := g.OutEdges(2)
	if len(t0) != 1 || len(t2) != 1 || t0[0] != 2 || t2[0] != 0 || w0[0] != 7 || w2[0] != 7 {
		t.Fatal("AddEdge not symmetric")
	}
}

func TestRandomGraphShape(t *testing.T) {
	g := Random(1000, 5000, 100, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes != 1000 || g.NumEdges() != 10000 {
		t.Fatalf("n=%d m=%d", g.NumNodes, g.NumEdges())
	}
	wmin, wmax := g.WeightBounds()
	if wmin < 1 || wmax > 100 {
		t.Fatalf("weights out of range: [%d,%d]", wmin, wmax)
	}
	// A G(n, 5n) graph is connected whp.
	if r := LargestReachable(g, 0); r < 990 {
		t.Fatalf("only %d reachable", r)
	}
	// Low diameter.
	if d := HopDiameterEstimate(g, 0); d > 12 {
		t.Fatalf("random graph diameter estimate %d too large", d)
	}
}

func TestRoadGraphShape(t *testing.T) {
	g := Road(50, 40, 1000, 50, 2)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes != 2000 {
		t.Fatalf("n = %d", g.NumNodes)
	}
	if r := LargestReachable(g, 0); r != 2000 {
		t.Fatalf("road graph disconnected: %d reachable", r)
	}
	// Grid diameter ~ width + height, much larger than the random graph's.
	d := HopDiameterEstimate(g, 0)
	if d < 50 {
		t.Fatalf("road diameter estimate %d too small for a 50x40 grid", d)
	}
}

// TestRoadGolden pins the graphs Road builds: the hashes were computed
// from Road's Builder implementation, so a change to Road that alters one
// arc, one weight or the order of one vertex's arcs fails here. The first
// shape is sssp-road's bench grid; the others keep every vertical edge
// and drop every one outside column 0, the latter at the largest maxW.
func TestRoadGolden(t *testing.T) {
	for _, tc := range []struct {
		width, height int
		maxW          int64
		drop          int
		seed          uint64
		want          string
	}{
		{1500, 1500, 100, 50, 1, "b063c2e7a7d7a98925b648dca3eca98f3fd2a29b5df4e01a1d50dd475e94fb49"},
		{37, 23, 1000, 0, 7, "21dd4eb47d1b31c5f4af147847e86bc1538e2bf31461bd441ab1c0914497cd97"},
		{41, 19, 1 << 30, 1000, 20190622, "08ee60df7fb76e10d315f8c51567adae34358fc00b8552dbef19c5d86c4a40f5"},
	} {
		g := Road(tc.width, tc.height, tc.maxW, tc.drop, tc.seed)
		h := sha256.New()
		var b [8]byte
		for _, o := range g.Offsets {
			binary.LittleEndian.PutUint64(b[:], uint64(o))
			h.Write(b[:])
		}
		for _, v := range g.Targets {
			binary.LittleEndian.PutUint32(b[:4], uint32(v))
			h.Write(b[:4])
		}
		for _, w := range g.Weights {
			binary.LittleEndian.PutUint32(b[:4], uint32(w))
			h.Write(b[:4])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("Road(%d, %d, %d, %d, %d): hash %s, want %s", tc.width, tc.height, tc.maxW, tc.drop, tc.seed, got, tc.want)
		}
		if cap(g.Targets) != len(g.Targets) || cap(g.Weights) != len(g.Weights) || cap(g.Offsets) != len(g.Offsets) {
			t.Errorf("Road(%d, %d, ...): CSR has spare capacity", tc.width, tc.height)
		}
	}
}

// TestRoadRejectsBadArguments checks that Road names its own bad
// arguments instead of failing inside the rng or writing weights that do
// not fit.
func TestRoadRejectsBadArguments(t *testing.T) {
	for _, tc := range []struct {
		name          string
		width, height int
		maxW          int64
	}{
		{"maxW 0", 4, 4, 0},
		{"maxW negative", 4, 4, -3},
		{"maxW over 2^30", 4, 4, 1<<30 + 1},
		{"too many nodes", 1 << 16, 1 << 16, 100},
		{"width too small", 1, 4, 100},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "graph: Road") {
					t.Errorf("%s: panic %q, want a graph: Road message", tc.name, msg)
				}
			}()
			Road(tc.width, tc.height, tc.maxW, 0, 1)
		}()
	}
}

func TestRoadStaysConnectedUnderDrops(t *testing.T) {
	// Even with aggressive edge dropping the spanning row/column keeps the
	// grid connected.
	g := Road(30, 30, 100, 400, 3)
	if r := LargestReachable(g, 0); r != 900 {
		t.Fatalf("dropped road graph disconnected: %d/900 reachable", r)
	}
}

func TestSocialGraphShape(t *testing.T) {
	g := Social(2000, 7, 100, 4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes != 2000 {
		t.Fatalf("n = %d", g.NumNodes)
	}
	if r := LargestReachable(g, 0); r != 2000 {
		t.Fatalf("social graph disconnected: %d reachable", r)
	}
	// Heavy tail: max degree far above mean.
	_, maxDeg, mean := DegreeStats(g)
	if float64(maxDeg) < 4*mean {
		t.Fatalf("degree distribution not heavy-tailed: max %d mean %.1f", maxDeg, mean)
	}
	// Low diameter.
	if d := HopDiameterEstimate(g, 0); d > 10 {
		t.Fatalf("social diameter estimate %d too large", d)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := Random(100, 300, 50, 9)
	b := Random(100, 300, 50, 9)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed, different edge count")
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] || a.Weights[i] != b.Weights[i] {
			t.Fatal("same seed, different graph")
		}
	}
	c := Random(100, 300, 50, 10)
	same := true
	for i := range a.Targets {
		if a.Targets[i] != c.Targets[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestBFSDistances(t *testing.T) {
	// Path graph 0-1-2-3.
	b := NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	g := b.Build()
	d := BFS(g, 0)
	for i, want := range []int32{0, 1, 2, 3} {
		if d[i] != want {
			t.Fatalf("BFS[%d] = %d, want %d", i, d[i], want)
		}
	}
	// Disconnected node.
	b2 := NewBuilder(3)
	b2.AddEdge(0, 1, 1)
	g2 := b2.Build()
	d2 := BFS(g2, 0)
	if d2[2] != -1 {
		t.Fatalf("unreachable node distance = %d", d2[2])
	}
}

func TestHopDiameterOnPath(t *testing.T) {
	const n = 50
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1, 1)
	}
	g := b.Build()
	// Double sweep is exact on trees (paths included) from any start.
	if d := HopDiameterEstimate(g, n/2); d != n-1 {
		t.Fatalf("path diameter = %d, want %d", d, n-1)
	}
}

func TestParseDIMACSRoundTrip(t *testing.T) {
	g := Random(50, 200, 30, 5)
	var sb strings.Builder
	if err := WriteDIMACS(&sb, g); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseDIMACS(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.NumNodes != g.NumNodes || parsed.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			parsed.NumNodes, parsed.NumEdges(), g.NumNodes, g.NumEdges())
	}
	for u := 0; u < g.NumNodes; u++ {
		at, aw := g.OutEdges(u)
		bt, bw := parsed.OutEdges(u)
		if len(at) != len(bt) {
			t.Fatalf("node %d degree changed", u)
		}
		for i := range at {
			if at[i] != bt[i] || aw[i] != bw[i] {
				t.Fatalf("node %d edge %d changed", u, i)
			}
		}
	}
}

func TestParseDIMACSHandlesCommentsAndBlank(t *testing.T) {
	input := "c a comment\n\np sp 3 2\nc more\na 1 2 5\na 2 3 7\n"
	g, err := ParseDIMACS(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", g.NumNodes, g.NumEdges())
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	cases := map[string]string{
		"no problem line":  "a 1 2 3\n",
		"bad type":         "x nonsense\n",
		"dup problem":      "p sp 2 0\np sp 2 0\n",
		"bad node count":   "p sp -2 1\n",
		"arc out of range": "p sp 2 1\na 1 5 1\n",
		"zero weight":      "p sp 2 1\na 1 2 0\n",
		"non-numeric":      "p sp 2 1\na 1 two 3\n",
		"arc count wrong":  "p sp 2 5\na 1 2 3\n",
		"empty input":      "",
		"short arc line":   "p sp 2 1\na 1 2\n",
		"malformed p":      "p xx 3 3\n",
	}
	for name, input := range cases {
		if _, err := ParseDIMACS(strings.NewReader(input)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
	// Out-of-range values are errors that name their line, not panics.
	for input, line := range map[string]string{
		"p sp 2 1\na 1 2 2000000000\n": "line 2",
		"c big\np sp 3000000000 0\n":   "line 2",
	} {
		if _, err := ParseDIMACS(strings.NewReader(input)); err == nil || !strings.Contains(err.Error(), line) {
			t.Errorf("%q: error %v, want one naming %s", input, err, line)
		}
	}
}

// Property: every generated graph validates and every node id stays in
// range, across generator parameters.
func TestGeneratorsValidateProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 10 + r.Intn(200)
		switch r.Intn(3) {
		case 0:
			g := Random(n, n*2, 1+int64(r.Intn(1000)), seed)
			return g.Validate() == nil
		case 1:
			w := 2 + r.Intn(20)
			h := 2 + r.Intn(20)
			g := Road(w, h, 1+int64(r.Intn(1000)), r.Intn(500), seed)
			return g.Validate() == nil && LargestReachable(g, 0) == w*h
		default:
			deg := 1 + r.Intn(5)
			g := Social(n+deg+1, deg, 1+int64(r.Intn(100)), seed)
			return g.Validate() == nil
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRandomGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Random(10000, 50000, 100, uint64(i))
	}
}

func BenchmarkBFS(b *testing.B) {
	g := Random(50000, 250000, 100, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BFS(g, 0)
	}
}

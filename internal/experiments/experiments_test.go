package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestFig1Smoke(t *testing.T) {
	c := SmokeConfig()
	res := Fig1(c)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	families := map[string]bool{}
	for _, row := range res.Rows {
		families[row.Graph] = true
		if row.Overhead < 0.999 {
			t.Fatalf("overhead %.3f < 1 on %s@%d", row.Overhead, row.Graph, row.Threads)
		}
		if row.Overhead > 5 {
			t.Fatalf("overhead %.3f implausible on %s@%d", row.Overhead, row.Graph, row.Threads)
		}
		if row.Speedup <= 0 {
			t.Fatalf("non-positive speedup on %s@%d", row.Graph, row.Threads)
		}
	}
	if len(families) != 3 {
		t.Fatalf("families covered: %v", families)
	}
	var buf bytes.Buffer
	if err := res.RenderOverheads(&buf); err != nil {
		t.Fatal(err)
	}
	if err := res.RenderSpeedups(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "random") {
		t.Fatal("render missing family name")
	}
}

func TestFig2Smoke(t *testing.T) {
	c := SmokeConfig()
	res := Fig2(c, []int{2})
	want := 3 * len(Fig2Multipliers)
	if len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	for _, row := range res.Rows {
		if row.Overhead < 0.999 || row.Overhead > 5 {
			t.Fatalf("overhead %.3f out of range", row.Overhead)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig2DefaultThreads(t *testing.T) {
	c := SmokeConfig()
	res := Fig2(c, nil)
	if len(res.Rows) == 0 {
		t.Fatal("no rows with default thread counts")
	}
}

func TestThm33Smoke(t *testing.T) {
	c := SmokeConfig()
	res, err := Thm33(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2*(4+5) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.K == 1 && row.ExtraSteps != 0 {
			t.Fatalf("k=1 has %f extra steps", row.ExtraSteps)
		}
		if row.ExtraSteps < 0 {
			t.Fatal("negative extra steps")
		}
		// Trivial bound: the adversary wastes at most k-1 steps per task.
		if row.ExtraSteps > float64(row.K)*float64(row.N) {
			t.Fatalf("extra steps %f exceed trivial bound k*n (k=%d, n=%d)",
				row.ExtraSteps, row.K, row.N)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "log-fit") {
		t.Fatal("render missing fit line")
	}
}

func TestThm51Smoke(t *testing.T) {
	c := SmokeConfig()
	res, err := Thm51(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.ExtraSteps < row.LowerBound {
			t.Fatalf("%s n=%d: extra steps %.1f below theoretical floor %.1f",
				row.Algo, row.N, row.ExtraSteps, row.LowerBound)
		}
		if row.InvRate < 1.0/8 {
			t.Fatalf("%s n=%d: inversion rate %.3f below Claim 1's 1/8",
				row.Algo, row.N, row.InvRate)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestThm61Smoke(t *testing.T) {
	c := SmokeConfig()
	res, err := Thm61(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Scheduler == "k-relaxed" && row.K == 1 && row.ExtraPops != 0 {
			t.Fatalf("exact scheduler with extra pops: %+v", row)
		}
		if row.ExtraPops < 0 {
			t.Fatalf("negative extra pops: %+v", row)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestThm43Smoke(t *testing.T) {
	c := SmokeConfig()
	res, err := Thm43(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4+5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.K == 1 && row.Workers == 4 {
			// k=1 serializes availability but workers may still overlap on
			// a chain of dependents; just require finite values.
			if row.Aborts < 0 {
				t.Fatal("negative aborts")
			}
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestGraphsSmoke(t *testing.T) {
	c := SmokeConfig()
	res := Graphs(c)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]GraphRow{}
	for _, row := range res.Rows {
		byName[row.Name] = row
		if row.Nodes <= 0 || row.Arcs <= 0 || row.WMin < 1 {
			t.Fatalf("bad stats: %+v", row)
		}
	}
	// The road family must have the largest hop diameter — that ordering
	// is what explains Figure 1's overhead ordering.
	if byName["road"].HopDiameter <= byName["random"].HopDiameter ||
		byName["road"].HopDiameter <= byName["social"].HopDiameter {
		t.Fatalf("road diameter not dominant: %+v", res.Rows)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestAblationSmoke(t *testing.T) {
	c := SmokeConfig()
	res, err := Ablation(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var exactRow, mq1, mq4 *AblationRow
	for i := range res.Rows {
		switch res.Rows[i].Scheduler {
		case "exact":
			exactRow = &res.Rows[i]
		case "mq8-c1":
			mq1 = &res.Rows[i]
		case "mq8-c4":
			mq4 = &res.Rows[i]
		}
	}
	if exactRow == nil || mq1 == nil || mq4 == nil {
		t.Fatal("zoo rows missing")
	}
	if exactRow.MeanRank != 1 || exactRow.SortExtra != 0 {
		t.Fatalf("exact row: %+v", exactRow)
	}
	// More probing choices = tighter ranks.
	if mq4.MeanRank > mq1.MeanRank {
		t.Fatalf("c4 rank %.2f worse than c1 %.2f", mq4.MeanRank, mq1.MeanRank)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestConfigSweeps(t *testing.T) {
	c := Config{MaxThreads: 8}
	sweep := c.threadSweep()
	want := []int{1, 2, 4, 8}
	if len(sweep) != len(want) {
		t.Fatalf("sweep = %v", sweep)
	}
	for i := range want {
		if sweep[i] != want[i] {
			t.Fatalf("sweep = %v", sweep)
		}
	}
	c = Config{MaxThreads: 6}
	sweep = c.threadSweep()
	if sweep[len(sweep)-1] != 6 {
		t.Fatalf("sweep = %v", sweep)
	}
	if DefaultConfig().maxThreads() < 1 {
		t.Fatal("default maxThreads")
	}
}

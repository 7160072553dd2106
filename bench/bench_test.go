package main

import (
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"
)

// None of these tests asserts a timing: the estimators are checked on
// hand-built arrays, the reports on their shape, the workloads on their
// correctness gate.

func TestMedianAndMin(t *testing.T) {
	cases := []struct {
		xs       []float64
		med, min float64
	}{
		{[]float64{3}, 3, 3},
		{[]float64{5, 1, 3}, 3, 1},
		{[]float64{4, 1, 3, 2}, 2.5, 1},
		{[]float64{0.37, 0.45, 0.30, 0.41, 0.34}, 0.37, 0.30},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		if got := minOf(c.xs); got != c.min {
			t.Errorf("minOf(%v) = %v, want %v", c.xs, got, c.min)
		}
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(minOf(nil)) {
		t.Error("median/minOf of nothing should be NaN")
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// prints for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{2, 4, 4, 4, 5, 5, 7}, 4, 5},
		{[]float64{7}, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("spread = %v, want (4.5-1.5)/3 = 1", got)
	}
}

// A metric's value is the statistic its estimator names, and it carries
// the quartiles of its samples whatever that is.
func TestEstimatePicksNamedStatistic(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	want := map[string]float64{"q1": 2.75, "q3": 8.25, "min": 1, "median": 5.5, "midmean": 5.5}
	for name, v := range want {
		m := estimate(xs, "us", name)
		if m.Value != v || m.Estimator != name || *m.Q1 != 2.75 || *m.Q3 != 8.25 || m.N != len(xs) {
			t.Errorf("estimate(%s) = %+v (q1 %v, q3 %v), want value %v", name, m, *m.Q1, *m.Q3, v)
		}
	}
}

func TestExactPercentile(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i + 1) // 1..1000
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0, 1}, {0.001, 1}, {0.5, 500}, {0.75, 750}, {0.99, 990}, {0.999, 999}, {1, 1000}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(sorted([]int64{9, 1, 5}), 0.5); got != 5 {
		t.Errorf("percentile of {9,1,5} at 0.5 = %d, want 5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

func TestBurstFirstLast(t *testing.T) {
	// Three bursts of four jobs.
	sojourn := []int64{40, 10, 30, 20, 5, 5, 5, 5, 100, 900, 1, 50}
	first, last := burstFirstLast(sojourn, 4)
	if want := []int64{10, 5, 1}; !reflect.DeepEqual(first, want) {
		t.Errorf("first = %v, want %v", first, want)
	}
	if want := []int64{40, 5, 900}; !reflect.DeepEqual(last, want) {
		t.Errorf("last = %v, want %v", last, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "rep", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "run", Start: 10, End: 60},
		{ID: 2, Parent: 1, Name: "try", Start: 20, End: 30},
		{ID: 3, Parent: 1, Name: "try", Start: 25, End: 45},   // overlaps span 2
		{ID: 4, Parent: 0, Name: "late", Start: 90, End: 120}, // sticks out of its parent
	}
	self := selfTimes(spans)
	// rep: 100 - (50 + 10 inside) = 40; run: 50 - union[20,45] = 25.
	if want := []int64{40, 25, 10, 20, 30}; !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	roll := rollup(spans)
	if got := roll["try"]; got != (layerTime{Count: 2, TotalNs: 30, SelfNs: 30}) {
		t.Errorf("rollup[try] = %+v", got)
	}
	if ns, n := totalNs(spans, "try"); ns != 30 || n != 2 {
		t.Errorf("totalNs(try) = %d, %d", ns, n)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1)
	tr.end(id)
	tr.setRun(3)
	if id != -1 || tr.snapshot() != nil {
		t.Errorf("nil tracer recorded something")
	}
	live := newTracer()
	live.setRun(2)
	root := live.begin("rep", -1)
	child := live.begin("run", root)
	live.end(child)
	live.end(root)
	got := live.snapshot()
	if len(got) != 2 || got[1].Parent != root || got[1].Run != 2 || got[0].End < got[1].End {
		t.Errorf("spans = %+v", got)
	}
}

func TestBudgetSumsToOne(t *testing.T) {
	b := budget(1000, 1.3, 150, 400, 150, 300)
	sum := 0.0
	for _, m := range b {
		sum += m.Value
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("budget fractions sum to %v", sum)
	}
	if got := b["budget.cq_frac"].Value; math.Abs(got-0.195) > 1e-12 {
		t.Errorf("cq_frac = %v, want 1.3*150/1000", got)
	}
}

func TestScaledSizes(t *testing.T) {
	s := fullSizes.scaled(smokeDiv)
	if s.RoadSide*s.RoadSide > fullSizes.RoadSide*fullSizes.RoadSide/smokeDiv || s.RoadSide < 200 {
		t.Errorf("road side %d is not ~1/%d of the vertices", s.RoadSide, smokeDiv)
	}
	if s.Txns != fullSizes.Txns/smokeDiv || s.Points != fullSizes.Points/smokeDiv || s.BurstJobs != fullSizes.BurstJobs {
		t.Errorf("scaled sizes = %+v", s)
	}
}

func names(m map[string]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// BENCHMARK.json and the program must declare the same workloads and the
// same metrics under the same units, every name well-formed.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range bf.Workloads {
		workloads = append(workloads, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(workloads, workloadNames) {
		t.Errorf("workloads = %v, program runs %v", workloads, workloadNames)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, program default %d", bf.RunSeconds, defaultSeconds)
	}
	e2e := map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	layer := map[string]string{}
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(e2e, endToEndUnits) {
		t.Errorf("end_to_end = %v\nprogram prints %v", names(e2e), names(endToEndUnits))
	}
	if !reflect.DeepEqual(layer, perLayerUnits) {
		t.Errorf("per_layer = %v\nprogram prints %v", names(layer), names(perLayerUnits))
	}
	for _, set := range []map[string]string{e2e, layer} {
		for name := range set {
			if !metricName.MatchString(name) || len(name) > 64 {
				t.Errorf("metric name %q is malformed", name)
			}
		}
	}
}

// The result line lists exactly the declared metrics of its mode, and
// survives a JSON round trip.
func TestResultLineRoundTrip(t *testing.T) {
	for _, traced := range []bool{false, true} {
		r := &report{Trace: traced, OpsAttempted: 7,
			EndToEnd: map[string]metric{"setup_s": plain(0.25, "s")},
			PerLayer: map[string]metric{"park.roundtrip_us": plain(4.5, "us")},
		}
		data, err := json.Marshal(summarize(r))
		if err != nil {
			t.Fatal(err)
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(data, &top); err != nil {
			t.Fatal(err)
		}
		if len(top) != 4 {
			t.Errorf("result line has keys %v", top)
		}
		var line resultLine
		if err := json.Unmarshal(data, &line); err != nil {
			t.Fatal(err)
		}
		want := endToEndUnits
		if traced {
			want = perLayerUnits
		}
		got := map[string]string{}
		for name, m := range line.Metrics {
			got[name] = m.Unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("traced=%v: result line metrics %v, want %v", traced, names(got), names(want))
		}
		if !line.Correct || line.Attempted != 7 || line.Failed != 0 {
			t.Errorf("result line = %+v", line)
		}
		if traced && line.Metrics["park.roundtrip_us"].Value != 4.5 {
			t.Errorf("traced line lost its value: %+v", line.Metrics["park.roundtrip_us"])
		}
		if !traced && line.Metrics["setup_s"].Value != 0.25 {
			t.Errorf("untraced line lost its value: %+v", line.Metrics["setup_s"])
		}
	}
}

func TestFailedRunIsNotCorrect(t *testing.T) {
	if (&report{OpsFailed: 1}).ok() || (&report{Invalid: []string{"late"}}).ok() || !(&report{}).ok() {
		t.Error("ok() must be false exactly when an operation failed or the run is invalid")
	}
	late := []openRun{{late: []int64{60000, 70000}}, {late: []int64{80000}}}
	if why := streamInvalid(late); len(why) != 1 {
		t.Errorf("a generator late by 70 us at the median must invalidate the run: %v", why)
	}
	if why := streamInvalid([]openRun{{late: []int64{100, 200, 90000}}, {late: []int64{100}, backlog: true}}); len(why) != 1 {
		t.Errorf("a backlog must invalidate the run, a late tail must not: %v", why)
	}
}

// The correctness gate must be able to fail: a wrong output is counted.
func TestVerifyCountsWrongOutputs(t *testing.T) {
	w := &ssspRoad{be: "multiqueue"}
	sz := fullSizes.scaled(2000)
	if err := w.build(sz, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.reference(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.run(2, 1, nil, -1); err != nil {
		t.Fatal(err)
	}
	if got := w.verify(); got != 0 {
		t.Fatalf("correct run: %d wrong distances", got)
	}
	w.last.Dist[3]++
	w.last.Dist[4]++
	if got := w.verify(); got != 2 {
		t.Errorf("two corrupted distances: verify() = %d", got)
	}

	d := &delaunayUniform{}
	if err := d.build(sz, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.reference(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.run(2, 1, nil, -1); err != nil {
		t.Fatal(err)
	}
	if got := d.verify(); got != 0 {
		t.Fatalf("correct run: verify() = %d", got)
	}
	d.mesh = d.mesh[1:]
	if got := d.verify(); got != int64(len(d.pts)) {
		t.Errorf("mesh with a triangle missing: verify() = %d", got)
	}
}

// All five workloads, untraced and traced, at 1/50 size: correctness and
// schema only.
func TestSmoke(t *testing.T) {
	if err := runSmoke(defaultSeed, t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

func TestMidmean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{1, 3}, 2},
		{[]float64{100, 2, 4, -50}, 3},           // middle two
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8}, 4.5}, // 3,4,5,6
		{[]float64{1, 2, 3, 4, 5}, 3},            // 0.75*2 + 3 + 0.75*4 over 2.5
	}
	for _, c := range cases {
		if got := midmean(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("midmean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	// Two modes in strict alternation: the midmean sits between them for an
	// even count and within one ninth of the gap for nine values, where the
	// median is one of the modes.
	even := []float64{2.1, 2.5, 2.1, 2.5, 2.1, 2.5, 2.1, 2.5, 2.1, 2.5}
	if got := midmean(even); math.Abs(got-2.3) > 1e-12 {
		t.Errorf("midmean of alternating modes = %v, want 2.3", got)
	}
	odd := even[:9]
	if got := midmean(odd); math.Abs(got-2.3) > 0.4/9+1e-12 || median(odd) != 2.1 {
		t.Errorf("midmean of nine alternating values = %v (median %v)", got, median(odd))
	}
	if !math.IsNaN(midmean(nil)) {
		t.Error("midmean of nothing should be NaN")
	}
}

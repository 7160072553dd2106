package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json this program reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []gatedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type gatedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBenchmarkFile reads BENCHMARK.json from the repository root, whether
// the process runs there or in bench/.
func loadBenchmarkFile() (*benchmarkFile, error) {
	var data []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkSchema checks a report's shape: every metric is one this benchmark
// declares, under its declared unit, with a finite value; an untraced run
// carries all end-to-end metrics, none of them 0; a traced run carries the
// layer microbenchmarks and a span file.
func checkSchema(r *report) error {
	check := func(have map[string]metric, units map[string]string, nonzero bool) error {
		for name, m := range have {
			switch unit, ok := units[name]; {
			case !metricName.MatchString(name):
				return fmt.Errorf("metric name %q is malformed", name)
			case !ok:
				return fmt.Errorf("metric %q is not declared", name)
			case unit != m.Unit:
				return fmt.Errorf("metric %q has unit %q, declared %q", name, m.Unit, unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				return fmt.Errorf("metric %q is %v", name, m.Value)
			case nonzero && m.Value == 0:
				return fmt.Errorf("metric %q is 0", name)
			}
		}
		return nil
	}
	if r.OpsAttempted < 1 {
		return fmt.Errorf("ops_attempted = %d", r.OpsAttempted)
	}
	if r.Trace {
		if r.TraceFile == "" {
			return fmt.Errorf("traced run wrote no span file")
		}
		if _, ok := r.PerLayer["engine.noop_ns_per_task"]; !ok {
			return fmt.Errorf("traced run has no layer microbenchmarks")
		}
		return check(r.PerLayer, perLayerUnits, false)
	}
	if len(r.EndToEnd) != len(endToEndUnits) {
		return fmt.Errorf("%d end-to-end metrics, want %d", len(r.EndToEnd), len(endToEndUnits))
	}
	if err := check(r.EndToEnd, endToEndUnits, true); err != nil {
		return err
	}
	return check(r.Ungated, perLayerUnits, false)
}

// childRun runs this binary once as its own process and returns the result
// line it printed last.
func childRun(workload string, seed uint64, seconds int) (resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return resultLine{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return resultLine{}, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return line, nil
}

// worse is how much worse b is than a, as a share of a, in the metric's
// own direction (negative when b is better).
func worse(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// runSelfcheck is the A/A mode: two interleaved sets (A, B) of n runs of
// every workload with this one binary, run i of both sets on seed+i. Per
// workload and end-to-end metric it prints both medians with quartiles,
// each set's spread (interquartile range / median), the relative difference
// of the medians and the bound from BENCHMARK.json. It fails if a
// difference exceeds its bound or — setup_s aside, whose spread the
// acceptance check exempts — a spread does: exactly the two conditions
// under which two runs of identical code would be read as a regression. A
// spread only counts from ten runs per set on, the number the acceptance
// check takes: the quartiles of five values are all but their extremes.
func runSelfcheck(n int, seed uint64, seconds int) error {
	bf, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	var bad []string
	fmt.Printf("%-19s %-19s %-32s %-32s %8s %8s %8s %6s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "spreadA", "spreadB", "B vs A", "bound")
	for _, w := range bf.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for s := range sets {
				line, err := childRun(w.Name, seed+uint64(i), seconds)
				if err != nil {
					return err
				}
				if !line.Correct {
					return fmt.Errorf("%s seed %d: run not correct", w.Name, seed+uint64(i))
				}
				for name, m := range line.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		for _, g := range bf.EndToEnd {
			a, b := sets[0][g.Name], sets[1][g.Name]
			cell := func(xs []float64) string {
				q1, q3 := quartiles(xs)
				return fmt.Sprintf("%.5g [%.5g, %.5g]", median(xs), q1, q3)
			}
			diff := worse(median(a), median(b), g.Better)
			verdict := ""
			if math.Abs(diff) > g.Bound {
				verdict = " DIFFERS"
			}
			if g.Name != "setup_s" && n >= 10 && math.Max(spread(a), spread(b)) > g.Bound {
				verdict += " NOISY"
			}
			if verdict != "" {
				bad = append(bad, w.Name+"/"+g.Name+verdict)
			}
			fmt.Printf("%-19s %-19s %-32s %-32s %7.2f%% %7.2f%% %+7.2f%% %5.0f%%%s\n",
				w.Name, g.Name, cell(a), cell(b), 100*spread(a), 100*spread(b), 100*diff, 100*g.Bound, verdict)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: identical code disagrees with itself on %s", strings.Join(bad, ", "))
	}
	fmt.Println("selfcheck: every difference and spread is within its bound")
	return nil
}

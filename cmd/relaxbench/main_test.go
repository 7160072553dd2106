package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"relaxsched/internal/cq"
	"relaxsched/internal/experiments"
)

var fig1Variants = []string{"fig1-overhead", "fig1-speedup"}

// smoke runs every experiment dispatch end-to-end at a tiny scale; it is
// the integration test for the whole harness (drivers + rendering).
func TestRunDispatchAllExperiments(t *testing.T) {
	cfg := experiments.Config{Seed: 1, Trials: 1, GraphScale: 128, MaxThreads: 2}
	for _, exp := range append(append([]string{}, allOrder...), fig1Variants...) {
		if err := run(exp, cfg, output{w: io.Discard}); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
}

// allOrder is the one list of experiments: the dispatch table holds exactly
// its names (fig1 is dispatched separately), and the package comment
// documents each of them.
func TestAllOrderIsTheOneList(t *testing.T) {
	want := []string{"fig1"}
	for name := range experimentTable {
		want = append(want, name)
	}
	got := append([]string{}, allOrder...)
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("allOrder = %v, experimentTable + fig1 = %v", got, want)
	}
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	doc := f.Doc.Text()
	for _, name := range append(append([]string{"all"}, allOrder...), fig1Variants...) {
		if !strings.Contains(doc, "\t"+name+" ") {
			t.Errorf("experiment %q is missing from the package comment's list", name)
		}
	}
}

// The parallel experiments must accept every queue backend.
func TestRunHonorsBackendConfig(t *testing.T) {
	for _, b := range cq.Backends() {
		cfg := experiments.Config{Seed: 1, Trials: 1, GraphScale: 256, MaxThreads: 2, Backend: b}
		for _, exp := range []string{"fig1-overhead", "fig2"} {
			if err := run(exp, cfg, output{w: io.Discard}); err != nil {
				t.Fatalf("%s on %s: %v", exp, b, err)
			}
		}
	}
}

// -json mode must emit one well-formed JSON object per experiment, keyed by
// experiment name.
func TestRunJSONOutput(t *testing.T) {
	cfg := experiments.Config{Seed: 1, Trials: 1, GraphScale: 256, MaxThreads: 2}
	var buf bytes.Buffer
	exps := []string{"graphs", "fig1", "fig2", "thm61"}
	for _, exp := range exps {
		if err := run(exp, cfg, output{json: true, w: &buf}); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var seen []string
	for sc.Scan() {
		var env struct {
			Experiment string          `json:"experiment"`
			Result     json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			t.Fatalf("bad JSON line: %v\n%s", err, sc.Text())
		}
		if len(env.Result) == 0 || string(env.Result) == "null" {
			t.Fatalf("%s: empty result payload", env.Experiment)
		}
		seen = append(seen, env.Experiment)
	}
	if len(seen) != len(exps) {
		t.Fatalf("got %d JSON objects %v, want %d", len(seen), seen, len(exps))
	}
	for i, exp := range exps {
		if seen[i] != exp {
			t.Fatalf("object %d is %q, want %q", i, seen[i], exp)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("nope", experiments.SmokeConfig(), output{w: io.Discard}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// knownExperiment gates the run, so it must accept exactly what run
// dispatches: every table entry, the fig1 variants, and "all".
func TestKnownExperimentMatchesDispatch(t *testing.T) {
	for name := range experimentTable {
		if !knownExperiment(name) {
			t.Errorf("table experiment %q reported unknown", name)
		}
	}
	for _, name := range append([]string{"fig1", "all"}, fig1Variants...) {
		if !knownExperiment(name) {
			t.Errorf("dispatchable experiment %q reported unknown", name)
		}
	}
	if knownExperiment("nope") {
		t.Error("bogus experiment reported known")
	}
}

// A run that fails after the CPU profile was started must still leave a
// complete profile behind: it is the run one wants to look at.
func TestFailedRunKeepsCPUProfile(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	var stderr bytes.Buffer
	code := realMain([]string{
		"-scale", "512", "-trials", "1", "-maxthreads", "1",
		"-cpuprofile", cpu,
		"-memprofile", filepath.Join(dir, "no-such-dir", "mem.pprof"),
		"graphs",
	}, io.Discard, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "memprofile") {
		t.Fatalf("stderr does not name the failing step: %s", stderr.String())
	}
	f, err := os.Open(cpu)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("CPU profile is not a gzip stream: %v", err)
	}
	// A profile cut short by an early exit lacks the gzip trailer.
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("CPU profile is truncated: %v", err)
	}
	if len(body) == 0 {
		t.Fatal("CPU profile is empty")
	}
}

// Usage errors exit 2 — among them the names and the flag this command no
// longer has.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"backends"},
		{"compare", "a", "b"},
		{"-out", filepath.Join(t.TempDir(), "f"), "graphs"},
		{"-backend", "nope", "graphs"},
		{},
	} {
		if code := realMain(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("relaxbench %v exited %d, want 2", args, code)
		}
	}
}

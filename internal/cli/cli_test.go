package cli

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs Main with stdout/stderr captured.
func capture(t *testing.T, args ...string) (code int, out, errOut string) {
	t.Helper()
	var bufOut, bufErr bytes.Buffer
	oldOut, oldErr := stdout, stderr
	stdout, stderr = &bufOut, &bufErr
	defer func() { stdout, stderr = oldOut, oldErr }()
	code = Main(args)
	return code, bufOut.String(), bufErr.String()
}

func TestUnknownSubcommand(t *testing.T) {
	code, _, errOut := capture(t, "frobnicate")
	if code != 2 || !strings.Contains(errOut, "unknown subcommand") {
		t.Errorf("code=%d err=%q", code, errOut)
	}
	if code, _, _ := capture(t, "help"); code != 0 {
		t.Errorf("help should exit 0, got %d", code)
	}
	if code, _, errOut := capture(t); code != 2 || !strings.Contains(errOut, "Usage") {
		t.Errorf("bare mcc should print usage and exit 2: %d %q", code, errOut)
	}
}

func TestListShowsRegistries(t *testing.T) {
	code, out, _ := capture(t, "list")
	if code != 0 {
		t.Fatalf("list exited %d", code)
	}
	for _, want := range []string{"hotspot", "fraction", "mcc", "clustered", "traffic pattern", "measure", "absorption"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestRunFromFlags(t *testing.T) {
	code, out, errOut := capture(t, "run",
		"-measure", "absorption", "-dim", "6", "-faults", "4,10", "-trials", "2", "-csv")
	if code != 0 {
		t.Fatalf("run failed: %s", errOut)
	}
	if lines := strings.Count(out, "\n"); lines != 3 { // header + 2 rows
		t.Errorf("expected 3 CSV lines, got %d:\n%s", lines, out)
	}
}

func TestRunProgressStreams(t *testing.T) {
	code, _, errOut := capture(t, "run",
		"-dim", "6", "-faults", "6", "-patterns", "uniform", "-models", "mcc",
		"-rates", "0.02", "-trials", "1", "-warmup", "5", "-window", "30", "-progress")
	if code != 0 {
		t.Fatalf("run failed: %s", errOut)
	}
	if !strings.Contains(errOut, "[1/1] uniform/mcc/0.020") {
		t.Errorf("progress not streamed: %q", errOut)
	}
}

func TestRunRejectsFlagSpecConflict(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	if err := os.WriteFile(path, []byte(`{"mesh": {"x": 5, "y": 5}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := capture(t, "run", "-spec", path, "-dim", "9")
	if code != 2 || !strings.Contains(errOut, "cannot be combined with -spec") {
		t.Errorf("run conflict not rejected: %d %q", code, errOut)
	}
	// -workers/-csv are execution knobs, not scenario content: allowed.
	if code, _, errOut = capture(t, "run", "-spec", path, "-workers", "2", "-csv"); code != 0 {
		t.Errorf("run -spec -workers should run: %d %q", code, errOut)
	}
}

func TestRunActionableSpecErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"mesh": {"x": 6, "y": 6}, "workload": {"patterns": "hotpsot"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := capture(t, "run", "-spec", path)
	if code != 2 || !strings.Contains(errOut, `did you mean "hotspot"?`) {
		t.Errorf("typo in spec file not surfaced: %d %q", code, errOut)
	}
}

func TestInspectorSubcommands(t *testing.T) {
	if code, out, errOut := capture(t, "sim", "-dims", "7x7x7", "-faults", "12", "-pairs", "1"); code != 0 || !strings.Contains(out, "MCC model") {
		t.Errorf("sim: %d %q %q", code, out, errOut)
	}
	if code, out, errOut := capture(t, "viz", "-dims", "8x8", "-faults", "5"); code != 0 || !strings.Contains(out, "faults=5") {
		t.Errorf("viz: %d %q %q", code, out, errOut)
	}
	if code, out, errOut := capture(t, "proto", "-dims", "7x7x7", "-faults", "10", "-pairs", "1"); code != 0 || !strings.Contains(out, "information model") {
		t.Errorf("proto: %d %q %q", code, out, errOut)
	}
	// Every inspector dumps a loadable spec.
	code, spec, _ := capture(t, "viz", "-dims", "8x8", "-faults", "5", "-dump-spec")
	if code != 0 {
		t.Fatal("viz -dump-spec failed")
	}
	path := filepath.Join(t.TempDir(), "viz.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out, errOut := capture(t, "viz", "-spec", path); code != 0 || !strings.Contains(out, "faults=5") {
		t.Errorf("viz -spec: %d %q %q", code, out, errOut)
	}
}

func TestInspectorsRejectFlagSpecConflict(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	if err := os.WriteFile(path, []byte(`{"mesh": {"x": 6, "y": 6}, "faults": {"inject": "uniform", "counts": [4]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"sim", "proto", "viz"} {
		code, _, errOut := capture(t, sub, "-spec", path, "-faults", "99")
		if code != 2 || !strings.Contains(errOut, "cannot be combined with -spec") {
			t.Errorf("%s: conflict not rejected: %d %q", sub, code, errOut)
		}
	}
	// Presentation flags stay allowed alongside -spec.
	if code, out, errOut := capture(t, "viz", "-spec", path, "-blocks"); code != 0 || !strings.Contains(out, "faults=4") {
		t.Errorf("viz -spec -blocks should run: %d %q %q", code, out, errOut)
	}
}

func TestSimClusteredSetup(t *testing.T) {
	code, out, _ := capture(t, "sim", "-dims", "7x7x7", "-cluster", "2", "-clustersize", "4", "-pairs", "1")
	if code != 0 || !strings.Contains(out, "clustered") {
		t.Errorf("clustered sim: %d %q", code, out)
	}
}

func TestBenchJSONWritesBenchFile(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(spec, []byte(`{
  "name": "tiny-bench",
  "mesh": {"x": 5, "y": 5, "z": 5},
  "faults": {"inject": "uniform", "counts": [5]},
  "model": "local",
  "workload": {"patterns": "uniform", "rates": [0.05]},
  "measure": {"kind": "bench", "warmup": 5, "window": 40},
  "seed": 3,
  "trials": 1
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "BENCH_traffic.json")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	code, stdout, errOut := capture(t, "bench", "-spec", spec, "-json", out, "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("bench -json exited %d: %s", code, errOut)
	}
	if !strings.Contains(stdout, "events/sec") {
		t.Errorf("bench table missing from stdout: %q", stdout)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("BENCH file not written: %v", err)
	}
	for _, key := range []string{"events_per_sec", "ns_per_packet", "allocs_per_packet"} {
		if !strings.Contains(string(data), key) {
			t.Errorf("BENCH json misses %q", key)
		}
	}
	for _, prof := range []string{cpu, mem} {
		if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
			t.Errorf("profile %s not written (err=%v)", prof, err)
		}
	}
}

func TestRunTelemetryOutputs(t *testing.T) {
	dir := t.TempDir()
	base := []string{"run",
		"-dim", "6", "-faults", "6", "-patterns", "uniform", "-models", "mcc",
		"-rates", "0.02", "-trials", "2", "-warmup", "5", "-window", "60"}

	// -v prints the counter summary table after the experiment table.
	code, out, errOut := capture(t, append(base, "-v")...)
	if code != 0 {
		t.Fatalf("run -v failed: %s", errOut)
	}
	for _, want := range []string{"Telemetry counters", "traffic.injected", "routing.decision_hits"} {
		if !strings.Contains(out, want) {
			t.Errorf("run -v output missing %q:\n%s", want, out)
		}
	}

	// -metrics writes well-formed per-cell counter JSON; -trace writes JSONL
	// whose every line decodes. Both must be byte-identical at any -workers.
	var metricsRuns, traceRuns []string
	for _, workers := range []string{"1", "8"} {
		metrics := filepath.Join(dir, "metrics-"+workers+".json")
		trace := filepath.Join(dir, "trace-"+workers+".jsonl")
		args := append(base, "-metrics", metrics, "-trace", trace, "-workers", workers)
		if code, _, errOut := capture(t, args...); code != 0 {
			t.Fatalf("run -metrics -trace (workers=%s) failed: %s", workers, errOut)
		}
		m, err := os.ReadFile(metrics)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Cells []map[string]any `json:"cells"`
		}
		if err := json.Unmarshal(m, &doc); err != nil || len(doc.Cells) == 0 {
			t.Fatalf("metrics file malformed (err=%v): %s", err, m)
		}
		tr, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(tr)), "\n")
		if len(lines) == 0 || lines[0] == "" {
			t.Fatal("trace file is empty")
		}
		for _, line := range lines {
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("trace line does not decode: %v\n%s", err, line)
			}
		}
		metricsRuns = append(metricsRuns, string(m))
		traceRuns = append(traceRuns, string(tr))
	}
	if metricsRuns[0] != metricsRuns[1] {
		t.Error("metrics output differs between -workers 1 and 8")
	}
	if traceRuns[0] != traceRuns[1] {
		t.Error("trace output differs between -workers 1 and 8")
	}
}

// TestBenchBaselineGatesEventsRate doctors a baseline so the fresh run sits
// more than 10% below it; the delta step must fail the run.
func TestBenchBaselineGatesEventsRate(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(spec, []byte(`{
  "name": "tiny-bench",
  "mesh": {"x": 5, "y": 5, "z": 5},
  "faults": {"inject": "uniform", "counts": [5]},
  "model": "local",
  "workload": {"patterns": "uniform", "rates": [0.05]},
  "measure": {"kind": "bench", "warmup": 5, "window": 40},
  "seed": 3,
  "trials": 1
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "bench-out.json")
	if code, _, errOut := capture(t, "bench", "-spec", spec, "-json", out); code != 0 {
		t.Fatalf("bench -json failed: %s", errOut)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Cells []map[string]any `json:"cells"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.Cells) == 0 {
		t.Fatalf("bench json malformed (err=%v)", err)
	}
	// Real timing is too noisy to assert either direction against an honest
	// baseline, so doctor it: scaling the baseline rate far down (up) forces
	// the fresh run far above (below) the 10% floor deterministically.
	scaled := func(name string, factor float64) string {
		cells := make([]map[string]any, len(doc.Cells))
		for i, cell := range doc.Cells {
			c := make(map[string]any, len(cell))
			for k, v := range cell {
				c[k] = v
			}
			c["events_per_sec"] = c["events_per_sec"].(float64) * factor
			cells[i] = c
		}
		doctored, err := json.Marshal(map[string]any{"cells": cells})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, doctored, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if code, _, errOut := capture(t, "bench", "-spec", spec, "-json", filepath.Join(dir, "b1.json"), "-baseline", scaled("slow.json", 0.01)); code != 0 {
		t.Fatalf("bench -baseline against a slower baseline failed: %s", errOut)
	}
	code, stdout, errOut := capture(t, "bench", "-spec", spec, "-json", filepath.Join(dir, "b2.json"), "-baseline", scaled("fast.json", 100))
	if code == 0 || !strings.Contains(errOut, "events/sec") {
		t.Errorf("events/sec regression not gated: code=%d err=%q", code, errOut)
	}
	if !strings.Contains(stdout, "delta vs") {
		t.Errorf("delta table missing: %q", stdout)
	}
}

// TestBenchWithoutJSONPointsAtRunSpec: mcc bench is the event-core
// benchmark only; without -json it exits 2 and names the spec-file path
// that regenerates the evaluation tables.
func TestBenchWithoutJSONPointsAtRunSpec(t *testing.T) {
	for _, args := range [][]string{{"bench"}, {"bench", "-csv"}} {
		code, _, errOut := capture(t, args...)
		if code != 2 || !strings.Contains(errOut, "mcc run -spec specs/eN.json") {
			t.Errorf("%v: code=%d err=%q, want exit 2 naming mcc run -spec", args, code, errOut)
		}
	}
}

// TestBenchRejectsFlagAsJSONPath: in `mcc bench -json -baseline F`, -json
// takes "-baseline" as its path. The run must fail before doing any work
// and create no file of that name.
func TestBenchRejectsFlagAsJSONPath(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	code, _, errOut := capture(t, "bench", "-json", "-baseline", "BENCH_traffic.json")
	if code == 0 || !strings.Contains(errOut, "-baseline") {
		t.Errorf("code=%d err=%q, want a non-zero exit naming -baseline", code, errOut)
	}
	if _, err := os.Stat(filepath.Join(dir, "-baseline")); !os.IsNotExist(err) {
		t.Errorf("a file named -baseline was created (stat err %v)", err)
	}
}

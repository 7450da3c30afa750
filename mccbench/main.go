// Command mccbench is the repository's benchmark. It runs one workload for a
// fixed wall-clock budget, checks every simulated result, and prints one JSON
// result line as the last line of its standard output:
//
//	mccbench --workload churn32 --seed 1 --seconds 30 --trace 0
//
// Untraced runs (--trace 0) report every end-to-end metric; traced runs
// (--trace 1) report the per-layer ledger. Workloads, metrics and the
// correctness checks are described in README.md next to this file. Run it
// from the repository root through run.sh, which builds it first.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"mccmesh/internal/scenario"
)

// benchDir is the benchmark's directory relative to the repository root, the
// working directory every run starts in.
const benchDir = "mccbench"

// workDir holds what a run leaves behind (span files, the serve-mix journal).
// run.sh passes its build directory, where the binary and the Go caches are.
var workDir = ".bench_build"

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ledger counts the operations a run attempted and the ones that failed: a
// simulated result that disagrees with its reference, an engine error, a
// non-2xx answer or a job that did not finish done. The first few failures
// are printed to standard error.
type ledger struct {
	attempted, failed int
}

func (l *ledger) ok(cond bool, format string, args ...any) {
	l.attempted++
	if cond {
		return
	}
	l.failed++
	if l.failed <= 10 {
		fmt.Fprintf(os.Stderr, "mccbench: FAILED: "+format+"\n", args...)
	}
}

// fail records an attempted operation that failed outright.
func (l *ledger) fail(format string, args ...any) { l.ok(false, format, args...) }

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	budget   time.Duration
	traced   bool
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: churn32, static32 or serve-mix")
		seed     = flag.Uint64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "measurement budget in seconds")
		trace    = flag.Int("trace", 0, "0 reports end-to-end metrics, 1 runs the traced variant and reports per-layer metrics")
		record   = flag.Bool("record", false, "record the reference result hashes for the default seed into reference.json and exit")
	)
	flag.StringVar(&workDir, "out", workDir, "directory for span files and the serve-mix journal")
	flag.Parse()
	if err := checkRoot(); err != nil {
		fatal(err)
	}
	if *record {
		if err := recordReference(); err != nil {
			fatal(err)
		}
		return
	}
	if !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("want --seconds > 0 and --trace 0 or 1"))
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
	}
	run, ok := workloads[cfg.workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", ")))
	}
	host := hostTag()
	host.ProbeBeforeMs = memoryProbe()
	var l ledger
	metrics, err := run(cfg, &l)
	if err != nil {
		fatal(err)
	}
	host.ProbeAfterMs = memoryProbe()
	diag, _ := json.Marshal(host)
	fmt.Fprintf(os.Stderr, "mccbench: host %s\n", diag)
	if err := conform(metrics, cfg.traced); err != nil {
		fatal(err)
	}
	out, err := json.Marshal(result{
		Correct:   l.failed == 0 && l.attempted > 0,
		Attempted: l.attempted,
		Failed:    l.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// workloads maps each workload name to its runner. A runner measures for
// cfg.budget and returns every end-to-end metric (untraced) or the per-layer
// metrics of the layers it runs (traced).
var workloads = map[string]func(cfg config, l *ledger) (map[string]metric, error){
	"churn32":   runSim,
	"static32":  runSim,
	"serve-mix": runServe,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mccbench: %v\n", err)
	os.Exit(1)
}

// checkRoot refuses to run anywhere but a repository root holding this
// benchmark's workload specs.
func checkRoot() error {
	if _, err := os.Stat(filepath.Join(benchDir, "workloads")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	return os.MkdirAll(workDir, 0o755)
}

// loadSpec reads a workload's spec file, sets its seed and validates it
// through scenario.Load. It returns the spec bytes it loaded as well, the
// document serve-mix submits over HTTP.
func loadSpec(name string, seed uint64) (*scenario.Scenario, []byte, error) {
	raw, err := os.ReadFile(filepath.Join(benchDir, "workloads", name+".json"))
	if err != nil {
		return nil, nil, err
	}
	return specWithSeed(raw, seed)
}

// specWithSeed rewrites the "seed" field of a spec document and loads it.
func specWithSeed(raw []byte, seed uint64) (*scenario.Scenario, []byte, error) {
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, nil, fmt.Errorf("spec: %w", err)
	}
	doc["seed"] = seed
	b, err := json.Marshal(doc)
	if err != nil {
		return nil, nil, err
	}
	sc, err := scenario.Load(strings.NewReader(string(b)))
	if err != nil {
		return nil, nil, err
	}
	return sc, b, nil
}

// host is the tag every run prints to standard error: what the numbers were
// measured on, and a memory-bound probe timed before and after the workload
// so a slow run can be attributed to a busy host. The probe is a diagnostic
// only; no run is dropped because of it.
type host struct {
	CPU           string  `json:"cpu"`
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go"`
	ProbeBeforeMs float64 `json:"probe_before_ms"`
	ProbeAfterMs  float64 `json:"probe_after_ms"`
}

func hostTag() host {
	h := host{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// probeSink keeps the probe's result alive so the loop is not optimised away.
var probeSink uint64

// memoryProbe times a fixed dependent walk through 8 MiB, a loop bound by
// memory latency like the simulator itself, and returns milliseconds.
func memoryProbe() float64 {
	const n = 1 << 20 // 1 Mi uint64 = 8 MiB
	next := make([]uint64, n)
	// A single cycle through every slot with a large odd stride defeats the
	// prefetcher without needing a random permutation.
	const stride = 2654435761 % n
	for i := range next {
		next[i] = uint64((i + stride) % n)
	}
	start := time.Now()
	var at uint64
	for i := 0; i < n; i++ {
		at = next[at]
	}
	probeSink += at
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// conform checks a run's metrics against BENCHMARK.json: an untraced run
// must report every end-to-end metric, each above 0, and a traced run every
// per-layer metric, each with its declared unit. A traced run of a workload
// that does not run a layer reports that layer's metrics as 0, which the
// runner leaves out and conform fills in.
func conform(metrics map[string]metric, traced bool) error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	type declared struct{ Name, Unit string }
	var decl struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := decl.EndToEnd
	if traced {
		list = decl.PerLayer
	}
	units := map[string]string{}
	for _, m := range list {
		units[m.Name] = m.Unit
		got, ok := metrics[m.Name]
		switch {
		case !ok && traced:
			metrics[m.Name] = metric{0, m.Unit}
		case !ok:
			return fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		case !traced && (!(got.Value > 0) || math.IsInf(got.Value, 1)):
			return fmt.Errorf("end-to-end metric %s measured %v", m.Name, got.Value)
		}
	}
	for name, m := range metrics {
		if unit, ok := units[name]; !ok || unit != m.Unit {
			return fmt.Errorf("metric %s (%s) is not declared with that unit in BENCHMARK.json", name, m.Unit)
		}
	}
	return nil
}

// errNoSamples reports a run too short to produce a metric.
var errNoSamples = errors.New("no samples in the measurement window")

package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"mccmesh/internal/mesh"
	"mccmesh/internal/rng"
	"mccmesh/internal/scenario"
	"mccmesh/internal/stats"
)

// loadSpec reads a scenario from a spec file ("-" = stdin).
func loadSpec(path string) (*scenario.Scenario, error) {
	if path == "-" {
		return scenario.Load(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc, err := scenario.Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// rejectFlagSpecClash errors when any flag outside the allowed set was given
// together with -spec: the run is defined by the spec file, and silently
// ignoring another flag would misreport what ran.
func rejectFlagSpecClash(fs *flag.FlagSet, allowed ...string) error {
	ok := map[string]bool{"spec": true}
	for _, a := range allowed {
		ok[a] = true
	}
	var clash []string
	fs.Visit(func(f *flag.Flag) {
		if !ok[f.Name] {
			clash = append(clash, "-"+f.Name)
		}
	})
	if len(clash) > 0 {
		return fmt.Errorf("%s cannot be combined with -spec (edit the spec file instead)", strings.Join(clash, ", "))
	}
	return nil
}

// loadSpecWithExec loads a spec file and applies the -workers / -shards
// execution overrides, each only when the flag was given on the command line
// (the execution knobs are the one part of a spec the CLI may override — they
// are not part of the result).
func loadSpecWithExec(path string, fs *flag.FlagSet, workers, shards int) (*scenario.Scenario, error) {
	sc, err := loadSpec(path)
	if err != nil {
		return nil, err
	}
	setWorkers, setShards := false, false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "workers":
			setWorkers = true
		case "shards":
			setShards = true
		}
	})
	if !setWorkers && !setShards {
		return sc, nil
	}
	spec := sc.Spec()
	if setWorkers {
		spec.SetWorkers(workers)
	}
	if setShards {
		spec.SetShards(shards)
	}
	return scenario.New(spec)
}

// profileFlags is the -cpuprofile/-memprofile pair shared by run and bench.
type profileFlags struct {
	cpu, mem *string
}

func addProfileFlags(fs *flag.FlagSet) *profileFlags {
	return &profileFlags{
		cpu: fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file"),
		mem: fs.String("memprofile", "", "write a pprof heap profile at the end of the run to this file"),
	}
}

// start begins CPU profiling when requested and returns the shutdown function
// to defer: it stops the CPU profile and writes the heap profile. cmd names
// the subcommand in error messages. Heap-profile errors are reported to
// stderr rather than returned — by the time they surface the run's real
// output already happened, and discarding it over a profile would be worse.
func (pf *profileFlags) start(cmd string) (stop func(), err error) {
	stopCPU := func() {}
	if *pf.cpu != "" {
		f, err := os.Create(*pf.cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	return func() {
		stopCPU()
		if *pf.mem == "" {
			return
		}
		f, err := os.Create(*pf.mem)
		if err != nil {
			fmt.Fprintf(stderr, "mcc %s: -memprofile: %v\n", cmd, err)
			return
		}
		defer f.Close()
		runtime.GC() // flush recently freed objects out of the profile
		if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
			fmt.Fprintf(stderr, "mcc %s: -memprofile: %v\n", cmd, err)
		}
	}, nil
}

// writeMetrics writes the telemetry sections of the reports to path as one
// JSON document (the -metrics flag).
func writeMetrics(path string, reps ...*scenario.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return scenario.WriteMetricsJSON(f, reps...)
}

// writeTraces writes the sampled packet traces of the reports to path as JSON
// Lines (the -trace flag).
func writeTraces(path string, reps ...*scenario.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, rep := range reps {
		if err := rep.WriteTracesJSONL(f); err != nil {
			return err
		}
	}
	return nil
}

// counterTable renders the merged telemetry counters of the reports as one
// human-readable table (the -v flag): one column per cell would explode on
// big sweeps, so counters are summed across cells (gauges take the max at
// merge time already, per cell; across cells the sum of per-cell maxima is
// still the honest aggregate for a quick scan — per-cell detail lives in
// -metrics).
func counterTable(reps ...*scenario.Report) *stats.Table {
	totals := make(map[string]int64)
	cells := 0
	for _, rep := range reps {
		for _, ct := range rep.Telemetry {
			cells++
			for name, v := range ct.Counters {
				totals[name] += v
			}
		}
	}
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	t := &stats.Table{Title: "Telemetry counters", Columns: []string{"counter", "total"}}
	for _, name := range names {
		t.AddRow(name, strconv.FormatInt(totals[name], 10))
	}
	t.AddNote("summed across %d cell(s); per-cell snapshots via -metrics", cells)
	return t
}

// newScenario validates a spec built in-process.
func newScenario(spec scenario.Spec) (*scenario.Scenario, error) {
	return scenario.New(spec)
}

// dumpSpec prints the normalised spec of a scenario to stdout.
func dumpSpec(sc *scenario.Scenario) int {
	if err := sc.WriteSpec(stdout); err != nil {
		return fail("dump-spec", err)
	}
	return 0
}

// parseMeshSpec parses "10x10x10" / "16x16" into a mesh spec.
func parseMeshSpec(s string) (scenario.MeshSpec, error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 2 && len(parts) != 3 {
		return scenario.MeshSpec{}, fmt.Errorf("invalid -dims %q (want AxB or AxBxC)", s)
	}
	vals := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 2 {
			return scenario.MeshSpec{}, fmt.Errorf("invalid -dims %q: %q is not a valid extent", s, p)
		}
		vals[i] = v
	}
	if len(vals) == 2 {
		return scenario.MeshSpec{X: vals[0], Y: vals[1]}, nil
	}
	return scenario.MeshSpec{X: vals[0], Y: vals[1], Z: vals[2]}, nil
}

// splitList splits a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseInts parses a comma-separated list of non-negative ints.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("invalid count %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseRates parses a comma-separated list of rates in (0,1].
func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range splitList(s) {
		v, err := strconv.ParseFloat(part, 64)
		// The inverted comparison rejects NaN, which satisfies neither bound.
		if err != nil || !(v > 0 && v <= 1) {
			return nil, fmt.Errorf("invalid rate %q (want a value in (0,1])", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// setupFlags is the mesh/fault/seed flag block shared by sim, proto and viz:
// the part of a scenario those inspectors consume.
type setupFlags struct {
	fs      *flag.FlagSet
	dims    *string
	faults  *int
	cluster *int
	csize   *int
	seed    *uint64
	spec    *string
	dump    *bool
}

func addSetupFlags(fs *flag.FlagSet, defaultDims string, defaultFaults int) *setupFlags {
	return &setupFlags{
		fs:      fs,
		dims:    fs.String("dims", defaultDims, "mesh dimensions, e.g. 16x16 or 10x10x10"),
		faults:  fs.Int("faults", defaultFaults, "number of uniform random node faults"),
		cluster: fs.Int("cluster", 0, "if > 0, inject this many clusters of -clustersize faults instead"),
		csize:   fs.Int("clustersize", 5, "faults per cluster when -cluster is used"),
		seed:    fs.Uint64("seed", 1, "random seed"),
		spec:    fs.String("spec", "", "load mesh/faults/seed from a scenario spec file (- = stdin)"),
		dump:    fs.Bool("dump-spec", false, "print the scenario spec for these flags and exit"),
	}
}

// scenario translates the setup flags (or the loaded spec file) into a
// validated scenario whose mesh/faults/seed the inspector subcommands use.
// With -spec, only -dump-spec and the subcommand's own presentation flags
// (allowed) may be combined — a silently ignored -faults would misreport what
// ran.
func (sf *setupFlags) scenario(allowed ...string) (*scenario.Scenario, error) {
	if *sf.spec != "" {
		if err := rejectFlagSpecClash(sf.fs, append(allowed, "dump-spec")...); err != nil {
			return nil, err
		}
		return loadSpec(*sf.spec)
	}
	m, err := parseMeshSpec(*sf.dims)
	if err != nil {
		return nil, err
	}
	spec := scenario.Spec{Mesh: m, Seed: *sf.seed}
	if *sf.cluster > 0 {
		spec.Faults = scenario.FaultSpec{
			Inject: scenario.Component{Name: "clustered", Params: map[string]any{"clusters": *sf.cluster, "size": *sf.csize}},
			Counts: []int{*sf.cluster * *sf.csize},
		}
	} else {
		spec.Faults = scenario.FaultSpec{Inject: scenario.C("uniform"), Counts: []int{*sf.faults}}
	}
	return scenario.New(spec)
}

// materialize builds the mesh of a scenario spec, injects its static faults
// and returns the mesh together with the random stream used (so callers can
// keep drawing from it, exactly as the standalone binaries did).
func materialize(sc *scenario.Scenario) (*mesh.Mesh, *rng.Rand) {
	spec := sc.Spec()
	m := spec.Mesh.New()
	r := rng.New(spec.Seed)
	n := 0
	if len(spec.Faults.Counts) > 0 {
		n = spec.Faults.Counts[0]
	}
	inj, err := spec.Faults.Injector(n)
	if err != nil {
		panic(err) // validated by scenario.New
	}
	inj.Inject(m, r)
	return m, r
}

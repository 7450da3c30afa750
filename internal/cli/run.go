package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"strings"
	"time"

	"mccmesh/internal/scenario"
)

// cmdRun runs one declarative scenario: loaded from -spec, or assembled from
// flags (the successor of the mcctraffic flag surface, generalised to every
// measure via -measure).
func cmdRun(args []string) int {
	fs := flag.NewFlagSet("mcc run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath = fs.String("spec", "", "scenario spec file to run (- = stdin); overrides the spec-building flags")
		dump     = fs.Bool("dump-spec", false, "print the normalised scenario spec and exit")
		measure  = fs.String("measure", "traffic", "measure to run: traffic (e7) or absorption, success, distance, overhead, ablation, adaptivity (e1..e6)")
		dim      = fs.Int("dim", 10, "mesh edge length")
		twoD     = fs.Bool("2d", false, "use a 2-D mesh instead of 3-D")
		faultsF  = fs.String("faults", "50", "comma separated fault counts (first count = traffic's static fault set)")
		clust    = fs.Bool("clustered", false, "inject clustered faults instead of uniform random faults")
		csize    = fs.Int("clustersize", 5, "faults per cluster when -clustered is set")
		seed     = fs.Uint64("seed", 20050500, "random seed")
		patterns = fs.String("patterns", "uniform,transpose,hotspot", "comma separated traffic patterns (see 'mcc list')")
		models   = fs.String("models", "mcc,rfb", "comma separated information models (see 'mcc list')")
		rates    = fs.String("rates", "0.005,0.01,0.02", "comma separated injection rates (packets per node per tick)")
		trials   = fs.Int("trials", 5, "fault configurations per sweep cell")
		pairs    = fs.Int("pairs", 10, "source/destination pairs per trial (routing measures)")
		minDist  = fs.Int("mindist", 10, "minimum Manhattan distance between pairs (routing measures)")
		warmup   = fs.Int("warmup", 50, "warmup ticks before measurement (traffic)")
		window   = fs.Int("window", 200, "measurement window in ticks (traffic)")
		workers  = fs.Int("workers", 0, "parallel trial workers (0 = GOMAXPROCS); any value gives identical tables")
		shards   = fs.Int("shards", 0, "spatial shards per trial (0/1 = sequential); any value gives identical tables")
		hotFrac  = fs.Float64("hotspot", 0, "hotspot traffic fraction (0 = pattern default)")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned text")
		progress = fs.Bool("progress", false, "stream per-cell progress to stderr")
		metrics  = fs.String("metrics", "", "enable telemetry counters and write per-cell snapshots to this JSON file")
		trace    = fs.String("trace", "", "sample packet traces (1 in 64) and write them to this JSONL file")
		verbose  = fs.Bool("v", false, "enable telemetry counters and print a summary table after the run")
	)
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopProf, err := prof.start("run")
	if err != nil {
		return fail("run", err)
	}
	defer stopProf()

	var sc *scenario.Scenario
	if *specPath != "" {
		// With -spec, the scenario is the file; only execution/output flags
		// may be combined with it.
		if err := rejectFlagSpecClash(fs, "dump-spec", "workers", "shards", "csv", "progress",
			"metrics", "trace", "v", "cpuprofile", "memprofile"); err != nil {
			return fail("run", err)
		}
		sc, err = loadSpecWithExec(*specPath, fs, *workers, *shards)
	} else {
		sc, err = flagScenario(flagSpecInputs{
			measure: *measure, dim: *dim, twoD: *twoD, faults: *faultsF,
			clustered: *clust, csize: *csize, seed: *seed,
			patterns: *patterns, models: *models, rates: *rates,
			trials: *trials, pairs: *pairs, minDist: *minDist,
			warmup: *warmup, window: *window, workers: *workers, shards: *shards, hotFrac: *hotFrac,
		})
	}
	if err != nil {
		return fail("run", err)
	}
	if *dump {
		return dumpSpec(sc)
	}
	if *progress {
		sc.Observe(progressObserver())
	}
	if *metrics != "" || *verbose {
		sc.EnableTelemetry()
	}
	if *trace != "" {
		sc.EnableTracing(0) // default 1-in-64 sampling
	}
	ctx := context.Background()
	spec := sc.Spec()
	if secs := spec.TimeoutSeconds(); secs > 0 {
		// The spec's own wall-clock budget, honoured locally exactly as
		// `mcc serve` honours it: the run stops at the deadline with the
		// completed cells kept and the interrupted cell marked TIMEOUT.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(secs*float64(time.Second)))
		defer cancel()
	}
	rep, err := sc.Run(ctx)
	if err != nil {
		if rep != nil && errors.Is(err, context.DeadlineExceeded) {
			// Salvage the completed prefix before reporting the timeout.
			printTable(rep.Table, *csv)
		}
		return fail("run", err)
	}
	printTable(rep.Table, *csv)
	if *verbose {
		fmt.Fprintln(stdout, counterTable(rep).Render())
	}
	if *metrics != "" {
		if err := writeMetrics(*metrics, rep); err != nil {
			return fail("run", err)
		}
		fmt.Fprintf(stderr, "mcc run: wrote %s\n", *metrics)
	}
	if *trace != "" {
		if err := writeTraces(*trace, rep); err != nil {
			return fail("run", err)
		}
		fmt.Fprintf(stderr, "mcc run: wrote %s\n", *trace)
	}
	return 0
}

// flagSpecInputs carries the spec-building flag values of `mcc run`.
type flagSpecInputs struct {
	measure          string
	dim              int
	twoD             bool
	faults           string
	clustered        bool
	csize            int
	seed             uint64
	patterns, models string
	rates            string
	trials, pairs    int
	minDist          int
	warmup, window   int
	workers, shards  int
	hotFrac          float64
}

// flagScenario assembles a scenario spec from the run flag surface.
func flagScenario(in flagSpecInputs) (*scenario.Scenario, error) {
	counts, err := parseInts(in.faults)
	if err != nil {
		return nil, err
	}
	rates, err := parseRates(in.rates)
	if err != nil {
		return nil, err
	}
	// An explicitly empty list is a mistake, not a request for the defaults.
	if len(splitList(in.patterns)) == 0 || len(splitList(in.models)) == 0 || len(rates) == 0 {
		return nil, fmt.Errorf("-patterns, -models and -rates must each name at least one entry")
	}
	if in.hotFrac < 0 || in.hotFrac > 1 {
		return nil, fmt.Errorf("-hotspot must be in [0,1]")
	}
	inject := scenario.C("uniform")
	if in.clustered {
		inject = scenario.Component{Name: "clustered", Params: map[string]any{"size": in.csize}}
	}
	mesh := scenario.Cube(in.dim)
	if in.twoD {
		mesh = scenario.Square(in.dim)
	}
	spec := scenario.Spec{
		Mesh:   mesh,
		Faults: scenario.FaultSpec{Inject: inject, Counts: counts},
		Models: scenario.ComponentsOf(splitList(in.models)...),
		Workload: scenario.WorkloadSpec{
			Patterns: scenario.PatternComponents(splitList(in.patterns), in.hotFrac),
			Rates:    rates,
		},
		Measure: scenario.MeasureSpec{
			Kind:        in.measure,
			Pairs:       in.pairs,
			MinDistance: in.minDist,
			Warmup:      in.warmup,
			Window:      in.window,
		},
		Seed:   in.seed,
		Trials: in.trials,
	}
	spec.SetWorkers(in.workers)
	if in.shards != 0 {
		spec.SetShards(in.shards)
	}
	return scenario.New(spec)
}

// progressObserver streams cell progress lines to stderr.
func progressObserver() scenario.Observer {
	return func(ev scenario.Event) {
		if ev.Done {
			fmt.Fprintf(stderr, "[%d/%d] %s: %s\n", ev.Cell+1, ev.Total, ev.Label, strings.Join(ev.Row, "  "))
		} else {
			fmt.Fprintf(stderr, "[%d/%d] %s ...\n", ev.Cell+1, ev.Total, ev.Label)
		}
	}
}

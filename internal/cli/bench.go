package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"mccmesh/internal/scenario"
	"mccmesh/internal/server"
	"mccmesh/internal/stats"
)

// cmdBench runs the event-core benchmark (the "bench" measure) and writes
// its cells as machine-readable JSON, e.g. BENCH_traffic.json. Without -spec
// it runs the default suite; -baseline gates the fresh cells against a
// committed file, and -cpuprofile/-memprofile capture pprof profiles of the
// run. The evaluation tables E1–E7 are spec files run by `mcc run -spec`.
func cmdBench(args []string) int {
	fs := flag.NewFlagSet("mcc bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonPath = fs.String("json", "", "write the benchmark cells to this file, e.g. BENCH_traffic.json (required)")
		specPath = fs.String("spec", "", "run this \"bench\"-measure spec file (- = stdin) instead of the default suite")
		baseline = fs.String("baseline", "", "print per-cell events/sec and allocs/packet deltas against this committed BENCH_traffic.json")
		metrics  = fs.String("metrics", "", "write per-cell telemetry counter snapshots to this JSON file")
		verbose  = fs.Bool("v", false, "print a telemetry counter summary table after the run")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned text")
	)
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonPath == "" {
		return fail("bench", fmt.Errorf("-json is required (mcc bench runs the event-core benchmark only); "+
			"for the evaluation tables E1..E7 use `mcc run -spec specs/eN.json`"))
	}
	// A path that starts with "-" is a flag the value of -json swallowed:
	// `-json -baseline F` would write a file named -baseline and gate
	// nothing.
	if strings.HasPrefix(*jsonPath, "-") {
		return fail("bench", fmt.Errorf("-json needs an output path, got the flag %q", *jsonPath))
	}

	stopProf, err := prof.start("bench")
	if err != nil {
		return fail("bench", err)
	}
	defer stopProf()

	// Without -spec the default suite runs: the churn-free reference
	// workload plus the fault-churn workload, merged into one cell list.
	var scs []*scenario.Scenario
	if *specPath != "" {
		sc, err := loadSpec(*specPath)
		if err != nil {
			return fail("bench", err)
		}
		scs = append(scs, sc)
	} else {
		for _, spec := range scenario.BenchSpecs() {
			sc, err := newScenario(spec)
			if err != nil {
				return fail("bench", err)
			}
			scs = append(scs, sc)
		}
	}
	// Fail fast on a non-bench spec: running a full traffic sweep only to
	// discover there are no benchmark results would waste the whole run
	// (and truncate the output file).
	for _, sc := range scs {
		if e, err := scenario.Measures.Lookup(sc.Spec().Measure.Kind); err != nil || e.Name != scenario.MeasureBench {
			return fail("bench", fmt.Errorf("-json needs a %q-measure spec, got measure %q", scenario.MeasureBench, sc.Spec().Measure.Kind))
		}
	}
	var cells []scenario.BenchResult
	var reps []*scenario.Report
	for _, sc := range scs {
		rep, err := sc.Run(context.Background())
		if err != nil {
			return fail("bench", err)
		}
		printTable(rep.Table, *csv)
		reps = append(reps, rep)
		cells = append(cells, rep.BenchResults()...)
	}
	// The default suite also prices the serving pipeline: jobs/s for cold
	// vs cached submissions through an in-process `mcc serve` (scenario
	// keys "serve-cold"/"serve-cached"; informational in baseline deltas).
	if *specPath == "" {
		serveCells, serveTable, err := server.BenchServe(server.Config{}, 0, 0)
		if err != nil {
			return fail("bench", err)
		}
		printTable(serveTable, *csv)
		cells = append(cells, serveCells...)
	}
	f, err := os.Create(*jsonPath)
	if err != nil {
		return fail("bench", err)
	}
	defer f.Close()
	if err := scenario.WriteBenchCellsJSON(f, cells); err != nil {
		return fail("bench", err)
	}
	fmt.Fprintf(stderr, "mcc bench: wrote %s\n", *jsonPath)
	if *verbose {
		fmt.Fprintln(stdout, counterTable(reps...).Render())
	}
	if *metrics != "" {
		if err := writeMetrics(*metrics, reps...); err != nil {
			return fail("bench", err)
		}
		fmt.Fprintf(stderr, "mcc bench: wrote %s\n", *metrics)
	}
	if *baseline != "" {
		if err := printBenchDelta(cells, *baseline); err != nil {
			return fail("bench", err)
		}
	}
	return 0
}

// printBenchDelta prints, per benchmark cell, how the fresh run compares to a
// committed baseline file (events/sec speedup, allocs/packet change,
// telemetry counter drift). Cells missing from the baseline — e.g. a model
// added to the default spec after the baseline was committed — are reported
// as new rather than failing the run, so the delta step keeps working across
// spec evolution.
//
// Two properties gate the run. Allocs/packet is deterministic: a cell whose
// allocs/packet regresses materially fails, so CI catches per-packet
// allocations creeping back into the hot path. Events/sec is noisy on shared
// runners, so only a drop past eventsFloor (beyond plausible runner jitter)
// fails; smaller rate deltas stay informational. Telemetry counter deltas are
// always informational — they explain a rate change (a collapsed cache hit
// rate, a heap-fallback storm) rather than gate it.
func printBenchDelta(cells []scenario.BenchResult, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	base, err := scenario.ReadBenchJSON(f)
	if err != nil {
		return err
	}
	byKey := make(map[string]scenario.BenchResult, len(base.Cells))
	for _, c := range base.Cells {
		byKey[c.Key()] = c
	}
	var regressed []string
	fmt.Fprintf(stdout, "delta vs %s:\n", path)
	for _, c := range cells {
		b, ok := byKey[c.Key()]
		if c.JobsPerSec > 0 {
			// Server throughput cells: wall-clock jobs/s is too noisy on
			// shared runners to gate, so the delta is informational only.
			if ok && b.JobsPerSec > 0 {
				fmt.Fprintf(stdout, "  %-38s %10.1f jobs/sec (%+.1f%%)\n",
					c.Key(), c.JobsPerSec, 100*(c.JobsPerSec-b.JobsPerSec)/b.JobsPerSec)
			} else {
				fmt.Fprintf(stdout, "  %-38s %10.1f jobs/sec  (no baseline cell)\n", c.Key(), c.JobsPerSec)
			}
			continue
		}
		if !ok || b.EventsPerSec <= 0 {
			fmt.Fprintf(stdout, "  %-38s %10.0f events/sec  %6.2f allocs/pkt  (no baseline cell)\n",
				c.Key(), c.EventsPerSec, c.AllocsPerPacket)
			continue
		}
		if c.Informational {
			// Sharded cells: tracked so scaling regressions are visible in the
			// delta, but never gated — multi-shard throughput depends on the
			// runner's free cores, which CI does not guarantee.
			fmt.Fprintf(stdout, "  %-38s %10.0f events/sec (%+.1f%%, %.2fx)  allocs/pkt %.2f -> %.2f  (informational)\n",
				c.Key(), c.EventsPerSec,
				100*(c.EventsPerSec-b.EventsPerSec)/b.EventsPerSec, c.EventsPerSec/b.EventsPerSec,
				b.AllocsPerPacket, c.AllocsPerPacket)
			printCounterDelta(b.Telemetry, c.Telemetry)
			continue
		}
		fmt.Fprintf(stdout, "  %-38s %10.0f events/sec (%+.1f%%, %.2fx)  allocs/pkt %.2f -> %.2f\n",
			c.Key(), c.EventsPerSec,
			100*(c.EventsPerSec-b.EventsPerSec)/b.EventsPerSec, c.EventsPerSec/b.EventsPerSec,
			b.AllocsPerPacket, c.AllocsPerPacket)
		printCounterDelta(b.Telemetry, c.Telemetry)
		if c.AllocsPerPacket > allocsBudget(b.AllocsPerPacket) {
			regressed = append(regressed, fmt.Sprintf("%s: allocs/packet %.2f -> %.2f (budget %.2f)",
				c.Key(), b.AllocsPerPacket, c.AllocsPerPacket, allocsBudget(b.AllocsPerPacket)))
		}
		if c.EventsPerSec < b.EventsPerSec*eventsFloor {
			regressed = append(regressed, fmt.Sprintf("%s: events/sec %.0f -> %.0f (floor %.0f)",
				c.Key(), b.EventsPerSec, c.EventsPerSec, b.EventsPerSec*eventsFloor))
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("regressed against %s:\n  %s", path, strings.Join(regressed, "\n  "))
	}
	return nil
}

// eventsFloor is the fraction of the baseline events/sec a cell must sustain:
// a drop of more than 10% is beyond runner jitter and fails the run.
const eventsFloor = 0.90

// printCounterDelta prints the telemetry counters that drifted between a
// baseline cell and a fresh one (both from the untimed probe trial, so the
// values are deterministic for a given code version). Unchanged counters are
// skipped to keep the delta readable.
func printCounterDelta(base, cur map[string]int64) {
	if len(base) == 0 || len(cur) == 0 {
		return
	}
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	for name := range base {
		if _, ok := cur[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if base[name] != cur[name] {
			fmt.Fprintf(stdout, "    %-36s %12d -> %d\n", name, base[name], cur[name])
		}
	}
}

// allocsBudget is the allocs/packet ceiling a cell may reach before the
// baseline comparison fails: 10% over the baseline plus a small absolute
// slack for accounting noise (GC bookkeeping, map growth timing).
func allocsBudget(baseline float64) float64 {
	return baseline*1.10 + 0.05
}

// printTable renders a table to stdout in the selected format.
func printTable(t *stats.Table, csv bool) {
	if csv {
		fmt.Fprint(stdout, t.CSV())
	} else {
		fmt.Fprintln(stdout, t.Render())
	}
}

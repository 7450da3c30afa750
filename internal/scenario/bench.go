package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"mccmesh/internal/registry"
	"mccmesh/internal/rng"
	"mccmesh/internal/stats"
	"mccmesh/internal/traffic"
)

// MeasureBench is the canonical name of the benchmark measure.
const MeasureBench = "bench"

func init() {
	Measures.Register(registry.Entry[MeasureFn]{
		Name: MeasureBench, Aliases: []string{"perf"},
		Doc: "event-core benchmark: events/sec, ns/packet and allocs/packet over a traffic run",
		New: measureBench,
	})
}

// BenchResult is the machine-readable outcome of one benchmark cell, the
// schema of BENCH_traffic.json. Rates are averaged over the spec's trials;
// alloc counts come from runtime.MemStats deltas around the timed runs, so a
// benchmark process should keep concurrent allocation noise (parallel
// workers, other goroutines) out of the measurement — the measure therefore
// always runs its trials sequentially, ignoring the exec block's workers.
type BenchResult struct {
	// Scenario names the benchmark spec the cell came from; empty for the
	// default reference workload, "churn" for the fault-churn workload. It
	// distinguishes cells whose mesh/pattern/model/rate would otherwise
	// collide in baseline matching.
	Scenario string `json:"scenario,omitempty"`
	// Mesh, Pattern, Model and Rate echo the benchmarked configuration.
	Mesh    string  `json:"mesh"`
	Pattern string  `json:"pattern"`
	Model   string  `json:"model"`
	Rate    float64 `json:"rate"`
	// Faults is the static fault count; Warmup/Window the simulated timeline.
	Faults int    `json:"faults"`
	Warmup int    `json:"warmup"`
	Window int    `json:"window"`
	Trials int    `json:"trials"`
	Seed   uint64 `json:"seed"`
	// Events and Packets total the simulator events and delivered packets of
	// the timed runs; ElapsedSec is their wall-clock total.
	Events     int     `json:"events"`
	Packets    int     `json:"packets"`
	ElapsedSec float64 `json:"elapsed_sec"`
	// EventsPerSec, NsPerPacket and AllocsPerPacket are the headline rates:
	// simulator events processed per wall-clock second, wall-clock
	// nanoseconds per delivered packet (all of its hops included), and heap
	// allocations per delivered packet (amortising the per-trial setup).
	EventsPerSec    float64 `json:"events_per_sec"`
	NsPerPacket     float64 `json:"ns_per_packet"`
	AllocsPerPacket float64 `json:"allocs_per_packet"`
	// JobsPerSec is the headline rate of the server throughput cells
	// (scenario "serve-cold"/"serve-cached"): spec submissions completed per
	// wall-clock second through the `mcc serve` HTTP pipeline. Zero for
	// event-core cells; server cells leave the event-core rates zero, which
	// keeps them outside the events/sec and allocs/packet baseline gates
	// (wall-clock job throughput on shared runners is informational only).
	JobsPerSec float64 `json:"jobs_per_sec,omitempty"`
	// Informational marks cells whose wall-clock rates are tracked but never
	// gated by the baseline comparison: sharded cells (Shards > 1 in the
	// spec's exec block) measure parallel speed-up, which moves with the
	// runner's core count and load, exactly like the JobsPerSec server cells.
	Informational bool `json:"informational,omitempty"`
	// Telemetry is the counter snapshot of one untimed probe trial (trial 0's
	// configuration with the counters live), run after the timed loop so the
	// headline rates stay telemetry-off. Baseline deltas compare it to spot
	// behavioural drift — e.g. a cache-hit-rate collapse — that wall-clock
	// rates alone would attribute to noise.
	Telemetry map[string]int64 `json:"telemetry,omitempty"`
}

// BenchFile is the on-disk shape of BENCH_traffic.json: one entry per
// benchmark cell, in sweep order.
type BenchFile struct {
	Cells []BenchResult `json:"cells"`
}

// ReadBenchJSON parses a BENCH_traffic.json file (the BenchFile schema), e.g.
// the committed baseline the CI bench job prints deltas against.
func ReadBenchJSON(r io.Reader) (*BenchFile, error) {
	var f BenchFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("scenario: parsing benchmark baseline: %w", err)
	}
	return &f, nil
}

// Key identifies a benchmark cell for baseline matching: same scenario, mesh,
// pattern, model and rate compare; everything measured may differ. Cells from
// the unnamed default workload keep their historical key format.
func (b BenchResult) Key() string {
	if b.Scenario == "" {
		return fmt.Sprintf("%s/%s/%s/%g", b.Mesh, b.Pattern, b.Model, b.Rate)
	}
	return fmt.Sprintf("%s:%s/%s/%s/%g", b.Scenario, b.Mesh, b.Pattern, b.Model, b.Rate)
}

// WriteBenchJSON writes the benchmark cells of a report (which must come from
// the bench measure) as indented JSON, the BENCH_traffic.json format.
func WriteBenchJSON(w io.Writer, rep *Report) error {
	if len(rep.bench) == 0 {
		return fmt.Errorf("scenario: report of measure %q carries no benchmark results (want the %q measure)", rep.Measure, MeasureBench)
	}
	return WriteBenchCellsJSON(w, rep.bench)
}

// WriteBenchCellsJSON writes benchmark cells — e.g. the merged cells of
// several bench specs — as indented JSON, the BENCH_traffic.json format.
func WriteBenchCellsJSON(w io.Writer, cells []BenchResult) error {
	if len(cells) == 0 {
		return fmt.Errorf("scenario: no benchmark cells to write")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(BenchFile{Cells: cells})
}

// BenchResults returns the per-cell benchmark results of a report produced by
// the bench measure, in cell order.
func (rep *Report) BenchResults() []BenchResult { return rep.bench }

// measureBench times the continuous-traffic hot path — the same engine, model
// and pattern construction as the traffic measure — and reports wall-clock
// rates instead of simulated-traffic statistics. One cell per pattern × model
// × rate combination.
func measureBench(ctx context.Context, sc *Scenario) (*Report, error) {
	spec := sc.spec
	faults := sc.firstCount()
	t := &stats.Table{
		Title: fmt.Sprintf("bench: event-core throughput (%s mesh, %s faults, %d trials, warmup %d + window %d ticks)",
			spec.Mesh, sc.faultLabel(faults), spec.Trials, spec.Measure.Warmup, spec.Measure.Window),
		Columns: []string{"pattern", "model", "rate", "events", "packets", "events/sec", "ns/packet", "allocs/packet"},
	}
	rep := &Report{Table: t}
	injector := sc.injectorFor(faults)
	timeline, err := spec.Faults.Timeline.Build()
	if err != nil {
		return nil, err // unreachable after Validate
	}
	total := len(spec.Workload.Patterns) * len(spec.Models) * len(spec.Workload.Rates)
	cell := 0
	for _, pattern := range spec.Workload.Patterns {
		for _, model := range spec.Models {
			for _, rate := range spec.Workload.Rates {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				label := fmt.Sprintf("%s/%s/%.3f", pattern.Name, model.Name, rate)
				sc.emit(Event{Cell: cell, Total: total, Label: label})
				cellSeed := rng.Derive(spec.Seed, uint64(cell))

				res := BenchResult{
					Scenario: spec.Name,
					Mesh:     spec.Mesh.String(), Pattern: pattern.Name, Model: model.Name,
					Rate: rate, Faults: faults,
					Warmup: spec.Measure.Warmup, Window: spec.Measure.Window,
					Trials: spec.Trials, Seed: spec.Seed,
					// Sharded cells measure parallel speed-up, a property of the
					// runner as much as of the code — never gate on them.
					Informational: spec.ShardCount() > 1,
				}
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				start := time.Now()
				for trial := 0; trial < spec.Trials; trial++ {
					seed := rng.Derive(cellSeed, uint64(trial))
					e, err := sc.trafficEngine(model, pattern, injector, seed, traffic.Options{Rate: rate, Timeline: timeline})
					if err != nil {
						return nil, err // unreachable after Validate
					}
					r := e.Run(seed)
					if r.Err != nil {
						return nil, fmt.Errorf("bench cell %s: %w", label, r.Err)
					}
					res.Events += r.Events
					res.Packets += r.Delivered
				}
				elapsed := time.Since(start)
				runtime.ReadMemStats(&ms1)

				// Untimed probe trial: re-run trial 0's configuration with the
				// counters live. The timed loop above stays telemetry-off, so
				// the headline rates price the disabled path — the probe only
				// feeds the counter snapshot of the cell.
				{
					seed := rng.Derive(cellSeed, 0)
					e, err := sc.trafficEngine(model, pattern, injector, seed, traffic.Options{Rate: rate, Timeline: timeline, Telemetry: true})
					if err != nil {
						return nil, err // unreachable after Validate
					}
					if r := e.Run(seed); r.Err == nil && r.Telemetry != nil {
						res.Telemetry = r.Telemetry.Snapshot()
					}
				}

				res.ElapsedSec = elapsed.Seconds()
				if res.ElapsedSec > 0 {
					res.EventsPerSec = float64(res.Events) / res.ElapsedSec
				}
				if res.Packets > 0 {
					res.NsPerPacket = float64(elapsed.Nanoseconds()) / float64(res.Packets)
					res.AllocsPerPacket = float64(ms1.Mallocs-ms0.Mallocs) / float64(res.Packets)
				}
				row := []string{
					pattern.Name, model.Name, fmt.Sprintf("%.3f", rate),
					fmt.Sprintf("%d", res.Events),
					fmt.Sprintf("%d", res.Packets),
					fmt.Sprintf("%.0f", res.EventsPerSec),
					fmt.Sprintf("%.0f", res.NsPerPacket),
					fmt.Sprintf("%.2f", res.AllocsPerPacket),
				}
				t.AddRow(row...)
				rep.Cells = append(rep.Cells, Cell{
					Index: cell, Pattern: pattern.Name, Model: model.Name, Rate: rate, Faults: faults, Row: row,
					Values: map[string]float64{
						"events":            float64(res.Events),
						"packets":           float64(res.Packets),
						"events_per_sec":    res.EventsPerSec,
						"ns_per_packet":     res.NsPerPacket,
						"allocs_per_packet": res.AllocsPerPacket,
					},
				})
				rep.bench = append(rep.bench, res)
				if res.Telemetry != nil {
					rep.Telemetry = append(rep.Telemetry, CellTelemetry{
						Cell: cell, Label: label, Counters: res.Telemetry,
					})
				}
				sc.emit(Event{Cell: cell, Total: total, Label: label, Done: true, Row: row})
				cell++
			}
		}
	}
	t.AddNote("wall-clock rates; trial results (simulated traffic) are identical to the traffic measure for the same spec.")
	t.AddNote("allocs/packet amortises per-trial setup (mesh, model, engine) over the delivered packets of the cell.")
	return rep, nil
}

// BenchSpec returns the default benchmark spec: the 16x16x16 hotspot
// reference workload PERFORMANCE.md tracks, one cell per information model —
// the paper's MCC model, the local-greedy floor (event core + engine
// overhead) and the labels-only middle ground — so the trajectory shows the
// model gap, not just one number. Callers override it via -spec. The spec is
// unnamed so its cells keep the historical baseline keys.
func BenchSpec() Spec {
	return Spec{
		Mesh: Cube(16),
		Faults: FaultSpec{
			Inject: C("uniform"),
			Counts: []int{120},
		},
		Models: Components{C("mcc"), C("local"), C("labels")},
		Workload: WorkloadSpec{
			Patterns: Components{C("hotspot")},
			Rates:    []float64{0.02},
		},
		Measure: MeasureSpec{
			Kind:      MeasureBench,
			Warmup:    50,
			Window:    500,
			MaxEvents: 50_000_000,
		},
		Seed:   20050507,
		Trials: 3,
	}
}

// ChurnBenchSpec returns the fault-churn benchmark spec: the same reference
// mesh and traffic as BenchSpec under a stochastic fail/repair timeline
// (region-shaped failures, MTTF 40, MTTR 100), one MCC cell. It prices the
// whole repair path — incremental un-relabel, in-place region refresh, epoch
// bumps — in events/sec and allocs/packet next to the churn-free cells.
func ChurnBenchSpec() Spec {
	return Spec{
		Name: "churn",
		Mesh: Cube(16),
		Faults: FaultSpec{
			Inject: C("uniform"),
			Counts: []int{120},
			Timeline: &TimelineSpec{
				MTTF:  40,
				MTTR:  100,
				Shape: Component{Name: "region", Params: map[string]any{"size": 3}},
			},
		},
		Models: Components{C("mcc")},
		Workload: WorkloadSpec{
			Patterns: Components{C("hotspot")},
			Rates:    []float64{0.02},
		},
		Measure: MeasureSpec{
			Kind:      MeasureBench,
			Warmup:    50,
			Window:    500,
			MaxEvents: 50_000_000,
		},
		Seed:   20050507,
		Trials: 3,
	}
}

// ShardedBenchSpec returns the sharded-execution benchmark spec
// (Hotspot32MCCShards4): one MCC hotspot cell on a 32x32x32 mesh with the
// trial split across 4 slab shards. Its events/sec is the parallel speed-up
// PR 10 targets (>= 2x the sequential 32-cube rate at 4 shards); the cell is
// informational in `-baseline` — speed-up moves with the runner's cores, so
// it is tracked, never gated.
func ShardedBenchSpec() Spec {
	return Spec{
		Name: "shards4",
		Mesh: Cube(32),
		Faults: FaultSpec{
			Inject: C("uniform"),
			Counts: []int{400},
		},
		Models: Components{C("mcc")},
		Workload: WorkloadSpec{
			Patterns: Components{C("hotspot")},
			Rates:    []float64{0.02},
		},
		Measure: MeasureSpec{
			Kind:      MeasureBench,
			Warmup:    50,
			Window:    200,
			MaxEvents: 100_000_000,
		},
		Seed:   20050507,
		Trials: 1,
		Exec:   &ExecSpec{Shards: 4},
	}
}

// BenchSpecs returns the benchmark specs `mcc bench -json` runs by default,
// in output order: the churn-free reference workload, the churn workload and
// the sharded-execution workload.
func BenchSpecs() []Spec {
	return []Spec{BenchSpec(), ChurnBenchSpec(), ShardedBenchSpec()}
}

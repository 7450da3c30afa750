package scenario

import "mccmesh/internal/mesh"

// The With* functions are the functional-options vocabulary behind
// mccmesh.NewScenario: each one sets one part of the Spec (or installs an
// observer) and they may be combined in any order. Options are applied before
// defaulting and validation, so an invalid combination surfaces as an error
// from New/Build, never as a panic at run time.

// WithName labels the scenario.
func WithName(name string) Option {
	return func(sc *Scenario) { sc.spec.Name = name }
}

// WithMesh selects a 3-D mesh with the given extents.
func WithMesh(x, y, z int) Option {
	return func(sc *Scenario) { sc.spec.Mesh = MeshSpec{X: x, Y: y, Z: z} }
}

// WithMesh2D selects a 2-D mesh with the given extents.
func WithMesh2D(x, y int) Option {
	return func(sc *Scenario) { sc.spec.Mesh = MeshSpec{X: x, Y: y} }
}

// WithCube selects a k × k × k mesh.
func WithCube(k int) Option {
	return func(sc *Scenario) { sc.spec.Mesh = Cube(k) }
}

// WithFaults selects the static fault injector by registry name with optional
// parameters (see fault.Injectors), e.g. WithFaults("clustered", Params{"size": 5}).
func WithFaults(name string, params ...Params) Option {
	return func(sc *Scenario) { sc.spec.Faults.Inject = component(name, params) }
}

// WithFaultCounts sets the fault-count sweep (one cell per count for the
// routing measures; the first count is the traffic measure's static fault
// set).
func WithFaultCounts(counts ...int) Option {
	return func(sc *Scenario) { sc.spec.Faults.Counts = counts }
}

// WithFaultSchedule appends a mid-run fault event: the named injector fires
// at simulated tick `at` while traffic is in flight (traffic measure only).
func WithFaultSchedule(at int, name string, params ...Params) Option {
	return func(sc *Scenario) {
		sc.spec.Faults.Schedule = append(sc.spec.Faults.Schedule, ScheduledFault{At: at, Inject: component(name, params)})
	}
}

// WithFaultTimeline runs a stochastic fault-churn process while traffic is
// in flight: failure groups of the named shape ("point", "region", or any
// registered injector; "" selects the default point shape) arrive with mean
// gap mttf ticks and are repaired after a mean delay of mttr ticks (0 =
// never repaired). The churn horizon defaults to warmup + window; for fixed
// fail/repair entries or a custom horizon, set FaultSpec.Timeline through
// WithSpec.
func WithFaultTimeline(mttf, mttr float64, shape string, params ...Params) Option {
	return func(sc *Scenario) {
		sc.spec.Faults.Timeline = &TimelineSpec{MTTF: mttf, MTTR: mttr, Shape: component(shape, params)}
	}
}

// WithModels names the information models under test (see traffic.Models).
func WithModels(names ...string) Option {
	return func(sc *Scenario) { sc.spec.Models = ComponentsOf(names...) }
}

// WithModel appends one information model with optional parameters.
func WithModel(name string, params ...Params) Option {
	return func(sc *Scenario) { sc.spec.Models = append(sc.spec.Models, component(name, params)) }
}

// WithPatterns names the traffic patterns to sweep (see traffic.Patterns).
func WithPatterns(names ...string) Option {
	return func(sc *Scenario) { sc.spec.Workload.Patterns = ComponentsOf(names...) }
}

// WithPattern appends one traffic pattern with optional parameters, e.g.
// WithPattern("hotspot", Params{"fraction": 0.2}).
func WithPattern(name string, params ...Params) Option {
	return func(sc *Scenario) {
		sc.spec.Workload.Patterns = append(sc.spec.Workload.Patterns, component(name, params))
	}
}

// WithRates sets the injection-rate sweep (packets per node per tick).
func WithRates(rates ...float64) Option {
	return func(sc *Scenario) { sc.spec.Workload.Rates = rates }
}

// WithMeasure selects the measurement by registry name (see Measures):
// absorption, success, distance, overhead, ablation, adaptivity or traffic.
func WithMeasure(kind string) Option {
	return func(sc *Scenario) { sc.spec.Measure.Kind = kind }
}

// WithPairs sets the source/destination pairs sampled per trial (routing
// measures).
func WithPairs(pairs int) Option {
	return func(sc *Scenario) { sc.spec.Measure.Pairs = pairs }
}

// WithMinDistance sets the minimum Manhattan distance between sampled pairs.
func WithMinDistance(d int) Option {
	return func(sc *Scenario) { sc.spec.Measure.MinDistance = d }
}

// WithWarmup sets the traffic warmup in ticks (packets routed, not measured).
func WithWarmup(ticks int) Option {
	return func(sc *Scenario) { sc.spec.Measure.Warmup = ticks }
}

// WithWindow sets the traffic measurement window in ticks.
func WithWindow(ticks int) Option {
	return func(sc *Scenario) { sc.spec.Measure.Window = ticks }
}

// WithSeed sets the scenario seed; every trial seed derives from it.
func WithSeed(seed uint64) Option {
	return func(sc *Scenario) { sc.spec.Seed = seed }
}

// WithTrials sets the number of random fault configurations per cell.
func WithTrials(trials int) Option {
	return func(sc *Scenario) { sc.spec.Trials = trials }
}

// Execution resources. WithWorkers, WithShards and WithTimeout set the
// spec's exec block — how a scenario runs, never what it computes. All three
// are digest-excluded and results are bit-identical for any values.

// WithWorkers fans trials out across goroutines (<= 0 selects GOMAXPROCS).
func WithWorkers(workers int) Option {
	return func(sc *Scenario) { sc.spec.SetWorkers(workers) }
}

// WithShards splits every single trial spatially into up to n slab shards,
// each with its own event queue and packet pool, synchronised at a per-tick
// barrier (traffic measure; 0 or 1 runs the sequential engine). Composes
// with WithWorkers: workers × shards goroutines at peak.
func WithShards(n int) Option {
	return func(sc *Scenario) { sc.spec.SetShards(n) }
}

// WithTimeout bounds the run's wall-clock time in seconds (0 = unbounded);
// runners enforce it via context cancellation.
func WithTimeout(secs float64) Option {
	return func(sc *Scenario) { sc.spec.SetTimeout(secs) }
}

// WithMeshSource installs a trial-mesh factory (see Scenario.SetMeshSource):
// trials draw their meshes from fn — typically Clones of a shared immutable
// topology prototype — instead of constructing them from the spec extents.
// fn must be safe for concurrent use.
func WithMeshSource(fn func() *mesh.Mesh) Option {
	return func(sc *Scenario) { sc.meshSource = fn }
}

// WithObserver installs a progress observer (see Observer).
func WithObserver(f Observer) Option {
	return func(sc *Scenario) { sc.observer = f }
}

// WithTelemetry enables the counter sink for every trial (see
// Scenario.EnableTelemetry).
func WithTelemetry() Option {
	return func(sc *Scenario) { sc.EnableTelemetry() }
}

// WithTracing samples one packet in every n for hop-by-hop tracing (see
// Scenario.EnableTracing); implies WithTelemetry.
func WithTracing(n int) Option {
	return func(sc *Scenario) { sc.EnableTracing(n) }
}

// WithSpec replaces the whole spec, letting later options patch it.
func WithSpec(spec Spec) Option {
	return func(sc *Scenario) { sc.spec = spec }
}

// Params carries component parameters for the With* options.
type Params map[string]any

// component folds the optional params variadic into a Component.
func component(name string, params []Params) Component {
	c := Component{Name: name}
	if len(params) > 0 {
		c.Params = map[string]any{}
		for _, p := range params {
			for k, v := range p {
				c.Params[k] = v
			}
		}
	}
	return c
}

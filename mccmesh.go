package mccmesh

import (
	"mccmesh/internal/block"
	"mccmesh/internal/core"
	"mccmesh/internal/fault"
	"mccmesh/internal/feasibility"
	"mccmesh/internal/grid"
	"mccmesh/internal/labeling"
	"mccmesh/internal/mesh"
	"mccmesh/internal/minimal"
	"mccmesh/internal/protocol"
	"mccmesh/internal/region"
	"mccmesh/internal/registry"
	"mccmesh/internal/rng"
	"mccmesh/internal/routing"
	"mccmesh/internal/traffic"
)

// Re-exported core types. The implementation lives in internal/; these
// aliases form the public API surface used by the examples and the command
// line tools.
type (
	// Point is a node coordinate (Z is 0 in 2-D meshes).
	Point = grid.Point
	// Box is an inclusive axis-aligned box of nodes.
	Box = grid.Box
	// Orientation is the per-axis travel direction from a source toward a
	// destination.
	Orientation = grid.Orientation
	// Mesh is a 2-D or 3-D mesh with a mutable fault set.
	Mesh = mesh.Mesh
	// Model is the MCC fault-information model over one mesh.
	Model = core.Model
	// Labeling holds the useless / can't-reach labels for one orientation.
	Labeling = labeling.Labeling
	// Status is a node label (Safe, Faulty, Useless, CantReach).
	Status = labeling.Status
	// ComponentSet is the set of MCC fault regions of one labelling.
	ComponentSet = region.ComponentSet
	// Component is a single MCC.
	Component = region.Component
	// BlockRegions is the rectangular-faulty-block baseline model.
	BlockRegions = block.Regions
	// Trace is the outcome of one routing attempt.
	Trace = routing.Trace
	// RouteResult is the outcome of one distributed (message-level) routing
	// attempt.
	RouteResult = protocol.RouteResult
	// DetectionResult is the outcome of the distributed feasibility check.
	DetectionResult = protocol.DetectionResult
	// Rand is the deterministic random source used by the fault injectors.
	Rand = rng.Rand
	// Injector places faults on a mesh.
	Injector = fault.Injector
	// TrafficEngine runs continuous packet streams over a faulty mesh.
	TrafficEngine = traffic.Engine
	// TrafficOptions configure one traffic run (rate, warmup, window, fault
	// schedule).
	TrafficOptions = traffic.Options
	// TrafficResult aggregates one traffic run (throughput, latency
	// percentiles, loss accounting).
	TrafficResult = traffic.Result
	// TrafficPattern chooses each injected packet's destination.
	TrafficPattern = traffic.Pattern
	// TrafficModel adapts a fault-information model to continuous traffic.
	TrafficModel = traffic.InfoModel
	// FaultEvent schedules a mid-run fault injection.
	FaultEvent = traffic.FaultEvent
)

// Node label values.
const (
	Safe      = labeling.Safe
	Faulty    = labeling.Faulty
	Useless   = labeling.Useless
	CantReach = labeling.CantReach
)

// New2D returns a fault-free 2-D mesh with the given extents.
func New2D(x, y int) *Mesh { return mesh.New2D(x, y) }

// New3D returns a fault-free 3-D mesh with the given extents.
func New3D(x, y, z int) *Mesh { return mesh.New3D(x, y, z) }

// NewCube returns a k × k × k 3-D mesh.
func NewCube(k int) *Mesh { return mesh.NewCube(k) }

// NewModel wraps a mesh in the MCC fault-information model.
func NewModel(m *Mesh) *Model { return core.NewModel(m) }

// NewRand returns a deterministic random source for fault injection.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// At is a convenience constructor for node coordinates.
func At(x, y, z int) Point { return Point{X: x, Y: y, Z: z} }

// InjectUniform marks n distinct uniformly random nodes faulty, never touching
// the protected nodes, and returns the chosen points.
func InjectUniform(m *Mesh, r *Rand, n int, protected ...Point) []Point {
	return fault.Uniform{Count: n, Protected: protected}.Inject(m, r)
}

// InjectClustered injects `clusters` clusters of `size` adjacent faults each.
func InjectClustered(m *Mesh, r *Rand, clusters, size int, protected ...Point) []Point {
	return fault.Clustered{Clusters: clusters, Size: size, Protected: protected}.Inject(m, r)
}

// UniformInjector returns an injector that places n uniformly random faults —
// for FaultEvent schedules and other deferred injections.
func UniformInjector(n int, protected ...Point) Injector {
	return fault.Uniform{Count: n, Protected: protected}
}

// ClusteredInjector returns an injector that grows `clusters` clusters of
// `size` adjacent faults — for FaultEvent schedules and other deferred
// injections.
func ClusteredInjector(clusters, size int, protected ...Point) Injector {
	return fault.Clustered{Clusters: clusters, Size: size, Protected: protected}
}

// BuildInjector resolves a fault injector by registry name with parameters,
// e.g. BuildInjector("rate", Params{"p": 0.02}); see FaultInjectorNames.
func BuildInjector(name string, params Params) (Injector, error) {
	return fault.Build(name, registry.Args(params))
}

// OrientationOf returns the orientation of travel from s to d.
func OrientationOf(s, d Point) Orientation { return grid.OrientationOf(s, d) }

// Distance returns the Manhattan (routing) distance between two nodes.
func Distance(a, b Point) int { return grid.Manhattan(a, b) }

// MinimalPathExists is the ground-truth check: does any minimal path from s to
// d avoid every faulty node?
func MinimalPathExists(m *Mesh, s, d Point) bool {
	return minimal.Exists(m, m.FaultyWords(), s, d)
}

// FindMinimalPath returns one minimal fault-free path from s to d, or nil if
// none exists.
func FindMinimalPath(m *Mesh, s, d Point) []Point {
	return minimal.Path(m, m.FaultyWords(), s, d)
}

// Feasible reports whether the MCC model admits a minimal path from s to d
// (Theorem 1 / Theorem 2 of the paper).
func Feasible(m *Mesh, s, d Point) bool {
	return NewModel(m).Feasible(s, d)
}

// Route routes from s to d under the MCC model (feasibility check at the
// source followed by fully adaptive minimal routing).
func Route(m *Mesh, s, d Point) (*Trace, error) {
	return NewModel(m).Route(s, d)
}

// GroundTruthFeasible is an alias of MinimalPathExists kept for symmetry with
// the experiment tables.
func GroundTruthFeasible(m *Mesh, s, d Point) bool { return MinimalPathExists(m, s, d) }

// Detect runs the paper's distributed feasibility detection from the source
// and returns the verdict together with the number of detection-message hops.
func Detect(m *Mesh, s, d Point) (bool, int) {
	return NewModel(m).FeasibleByDetection(s, d)
}

// AbsorbedHealthyNodes returns how many healthy nodes the MCC model absorbs
// into fault regions for the orientation of travel from s to d.
func AbsorbedHealthyNodes(m *Mesh, s, d Point) int {
	return NewModel(m).AbsorbedHealthyNodes(grid.OrientationOf(s, d))
}

// Theorem exposes the feasibility condition on an existing component set (for
// callers that manage their own Model caches).
func Theorem(cs *ComponentSet, s, d Point) bool { return feasibility.Theorem(cs, s, d) }

// NewTrafficEngine returns a continuous-traffic engine over m. The model and
// pattern are resolved by name (see TrafficModelNames and TrafficPatternNames)
// and parameterised by opts.PatternParams — e.g. {"fraction": 0.2} tunes the
// hotspot pattern exactly as the CLI's -hotspot flag does. When
// opts.ShardModel is nil it rebuilds the named model over m, so opts.Shards
// takes effect.
func NewTrafficEngine(m *Mesh, model, pattern string, opts TrafficOptions) (*TrafficEngine, error) {
	im, err := traffic.BuildModel(model, core.NewModel(m), nil)
	if err != nil {
		return nil, err
	}
	if opts.ShardModel == nil {
		opts.ShardModel = func() (traffic.InfoModel, error) {
			return traffic.BuildModel(model, core.NewModel(m), nil)
		}
	}
	p, err := traffic.BuildPattern(pattern, m, registry.Args(opts.PatternParams))
	if err != nil {
		return nil, err
	}
	return traffic.NewEngine(m, im, p, opts), nil
}

// TrafficPatternNames lists the built-in traffic pattern names.
func TrafficPatternNames() []string { return traffic.PatternNames() }

// TrafficModelNames lists the information-model names usable for traffic.
func TrafficModelNames() []string { return traffic.ModelNames() }

// RunTrafficTrials shards deterministic traffic trials across workers (<= 0
// selects GOMAXPROCS); results are bit-identical at any worker count.
func RunTrafficTrials(workers, trials int, seed uint64, fn func(trial int, seed uint64) *TrafficResult) []*TrafficResult {
	return traffic.RunTrials(workers, trials, seed, fn)
}

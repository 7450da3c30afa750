package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"mccmesh/internal/fault"
	"mccmesh/internal/mesh"
	"mccmesh/internal/registry"
	"mccmesh/internal/traffic"
)

// Spec is the declarative, JSON-serialisable description of one experiment:
// a mesh, a fault workload, the information models under test, a traffic
// workload, a measurement and the reproducibility knobs. Every experiment in
// the repository (E1–E7) is expressible as a Spec, every `mcc` subcommand
// parses and emits the same format, and a Spec run at workers=1 produces the
// same Report as at workers=64.
type Spec struct {
	// Name optionally labels the scenario (echoed in reports and progress).
	Name string `json:"name,omitempty"`
	// Mesh is the topology under test.
	Mesh MeshSpec `json:"mesh"`
	// Faults describes the fault workload: the injector, the fault-count
	// sweep and an optional mid-run schedule.
	Faults FaultSpec `json:"faults,omitempty"`
	// Models names the fault-information models under test (see the
	// traffic.Models registry). Defaults to ["mcc"].
	Models Components `json:"model,omitempty"`
	// Workload is the traffic workload (patterns × injection rates), used by
	// the "traffic" measure.
	Workload WorkloadSpec `json:"workload,omitempty"`
	// Measure selects what to measure and its parameters.
	Measure MeasureSpec `json:"measure,omitempty"`
	// Seed makes the whole scenario reproducible: every trial seed derives
	// purely from (Seed, cell index, trial index).
	Seed uint64 `json:"seed"`
	// Trials is the number of random fault configurations per cell.
	Trials int `json:"trials"`
	// Exec groups the execution-resource knobs: workers, shards and timeout.
	// None of them affects the measured result — results are bit-identical
	// for any values — so the whole block is digest-excluded (execExcluded).
	// Read the resolved values through WorkerCount, ShardCount and
	// TimeoutSeconds; set them through SetWorkers, SetShards and SetTimeout.
	Exec *ExecSpec `json:"exec,omitempty"`
}

// ExecSpec is the execution-resource block of a spec: how a scenario runs,
// never what it computes. Every field is digest-excluded.
type ExecSpec struct {
	// Workers fans trials out across goroutines where the measure supports it
	// (<= 0 selects GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Shards splits each single trial spatially into up to Shards slab shards
	// (see mesh.SlabPartition), each with its own event queue and packet
	// pool, synchronised at a per-tick barrier (traffic measure; meshes with
	// fewer layers than shards split per layer). 0 or 1 runs the sequential
	// engine. Composes with Workers: Workers × Shards goroutines at peak.
	Shards int `json:"shards,omitempty"`
	// Timeout bounds the run's wall-clock time in seconds (0 = unbounded).
	// Runners enforce it via context.WithTimeout — `mcc serve` seals an
	// expired job as TIMEOUT with its completed cells preserved (`mcc serve
	// -job-timeout` supplies the default and caps spec-requested values).
	Timeout float64 `json:"timeout,omitempty"`
}

// zero reports whether the block carries no information (and is therefore
// normalised away to keep dumps minimal).
func (e *ExecSpec) zero() bool {
	return e == nil || (e.Workers == 0 && e.Shards == 0 && e.Timeout == 0)
}

// WorkerCount returns the resolved worker count (<= 0 = GOMAXPROCS).
func (s *Spec) WorkerCount() int {
	if s.Exec != nil {
		return s.Exec.Workers
	}
	return 0
}

// ShardCount returns the resolved per-trial shard count (0 = sequential).
func (s *Spec) ShardCount() int {
	if s.Exec != nil {
		return s.Exec.Shards
	}
	return 0
}

// TimeoutSeconds returns the resolved wall-clock budget in seconds
// (0 = unbounded).
func (s *Spec) TimeoutSeconds() float64 {
	if s.Exec != nil {
		return s.Exec.Timeout
	}
	return 0
}

// execPatch applies fn to a copy of the exec block and installs it; an
// all-zero block normalises away.
func (s *Spec) execPatch(fn func(*ExecSpec)) {
	var e ExecSpec
	if s.Exec != nil {
		e = *s.Exec
	}
	fn(&e)
	if e.zero() {
		s.Exec = nil
		return
	}
	s.Exec = &e
}

// SetWorkers sets the resolved worker count (canonicalising into Exec).
func (s *Spec) SetWorkers(n int) { s.execPatch(func(e *ExecSpec) { e.Workers = n }) }

// SetShards sets the resolved shard count (canonicalising into Exec).
func (s *Spec) SetShards(n int) { s.execPatch(func(e *ExecSpec) { e.Shards = n }) }

// SetTimeout sets the resolved timeout in seconds (canonicalising into Exec).
func (s *Spec) SetTimeout(secs float64) { s.execPatch(func(e *ExecSpec) { e.Timeout = secs }) }

// MeshSpec names a 2-D or 3-D mesh topology. Z == 0 selects a 2-D mesh.
type MeshSpec struct {
	X int `json:"x"`
	Y int `json:"y"`
	Z int `json:"z,omitempty"`
}

// Cube returns the spec of a k × k × k mesh.
func Cube(k int) MeshSpec { return MeshSpec{X: k, Y: k, Z: k} }

// Square returns the spec of a k × k 2-D mesh.
func Square(k int) MeshSpec { return MeshSpec{X: k, Y: k} }

// Is2D reports whether the spec names a 2-D mesh.
func (m MeshSpec) Is2D() bool { return m.Z == 0 }

// String renders the topology as "10x10x10" / "16x16".
func (m MeshSpec) String() string {
	if m.Is2D() {
		return fmt.Sprintf("%dx%d", m.X, m.Y)
	}
	return fmt.Sprintf("%dx%dx%d", m.X, m.Y, m.Z)
}

// New builds a fresh fault-free mesh of this topology.
func (m MeshSpec) New() *mesh.Mesh {
	if m.Is2D() {
		return mesh.New2D(m.X, m.Y)
	}
	return mesh.New3D(m.X, m.Y, m.Z)
}

// NodeCount returns the number of nodes of the topology.
func (m MeshSpec) NodeCount() int {
	if m.Is2D() {
		return m.X * m.Y
	}
	return m.X * m.Y * m.Z
}

func (m MeshSpec) validate() error {
	if m.X < 2 || m.Y < 2 || (m.Z != 0 && m.Z < 2) {
		return fmt.Errorf("mesh: invalid extents %s (want every extent >= 2; omit z for 2-D)", m)
	}
	return nil
}

// Component names one pluggable piece — a traffic pattern, an information
// model or a fault injector — together with its parameters. In JSON it is
// either a bare string ("hotspot") or an object
// ({"name": "hotspot", "params": {"fraction": 0.2}}).
type Component struct {
	Name   string         `json:"name"`
	Params map[string]any `json:"params,omitempty"`
}

// C is a convenience constructor for a parameterless component.
func C(name string) Component { return Component{Name: name} }

// Args returns the component's parameters as registry arguments.
func (c Component) Args() registry.Args { return registry.Args(c.Params) }

// String renders the component compactly, e.g. `hotspot{fraction=0.2}`.
func (c Component) String() string {
	if len(c.Params) == 0 {
		return c.Name
	}
	keys := make([]string, 0, len(c.Params))
	for k := range c.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, c.Params[k])
	}
	return c.Name + "{" + strings.Join(parts, ",") + "}"
}

// MarshalJSON emits the compact bare-string form when there are no
// parameters, so dumped specs stay readable.
func (c Component) MarshalJSON() ([]byte, error) {
	if len(c.Params) == 0 {
		return json.Marshal(c.Name)
	}
	type raw Component
	return json.Marshal(raw(c))
}

// UnmarshalJSON accepts a bare string or the full object form. Unknown keys
// in the object form are rejected — a custom unmarshaler does not inherit the
// outer decoder's DisallowUnknownFields, so the strictness Load promises is
// re-established here.
func (c *Component) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err == nil {
		*c = Component{Name: name}
		return nil
	}
	type raw Component
	var r raw
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return fmt.Errorf("component: want a name string or {\"name\": ..., \"params\": ...}: %w", err)
	}
	*c = Component(r)
	return nil
}

// Components is a list of components. In JSON it is a single component (bare
// string or object) or an array of them.
type Components []Component

// Names returns the component names in order.
func (cs Components) Names() []string {
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Name
	}
	return names
}

// ComponentsOf builds a parameterless component list from names.
func ComponentsOf(names ...string) Components {
	cs := make(Components, len(names))
	for i, n := range names {
		cs[i] = C(n)
	}
	return cs
}

// PatternComponents builds traffic-pattern components from names, attaching
// the positional hotspot fraction (when non-zero) to the hotspot pattern —
// the bridge from legacy flag surfaces (-hotspot) to parameterised
// components.
func PatternComponents(names []string, hotspotFraction float64) Components {
	cs := ComponentsOf(names...)
	for i, c := range cs {
		// Name matching is case-insensitive everywhere else (registry
		// lookups fold case), so the knob must attach for any casing too.
		if strings.EqualFold(c.Name, "hotspot") && hotspotFraction != 0 {
			cs[i].Params = map[string]any{"fraction": hotspotFraction}
		}
	}
	return cs
}

// UnmarshalJSON accepts a single component or an array of components.
func (cs *Components) UnmarshalJSON(data []byte) error {
	var one Component
	if err := json.Unmarshal(data, &one); err == nil {
		*cs = Components{one}
		return nil
	}
	type raw Components
	var r raw
	if err := json.Unmarshal(data, &r); err != nil {
		return err
	}
	*cs = Components(r)
	return nil
}

// FaultSpec describes the fault workload of a scenario.
type FaultSpec struct {
	// Inject is the injector applied before the run (see the fault.Injectors
	// registry). Defaults to "uniform". Its "count" parameter is overridden
	// per cell by Counts.
	Inject Component `json:"inject,omitempty"`
	// Counts is the fault-count sweep. Routing measures produce one cell per
	// count; the traffic measure uses the first count as its static fault
	// set. When empty it is derived from Inject's "count" parameter.
	Counts []int `json:"counts,omitempty"`
	// Schedule injects additional faults at fixed simulated times while
	// traffic is in flight ("traffic" measure only: Validate rejects a
	// schedule under any other measure). Scheduled faults are never
	// repaired; for fail/repair churn use Timeline.
	Schedule []ScheduledFault `json:"schedule,omitempty"`
	// Timeline runs a stochastic fault-churn process — failure groups
	// arriving with mean gap MTTF, each repaired after a mean delay MTTR —
	// while traffic is in flight ("traffic" and "bench" measures only).
	Timeline *TimelineSpec `json:"timeline,omitempty"`
}

// TimelineSpec is the declarative form of the fault-churn timeline
// (fault.Timeline): a seeded arrival/repair process plus optional fixed
// entries. All times are simulated ticks.
type TimelineSpec struct {
	// Start is the earliest stochastic arrival; Until the exclusive horizon
	// of all churn (0 defaults to warmup + window). Failures whose repair
	// would land past Until stay down for the rest of the run.
	Start int `json:"start,omitempty"`
	Until int `json:"until,omitempty"`
	// MTTF is the mean gap between failure groups in ticks (0 = only the
	// fixed entries fire); MTTR the mean delay until a group's repair
	// (0 = never repaired).
	MTTF float64 `json:"mttf,omitempty"`
	MTTR float64 `json:"mttr,omitempty"`
	// Shape places one failure group: "point" (one random node, the
	// default), "region" (a cluster of adjacent nodes, e.g.
	// {"name": "region", "params": {"size": 4}}) or any other registered
	// fault injector.
	Shape Component `json:"shape,omitempty"`
	// Fixed adds deterministic fail/repair entries to the stream.
	Fixed []FixedChurn `json:"fixed,omitempty"`
}

// FixedChurn is one deterministic churn entry: Inject fires at tick At and
// the nodes it placed are repaired RepairAfter ticks later (0 = never).
type FixedChurn struct {
	At          int       `json:"at"`
	Inject      Component `json:"inject"`
	RepairAfter int       `json:"repairafter,omitempty"`
}

// Build materialises the spec into the fault package's timeline engine,
// constructing the shape and fixed injectors through the fault-injector
// registry.
func (t *TimelineSpec) Build() (*fault.Timeline, error) {
	if t == nil {
		return nil, nil
	}
	tl := &fault.Timeline{
		Start: int64(t.Start),
		Until: int64(t.Until),
		MTTF:  t.MTTF,
		MTTR:  t.MTTR,
	}
	if t.MTTF > 0 {
		shape, err := fault.Build(t.Shape.Name, t.Shape.Args())
		if err != nil {
			return nil, fmt.Errorf("timeline shape: %w", err)
		}
		tl.Shape = shape
	}
	for i, fx := range t.Fixed {
		inj, err := fault.Build(fx.Inject.Name, fx.Inject.Args())
		if err != nil {
			return nil, fmt.Errorf("timeline fixed[%d]: %w", i, err)
		}
		tl.Fixed = append(tl.Fixed, fault.FixedEvent{
			At: int64(fx.At), Inject: inj, RepairAfter: int64(fx.RepairAfter),
		})
	}
	if err := tl.Validate(); err != nil {
		return nil, err
	}
	return tl, nil
}

// ScheduledFault is one mid-run fault event.
type ScheduledFault struct {
	// At is the simulated tick of the injection.
	At int `json:"at"`
	// Inject is the injector to run (its "count" parameter is taken from its
	// own params, e.g. {"name": "clustered", "params": {"count": 5}}).
	Inject Component `json:"inject"`
}

// CountFree reports whether the static injector takes no "count" parameter
// (rate, block): the number of faults is then decided by the injector itself
// and Counts only sizes the sweep, so tables must not present its values as
// fault counts.
func (f FaultSpec) CountFree() bool {
	e, err := fault.Injectors.Lookup(f.Inject.Name)
	return err == nil && !e.HasParam("count")
}

// Injector builds the static injector for a cell with n faults. The cell
// count is passed to injectors that declare a "count" parameter (uniform,
// clustered, links); count-free injectors like rate and block take their
// parameters verbatim.
func (f FaultSpec) Injector(n int) (fault.Injector, error) {
	args := f.Inject.Args()
	if e, err := fault.Injectors.Lookup(f.Inject.Name); err == nil && e.HasParam("count") {
		args = args.With("count", n)
	}
	return fault.Build(f.Inject.Name, args)
}

// WorkloadSpec describes the traffic workload: which patterns inject packets
// and at which per-node rates. Only the "traffic" measure consumes it.
type WorkloadSpec struct {
	// Patterns names the traffic patterns (see the traffic.Patterns
	// registry). Defaults to ["uniform"].
	Patterns Components `json:"patterns,omitempty"`
	// Rates is the sweep over the injection probability per node per tick.
	// Defaults to [0.01].
	Rates []float64 `json:"rates,omitempty"`
}

// MeasureSpec selects the measurement and its parameters. Kind names an entry
// of the Measures registry; the remaining fields parameterise whichever
// measure is selected (unused fields are ignored).
type MeasureSpec struct {
	// Kind is the measure name: absorption, success, distance, overhead,
	// ablation, adaptivity or traffic (the default).
	Kind string `json:"kind"`
	// Pairs is the number of source/destination pairs sampled per trial
	// (routing measures). Defaults to 10.
	Pairs int `json:"pairs,omitempty"`
	// MinDistance is the minimum Manhattan distance between sampled pairs.
	MinDistance int `json:"mindistance,omitempty"`
	// Warmup and Window are the traffic measurement timeline in ticks.
	Warmup int `json:"warmup,omitempty"`
	Window int `json:"window,omitempty"`
	// LinkDelay and MaxEvents are passed to the simulator (traffic measure).
	LinkDelay int `json:"linkdelay,omitempty"`
	MaxEvents int `json:"maxevents,omitempty"`
}

// withDefaults returns a copy of the spec with every defaultable field
// filled, so a minimal hand-written spec runs and a dumped spec is explicit.
func (s Spec) withDefaults() Spec {
	// An all-zero exec block normalises away so minimal specs dump without
	// an empty "exec": {}.
	s.execPatch(func(*ExecSpec) {})
	if s.Measure.Kind == "" {
		s.Measure.Kind = MeasureTraffic
	}
	if s.Trials <= 0 {
		s.Trials = 1
	}
	if s.Faults.Inject.Name == "" {
		s.Faults.Inject.Name = "uniform"
	}
	if len(s.Faults.Counts) == 0 {
		// A fixed count may live on the injector itself ("count" param).
		n, err := s.Faults.Inject.Args().Int("count", 0)
		if err == nil {
			s.Faults.Counts = []int{n}
		}
	}
	if len(s.Models) == 0 {
		s.Models = Components{C("mcc")}
	}
	// Branch on the canonical measure name so aliases ("e7" for traffic,
	// "perf" for bench) default exactly like the names they stand for. The
	// spec keeps the alias the user wrote.
	kind := s.Measure.Kind
	if e, err := Measures.Lookup(kind); err == nil {
		kind = e.Name
	}
	if kind == MeasureTraffic || kind == MeasureBench {
		if len(s.Workload.Patterns) == 0 {
			s.Workload.Patterns = Components{C("uniform")}
		}
		if len(s.Workload.Rates) == 0 {
			s.Workload.Rates = []float64{0.01}
		}
		if s.Measure.Window <= 0 {
			s.Measure.Window = 256 // the traffic engine's own default
		}
		if s.Measure.Warmup < 0 {
			s.Measure.Warmup = 0
		}
		if s.Faults.Timeline != nil {
			// Copy-on-default: the spec is a value, so the shared pointer
			// target must not be mutated in place.
			tl := *s.Faults.Timeline
			if tl.MTTF > 0 && tl.Shape.Name == "" {
				tl.Shape = C("point")
			}
			if tl.Until == 0 {
				tl.Until = s.Measure.Warmup + s.Measure.Window
			}
			s.Faults.Timeline = &tl
		}
	} else {
		if s.Measure.Pairs <= 0 {
			s.Measure.Pairs = 10
		}
		if s.Measure.MinDistance < 0 {
			s.Measure.MinDistance = 0
		}
	}
	return s
}

// Validate checks the spec against the component registries and value
// ranges, constructing every named component once on a probe mesh so a typo
// or a bad parameter fails fast with an actionable message instead of
// panicking inside a worker goroutine.
func (s Spec) Validate() error {
	if err := s.Mesh.validate(); err != nil {
		return err
	}
	if _, err := Measures.Lookup(s.Measure.Kind); err != nil {
		return err
	}
	// The inverted comparisons reject NaN, which satisfies neither bound.
	if secs := s.TimeoutSeconds(); !(secs >= 0) {
		return fmt.Errorf("exec: timeout %v out of range (want seconds >= 0)", secs)
	}
	if n := s.ShardCount(); n < 0 {
		return fmt.Errorf("exec: shards %d out of range (want >= 0; 0 or 1 runs sequentially)", n)
	}
	probe := s.Mesh.New()
	total := s.Mesh.NodeCount()
	if len(s.Faults.Counts) == 0 {
		// Counts can only be empty here when withDefaults failed to derive a
		// count from the injector's own params; building the injector
		// verbatim surfaces that malformed parameter.
		if _, err := fault.Build(s.Faults.Inject.Name, s.Faults.Inject.Args()); err != nil {
			return err
		}
	}
	for _, n := range s.Faults.Counts {
		if n < 0 || n >= total {
			return fmt.Errorf("faults: count %d out of range for a %s mesh (%d nodes)", n, s.Mesh, total)
		}
		if _, err := s.Faults.Injector(n); err != nil {
			return err
		}
	}
	for _, ev := range s.Faults.Schedule {
		if ev.At < 0 {
			return fmt.Errorf("faults: schedule time %d is negative", ev.At)
		}
		if _, err := fault.Build(ev.Inject.Name, ev.Inject.Args()); err != nil {
			return err
		}
	}
	for _, c := range s.Models {
		if _, err := traffic.BuildModel(c.Name, probeModel(probe), c.Args()); err != nil {
			return err
		}
	}
	// Resolve aliases (e.g. "e7") so the checks match the measure that will
	// actually run.
	kind := s.Measure.Kind
	if e, err := Measures.Lookup(kind); err == nil {
		kind = e.Name
	}
	if s.Faults.Timeline != nil && kind != MeasureTraffic && kind != MeasureBench {
		return fmt.Errorf("faults: a churn timeline needs the %q or %q measure (got %q)",
			MeasureTraffic, MeasureBench, s.Measure.Kind)
	}
	if _, err := s.Faults.Timeline.Build(); err != nil {
		return err
	}
	// Only the traffic measure reads the schedule; any other would run as if
	// it were absent.
	if len(s.Faults.Schedule) > 0 && kind != MeasureTraffic {
		return fmt.Errorf("faults: a fault schedule needs the %q measure (got %q)",
			MeasureTraffic, s.Measure.Kind)
	}
	if kind == MeasureTraffic || kind == MeasureBench {
		for _, c := range s.Workload.Patterns {
			if _, err := traffic.BuildPattern(c.Name, probe, c.Args()); err != nil {
				return err
			}
		}
		for _, r := range s.Workload.Rates {
			// The inverted comparison rejects NaN, which satisfies neither bound.
			if !(r > 0 && r <= 1) {
				return fmt.Errorf("workload: rate %v out of range (want a value in (0,1])", r)
			}
		}
	}
	return nil
}

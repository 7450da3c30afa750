// Package scenario is the declarative experiment API: one JSON-serialisable
// Spec describes a mesh, a fault workload, the information models under test,
// a traffic workload and a measurement; a Scenario validates the spec against
// the component registries (fault.Injectors, traffic.Models,
// traffic.Patterns, scenario.Measures) and runs it to a structured Report.
//
// Every experiment of the evaluation harness (E1–E7) is a thin driver over
// this package, every `mcc` subcommand parses and emits the same spec format,
// and trial seeds derive purely from (spec seed, cell, trial), so a spec file
// reproduces its tables bit-identically at any worker count.
package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"mccmesh/internal/core"
	"mccmesh/internal/mesh"
	"mccmesh/internal/stats"
	"mccmesh/internal/telemetry"
)

// Scenario is a validated, runnable spec.
type Scenario struct {
	spec     Spec
	observer Observer

	// Telemetry knobs are execution state, not Spec fields: enabling counters
	// or tracing changes what a run reports, never what the spec means, so
	// spec files round-trip byte-identically with telemetry on or off (the
	// same treatment as the -workers override).
	telemetry            bool
	traceEvery, traceCap int

	// meshSource overrides how trial meshes are built (nil = spec.Mesh.New).
	// It is called concurrently from trial workers, so an implementation must
	// be safe for concurrent use; the meshes it returns become trial-private
	// mutable state. `mcc serve` installs a source cloning from a shared
	// immutable topology prototype here.
	meshSource func() *mesh.Mesh
}

// SetMeshSource installs a trial-mesh factory: every trial of the run draws
// its mesh from fn instead of building one from the spec's extents. fn must
// return a fresh fault-free mesh of the spec's topology each call and must be
// safe for concurrent use (trials run on parallel workers). The canonical
// source is a shared-topology pool handing out Clones of one immutable
// prototype, so concurrent jobs over the same topology share the read-only
// neighbour/point tables and clone only the mutable fault state.
func (sc *Scenario) SetMeshSource(fn func() *mesh.Mesh) { sc.meshSource = fn }

// newMesh builds one trial's mesh: the installed source, or the spec's own
// constructor.
func (sc *Scenario) newMesh() *mesh.Mesh {
	if sc.meshSource != nil {
		return sc.meshSource()
	}
	return sc.spec.Mesh.New()
}

// EnableTelemetry turns on the counter sink for every trial of the run: each
// cell's merged counter snapshot lands in Report.Telemetry and per-trial
// Progress events stream to the observer.
func (sc *Scenario) EnableTelemetry() { sc.telemetry = true }

// EnableTracing samples one packet in every n for hop-by-hop tracing (and
// implies EnableTelemetry); traces land in the report for WriteTracesJSONL.
func (sc *Scenario) EnableTracing(n int) {
	if n <= 0 {
		n = 64
	}
	sc.telemetry = true
	sc.traceEvery = n
	if sc.traceCap == 0 {
		sc.traceCap = 256
	}
}

// SetShards overrides the resolved per-trial shard count of a validated
// scenario — the hook `mcc serve -max-shards` uses to clamp what submitted
// specs request. Shards are digest-excluded, so the override never changes
// the scenario's identity or its results.
func (sc *Scenario) SetShards(n int) { sc.spec.SetShards(n) }

// Option configures a Scenario under construction; see the With* functions.
type Option func(*Scenario)

// New validates spec (after applying opts and filling defaults) and returns
// the runnable scenario.
func New(spec Spec, opts ...Option) (*Scenario, error) {
	sc := &Scenario{spec: spec}
	for _, opt := range opts {
		opt(sc)
	}
	sc.spec = sc.spec.withDefaults()
	if err := sc.spec.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return sc, nil
}

// Build constructs a scenario from options alone (the functional-options
// entrypoint behind mccmesh.NewScenario).
func Build(opts ...Option) (*Scenario, error) { return New(Spec{}, opts...) }

// Load reads a JSON spec and returns the validated scenario. Unknown JSON
// fields are rejected so a misspelt key fails instead of silently running the
// default.
func Load(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	// The retired top-level spellings of exec.workers and exec.timeout are
	// decoded only to reject them with an error naming their replacement.
	var doc struct {
		Spec
		Workers json.RawMessage `json:"workers"`
		Timeout json.RawMessage `json:"timeout"`
	}
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("scenario: decoding spec: %w", err)
	}
	// A spec file is exactly one JSON document. Silently ignoring trailing
	// content would half-read e.g. a concatenation of several dumped specs.
	if dec.More() {
		return nil, fmt.Errorf("scenario: spec carries trailing content after the first JSON document (one spec per file)")
	}
	if doc.Workers != nil || doc.Timeout != nil {
		return nil, fmt.Errorf(`scenario: top-level "workers" and "timeout" are no longer accepted; set them in the "exec" block, e.g. {"exec": {"workers": 4, "timeout": 30}}`)
	}
	return New(doc.Spec)
}

// Spec returns the normalised spec (defaults filled in).
func (sc *Scenario) Spec() Spec { return sc.spec }

// WriteSpec pretty-prints the normalised spec as JSON, the exact format Load
// accepts (`mcc ... -dump-spec`).
func (sc *Scenario) WriteSpec(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sc.spec)
}

// Observe installs an observer that streams per-cell progress during Run.
func (sc *Scenario) Observe(f Observer) { sc.observer = f }

// Run executes the scenario's measure and returns the structured report. The
// context is checked between cells and between trials; cancelling it abandons
// the run and returns an error satisfying errors.Is(err, ctx.Err()) — job
// runners distinguish cancellation from failure that way. Measures that can
// return the completed prefix of a cancelled sweep do (the traffic measure
// marks the interrupted cell CANCELLED in Cell.Err), so the report may be
// non-nil alongside the error.
func (sc *Scenario) Run(ctx context.Context) (*Report, error) {
	e, err := Measures.Lookup(sc.spec.Measure.Kind)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	rep, err := e.New(ctx, sc)
	if rep != nil {
		rep.Spec = sc.spec
		rep.Measure = e.Name
	}
	return rep, err
}

// Report is the structured outcome of one scenario run: the rendered table
// plus one Cell of raw values per sweep point.
type Report struct {
	// Spec is the normalised spec that produced the report.
	Spec Spec `json:"spec"`
	// Measure is the canonical measure name that ran.
	Measure string `json:"measure"`
	// Table is the experiment table, ready for Render or CSV.
	Table *stats.Table `json:"table"`
	// Cells are the per-sweep-point results in table-row order.
	Cells []Cell `json:"cells,omitempty"`
	// Telemetry holds one merged counter snapshot per cell, in cell order;
	// nil unless the run enabled telemetry.
	Telemetry []CellTelemetry `json:"telemetry,omitempty"`
	// bench holds the machine-readable results of the bench measure (see
	// BenchResults); other measures leave it nil.
	bench []BenchResult
	// traces holds the sampled packet traces of a tracing-enabled run, in
	// (cell, trial, packet) order.
	traces []TraceRecord
}

// CellTelemetry is the merged counter snapshot of one sweep cell.
type CellTelemetry struct {
	// Cell is the cell's index (matches Cell.Index); Label identifies it.
	Cell  int    `json:"cell"`
	Label string `json:"label"`
	// Counters maps counter names to merged values (counts sum across trials,
	// gauges take the max); zero-valued counters are omitted.
	Counters map[string]int64 `json:"counters"`
}

// TraceRecord is one sampled packet trace tagged with the cell and trial that
// produced it.
type TraceRecord struct {
	Cell  int `json:"cell"`
	Trial int `json:"trial"`
	telemetry.Trace
}

// Traces returns the sampled packet traces of a tracing-enabled run, in
// (cell, trial, packet) order; nil otherwise.
func (rep *Report) Traces() []TraceRecord { return rep.traces }

// WriteTracesJSONL writes the report's sampled packet traces as JSON Lines,
// one trace per line (`mcc run -trace out.jsonl`).
func (rep *Report) WriteTracesJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range rep.traces {
		if err := enc.Encode(&rep.traces[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteMetricsJSON writes the telemetry sections of one or more reports as one
// indented JSON document (`mcc run -metrics out.json`): a list of per-cell
// counter snapshots under "cells".
func WriteMetricsJSON(w io.Writer, reps ...*Report) error {
	cells := make([]CellTelemetry, 0, len(reps))
	for _, rep := range reps {
		cells = append(cells, rep.Telemetry...)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"cells": cells})
}

// Cell is one sweep point of a report: the labels that identify it, the
// formatted table row and (where the measure provides them) raw numeric
// values keyed by metric name.
type Cell struct {
	// Index is the cell's position in the sweep (and in Table.Rows).
	Index int `json:"index"`
	// Pattern, Model and Rate identify a traffic cell.
	Pattern string  `json:"pattern,omitempty"`
	Model   string  `json:"model,omitempty"`
	Rate    float64 `json:"rate,omitempty"`
	// Faults identifies a fault-count-sweep cell.
	Faults int `json:"faults,omitempty"`
	// Row is the formatted table row of the cell.
	Row []string `json:"row,omitempty"`
	// Values are raw (unformatted) metrics keyed by name.
	Values map[string]float64 `json:"values,omitempty"`
	// Err is set when the cell failed (e.g. a trial exhausted the simulator's
	// event budget); the rest of the sweep still runs.
	Err string `json:"error,omitempty"`
}

// Event is one progress notification streamed to the observer: a cell is
// about to run (Done == false) or has finished (Done == true, Row filled).
type Event struct {
	// Measure is the running measure's canonical name.
	Measure string
	// Cell and Total locate the cell within the sweep.
	Cell, Total int
	// Label identifies the cell ("uniform/mcc/0.010", "faults=50").
	Label string
	// Done distinguishes cell completion from cell start.
	Done bool
	// Row is the cell's formatted table row (completion events only).
	Row []string
	// Progress marks a per-trial telemetry event (telemetry-enabled runs
	// only): Trial is the trial index within the cell and Counters its
	// counter snapshot. Progress events stream in trial order between a
	// cell's start and Done events, identically at any worker count.
	Progress bool
	Trial    int
	Counters map[string]int64
}

// Observer receives progress events during Run. Observers run synchronously
// on the measure goroutine: keep them fast.
type Observer func(Event)

// emit sends an event to the observer, if any.
func (sc *Scenario) emit(ev Event) {
	if sc.observer != nil {
		ev.Measure = sc.spec.Measure.Kind
		sc.observer(ev)
	}
}

// probeModel wraps a probe mesh for registry validation.
func probeModel(m *mesh.Mesh) *core.Model { return core.NewModel(m) }

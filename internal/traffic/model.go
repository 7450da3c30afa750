package traffic

import (
	"fmt"

	"mccmesh/internal/core"
	"mccmesh/internal/grid"
	"mccmesh/internal/registry"
	"mccmesh/internal/routing"
)

// InfoModel adapts one fault-information model to continuous traffic: it hands
// out routing providers per travel orientation (reusing them across packets)
// and rebuilds its fault information when the engine injects faults mid-run.
// The built-in models are thin views of a core.Model, which owns and caches
// the providers; third-party models implement the interface themselves.
type InfoModel interface {
	// Provider returns the provider consulted for packets travelling with the
	// given orientation. Providers are cached, so repeated calls are cheap.
	Provider(orient grid.Orientation) routing.Provider
	// Invalidate drops every cached labelling, region set and provider after
	// the mesh's fault set changed.
	Invalidate()
	// Name identifies the model in tables.
	Name() string
}

// FaultApplier is the incremental-update extension of InfoModel: the engine
// calls ApplyFaults with the nodes a mid-run fault event just marked faulty
// (already set on the mesh), and the model relabels only the affected
// neighbourhood instead of recomputing the world. For the built-in models
// core.Model.ApplyFaults decides which cached providers survive (those whose
// field caches can follow the change in place) and which are rebuilt lazily.
// Models that cannot update incrementally simply don't implement it; the
// engine falls back to Invalidate.
type FaultApplier interface {
	ApplyFaults(pts []grid.Point)
}

// FaultRepairer is the repair-side counterpart of FaultApplier: the churn
// timeline calls RepairFaults with the nodes it just restored (already
// cleared on the mesh), and the model un-relabels only the repaired
// neighbourhood. As with FaultApplier, models without an incremental repair
// path simply don't implement it and the engine falls back to Invalidate.
type FaultRepairer interface {
	RepairFaults(pts []grid.Point)
}

// infoModel is every built-in information model: the registered name of a
// core provider over the core.Model that caches it. The embedded Model's
// ApplyFaults, RepairFaults, Invalidate and SetTelemetry make it a
// FaultApplier, a FaultRepairer and a telemetry.Instrumentable.
type infoModel struct {
	*core.Model
	name string
}

func (im *infoModel) Name() string { return im.name }

// Provider shadows core.Model.Provider, fixing the name.
func (im *infoModel) Provider(orient grid.Orientation) routing.Provider {
	p, err := im.Model.Provider(im.name, orient)
	if err != nil {
		panic(err) // unreachable: only core provider names are registered
	}
	return p
}

// ModelCtor builds an information model over a core.Model from decoded spec
// parameters.
type ModelCtor func(model *core.Model, args registry.Args) (InfoModel, error)

// Models is the information-model registry. Built-ins register below;
// third-party models register the same way:
//
//	traffic.Models.Register(registry.Entry[traffic.ModelCtor]{Name: "mine", New: ...})
var Models = registry.New[ModelCtor]("information model")

func init() {
	register := func(name, doc string) {
		Models.Register(registry.Entry[ModelCtor]{
			Name: name,
			Doc:  doc,
			New: func(model *core.Model, _ registry.Args) (InfoModel, error) {
				return &infoModel{Model: model, name: name}, nil
			},
		})
	}
	register(core.ProviderMCC, "the paper's minimal-connected-component model")
	register(core.ProviderRFB, "rectangular faulty blocks (bounding box)")
	register(core.ProviderFBRule, "rectangular faulty blocks (convexity rule)")
	register(core.ProviderOracle, "omniscient reachability (theoretical optimum)")
	register(core.ProviderLabels, "avoid unsafe labels, no region reasoning")
	register(core.ProviderLocal, "stateless local-greedy floor baseline")
}

// BuildModel resolves an information model by name, validates its parameters
// against the registered schema and constructs it over model.
func BuildModel(name string, model *core.Model, args registry.Args) (InfoModel, error) {
	e, err := Models.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("traffic: %w", err)
	}
	if err := e.CheckArgs(args); err != nil {
		return nil, fmt.Errorf("traffic: information model %q: %w", e.Name, err)
	}
	return e.New(model, args)
}

// ModelByName builds the named information model over a core.Model. Accepted
// names: mcc, rfb (bounding-box blocks), fb-rule (convexity-rule blocks),
// oracle, labels, local — plus anything registered in Models.
func ModelByName(name string, model *core.Model) (InfoModel, error) {
	return BuildModel(name, model, nil)
}

// ModelNames lists the information-model names accepted by ModelByName.
func ModelNames() []string { return Models.Names() }

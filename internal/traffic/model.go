package traffic

import (
	"fmt"

	"mccmesh/internal/block"
	"mccmesh/internal/core"
	"mccmesh/internal/grid"
	"mccmesh/internal/registry"
	"mccmesh/internal/routing"
	"mccmesh/internal/telemetry"
)

// InfoModel adapts one fault-information model to continuous traffic: it hands
// out routing providers per travel orientation (reusing them across packets)
// and rebuilds its fault information when the engine injects faults mid-run.
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
// neighbourhood — keeping its providers and their field caches alive —
// instead of recomputing the world. Models that cannot update incrementally
// simply don't implement it; the engine falls back to Invalidate.
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

// mccModel serves the paper's MCC information model, one provider per
// orientation (the labelling is orientation-specific).
type mccModel struct {
	model *core.Model
	provs [8]*routing.MCC
	tel   *telemetry.Sink
}

// NewMCCModel returns the MCC fault-information model over m.
func NewMCCModel(model *core.Model) InfoModel {
	return &mccModel{model: model}
}

func (im *mccModel) Name() string { return "mcc" }

func (im *mccModel) Provider(orient grid.Orientation) routing.Provider {
	idx := orient.Index()
	if im.provs[idx] == nil {
		im.provs[idx] = &routing.MCC{Set: im.model.Regions(orient)}
		im.provs[idx].SetTelemetry(im.tel)
	}
	return im.provs[idx]
}

// SetTelemetry implements telemetry.Instrumentable: the sink reaches the core
// model (labellings) and every cached or future provider's field cache.
func (im *mccModel) SetTelemetry(s *telemetry.Sink) {
	im.tel = s
	im.model.SetTelemetry(s)
	for _, p := range im.provs {
		if p != nil {
			p.SetTelemetry(s)
		}
	}
}

func (im *mccModel) Invalidate() {
	im.model.Invalidate()
	im.provs = [8]*routing.MCC{}
}

// ApplyFaults implements FaultApplier: the labellings relabel incrementally,
// the component sets refresh in place (so the cached providers keep pointing
// at live data), and each provider's field cache marks stale only the fields
// whose box holds a changed label.
func (im *mccModel) ApplyFaults(pts []grid.Point) {
	im.model.ApplyFaults(pts)
	im.invalidateCaches()
}

// RepairFaults implements FaultRepairer: the mirror of ApplyFaults through
// labeling.RemoveFaults — un-relabel the repaired neighbourhood, re-extract
// the regions in place, invalidate the provider field caches.
func (im *mccModel) RepairFaults(pts []grid.Point) {
	im.model.RepairFaults(pts)
	im.invalidateCaches()
}

func (im *mccModel) invalidateCaches() {
	for _, p := range im.provs {
		if p != nil {
			p.InvalidateCache()
		}
	}
}

// blockModel serves the rectangular-faulty-block baseline; the block set is
// orientation-independent, so one provider suffices.
type blockModel struct {
	model   *core.Model
	variant block.Model
	prov    *routing.Block
	tel     *telemetry.Sink
}

// NewBlockModel returns the rectangular-block baseline model over m.
func NewBlockModel(model *core.Model, variant block.Model) InfoModel {
	return &blockModel{model: model, variant: variant}
}

func (im *blockModel) Name() string { return "rfb-" + im.variant.String() }

func (im *blockModel) Provider(grid.Orientation) routing.Provider {
	if im.prov == nil {
		im.prov = &routing.Block{Regions: im.model.Blocks(im.variant)}
		im.prov.SetTelemetry(im.tel)
	}
	return im.prov
}

// SetTelemetry implements telemetry.Instrumentable.
func (im *blockModel) SetTelemetry(s *telemetry.Sink) {
	im.tel = s
	im.model.SetTelemetry(s)
	if im.prov != nil {
		im.prov.SetTelemetry(s)
	}
}

func (im *blockModel) Invalidate() {
	im.model.Invalidate()
	im.prov = nil
}

// ApplyFaults implements FaultApplier. Block snapshots have no incremental
// form, so the provider is dropped for a lazy wholesale rebuild; the shared
// core model still updates its labellings incrementally.
func (im *blockModel) ApplyFaults(pts []grid.Point) {
	im.model.ApplyFaults(pts)
	im.prov = nil
}

// RepairFaults implements FaultRepairer; as with ApplyFaults, the block
// snapshot is rebuilt wholesale while the shared core model repairs in place.
func (im *blockModel) RepairFaults(pts []grid.Point) {
	im.model.RepairFaults(pts)
	im.prov = nil
}

// oracleModel serves the omniscient provider (the theoretical optimum).
type oracleModel struct {
	model *core.Model
	prov  *routing.Oracle
	tel   *telemetry.Sink
}

// NewOracleModel returns the omniscient model over m.
func NewOracleModel(model *core.Model) InfoModel {
	return &oracleModel{model: model}
}

func (im *oracleModel) Name() string { return "oracle" }

func (im *oracleModel) Provider(grid.Orientation) routing.Provider {
	if im.prov == nil {
		im.prov = &routing.Oracle{Mesh: im.model.Mesh()}
		im.prov.SetTelemetry(im.tel)
	}
	return im.prov
}

// SetTelemetry implements telemetry.Instrumentable.
func (im *oracleModel) SetTelemetry(s *telemetry.Sink) {
	im.tel = s
	im.model.SetTelemetry(s)
	if im.prov != nil {
		im.prov.SetTelemetry(s)
	}
}

func (im *oracleModel) Invalidate() {
	// The oracle reads the live mesh; only its reachability cache is stale.
	// Guard the nil case: a fault event may fire before any packet asked for
	// the provider.
	if im.prov != nil {
		routing.InvalidateCaches(im.prov)
	}
}

// ApplyFaults implements FaultApplier: the oracle reads the live mesh, so an
// invalidation of its field cache is all an incremental update needs.
func (im *oracleModel) ApplyFaults(pts []grid.Point) { im.Invalidate() }

// RepairFaults implements FaultRepairer: same as ApplyFaults — the live mesh
// is the source of truth either way.
func (im *oracleModel) RepairFaults(pts []grid.Point) { im.Invalidate() }

// labeledModel avoids unsafe nodes with no region reasoning.
type labeledModel struct {
	model *core.Model
	provs [8]*routing.Labeled
}

// NewLabeledModel returns the labels-only model over m.
func NewLabeledModel(model *core.Model) InfoModel {
	return &labeledModel{model: model}
}

func (im *labeledModel) Name() string { return "labels" }

// SetTelemetry implements telemetry.Instrumentable: Labeled providers have no
// field cache, but the core model's labellings count relabel set sizes.
func (im *labeledModel) SetTelemetry(s *telemetry.Sink) { im.model.SetTelemetry(s) }

func (im *labeledModel) Provider(orient grid.Orientation) routing.Provider {
	idx := orient.Index()
	if im.provs[idx] == nil {
		im.provs[idx] = &routing.Labeled{Labeling: im.model.Labeling(orient)}
	}
	return im.provs[idx]
}

func (im *labeledModel) Invalidate() {
	im.model.Invalidate()
	im.provs = [8]*routing.Labeled{}
}

// ApplyFaults implements FaultApplier: the cached providers read the
// labellings, which relabel in place.
func (im *labeledModel) ApplyFaults(pts []grid.Point) {
	im.model.ApplyFaults(pts)
}

// RepairFaults implements FaultRepairer: the labellings un-relabel in place.
func (im *labeledModel) RepairFaults(pts []grid.Point) {
	im.model.RepairFaults(pts)
}

// localModel is the stateless local-greedy floor baseline.
type localModel struct{}

// NewLocalModel returns the local-greedy floor baseline.
func NewLocalModel() InfoModel { return localModel{} }

func (localModel) Name() string                               { return "local" }
func (localModel) Provider(grid.Orientation) routing.Provider { return routing.LocalGreedy{} }
func (localModel) Invalidate()                                {}

// ModelCtor builds an information model over a core.Model from decoded spec
// parameters.
type ModelCtor func(model *core.Model, args registry.Args) (InfoModel, error)

// Models is the information-model registry. Built-ins register below;
// third-party models register the same way:
//
//	traffic.Models.Register(registry.Entry[traffic.ModelCtor]{Name: "mine", New: ...})
var Models = registry.New[ModelCtor]("information model")

func init() {
	register := func(name, doc string, build func(*core.Model) InfoModel) {
		Models.Register(registry.Entry[ModelCtor]{
			Name: name,
			Doc:  doc,
			New: func(model *core.Model, _ registry.Args) (InfoModel, error) {
				return build(model), nil
			},
		})
	}
	register(core.ProviderMCC, "the paper's minimal-connected-component model", NewMCCModel)
	register(core.ProviderRFB, "rectangular faulty blocks (bounding box)", func(m *core.Model) InfoModel {
		return NewBlockModel(m, block.BoundingBox)
	})
	register(core.ProviderFBRule, "rectangular faulty blocks (convexity rule)", func(m *core.Model) InfoModel {
		return NewBlockModel(m, block.ConvexityRule)
	})
	register(core.ProviderOracle, "omniscient reachability (theoretical optimum)", NewOracleModel)
	register(core.ProviderLabels, "avoid unsafe labels, no region reasoning", NewLabeledModel)
	register(core.ProviderLocal, "stateless local-greedy floor baseline", func(*core.Model) InfoModel {
		return NewLocalModel()
	})
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

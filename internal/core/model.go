// Package core ties the pieces of the MCC fault-information model together
// behind one orchestrating type, Model: it owns a mesh, computes and caches
// the per-orientation labellings and fault regions, answers feasibility
// queries and routes messages with any of the supported information providers.
// Model is the one owner of routing providers: Provider resolves a model name
// to a cached provider, and fault changes keep or drop the cached providers
// by one rule (see ApplyFaults). The traffic engine's information models and
// RouteWith both go through it. The public facade package (the repository
// root) re-exports this API.
package core

import (
	"fmt"

	"mccmesh/internal/block"
	"mccmesh/internal/feasibility"
	"mccmesh/internal/grid"
	"mccmesh/internal/labeling"
	"mccmesh/internal/mesh"
	"mccmesh/internal/minimal"
	"mccmesh/internal/protocol"
	"mccmesh/internal/region"
	"mccmesh/internal/routing"
	"mccmesh/internal/telemetry"
)

// Provider names accepted by Model.Provider and Model.RouteWith (Provider
// rejects ProviderBoundary; see RouteWith).
const (
	ProviderMCC      = "mcc"
	ProviderOracle   = "oracle"
	ProviderRFB      = "rfb"
	ProviderFBRule   = "fb-rule"
	ProviderLabels   = "labels"
	ProviderLocal    = "local"
	ProviderBoundary = "boundary"
)

// Model is the MCC fault-information model over one mesh. It is not safe for
// concurrent use; clone the mesh and build separate models for parallel
// workloads.
type Model struct {
	m    *mesh.Mesh
	opts labeling.Options

	labelings [8]*labeling.Labeling
	regions   [8]*region.ComponentSet
	blocks    map[block.Model]*block.Regions
	info      [8]*protocol.InfoResult

	// providers memoises routing providers by name, one slot per
	// orientation. An orientation-free provider fills all eight slots with
	// one instance, so its field cache is shared across orientations.
	providers map[string]*[8]routing.Provider

	tel *telemetry.Sink
}

// SetTelemetry implements telemetry.Instrumentable: the sink is attached to
// every cached labelling and provider and to those computed later.
func (mo *Model) SetTelemetry(s *telemetry.Sink) {
	mo.tel = s
	for _, l := range mo.labelings {
		if l != nil {
			l.SetTelemetry(s)
		}
	}
	for _, slots := range mo.providers {
		for _, p := range slots {
			if inst, ok := p.(telemetry.Instrumentable); ok {
				inst.SetTelemetry(s)
			}
		}
	}
}

// NewModel wraps a mesh in a Model. Later fault changes on the mesh must be
// followed by Invalidate.
func NewModel(m *mesh.Mesh, opts ...labeling.Options) *Model {
	var o labeling.Options
	if len(opts) > 0 {
		o = opts[0]
	}
	return &Model{
		m:         m,
		opts:      o,
		blocks:    make(map[block.Model]*block.Regions),
		providers: make(map[string]*[8]routing.Provider),
	}
}

// Mesh returns the underlying mesh.
func (mo *Model) Mesh() *mesh.Mesh { return mo.m }

// Invalidate drops every cached labelling, region set and provider; call it
// after changing the mesh's fault set. When the change is purely additive
// (new faults on a live mesh) or purely subtractive (repairs), ApplyFaults /
// RepairFaults are the cheaper paths: they update the caches in place instead
// of dropping them.
func (mo *Model) Invalidate() {
	mo.labelings = [8]*labeling.Labeling{}
	mo.regions = [8]*region.ComponentSet{}
	mo.info = [8]*protocol.InfoResult{}
	mo.blocks = make(map[block.Model]*block.Regions)
	clear(mo.providers)
}

// ApplyFaults incrementally absorbs newly injected faults (already marked on
// the mesh) into the cached fault information: each cached labelling relabels
// only the neighbourhood the new faults touch (labeling.AddFaults) and each
// cached region set re-extracts its components in place
// (region.ComponentSet.Refresh), so pointers handed out to routing providers
// stay valid. Cached providers that implement routing.CacheInvalidator (MCC,
// Oracle) are kept and marked stale where the fault touched them; every
// other provider is dropped and rebuilt lazily, as are block snapshots and
// protocol info, which have no incremental form. Only fault *additions* are
// supported here; repairs go through RepairFaults, and after arbitrary edits
// call Invalidate.
func (mo *Model) ApplyFaults(pts []grid.Point) {
	for _, l := range mo.labelings {
		if l != nil {
			l.AddFaults(pts)
		}
	}
	mo.refreshDerived()
}

// RepairFaults is the inverse of ApplyFaults: it incrementally absorbs fault
// repairs (already cleared on the mesh, e.g. via mesh.RemoveFaults) into the
// cached fault information. Each cached labelling un-relabels only the
// repaired neighbourhood (labeling.RemoveFaults) and each cached region set
// re-extracts its components in place — repairs shrink, split or dissolve
// MCCs exactly as injections grow and merge them, and Refresh handles both.
// Providers, block snapshots and protocol info are kept or dropped as in
// ApplyFaults.
func (mo *Model) RepairFaults(pts []grid.Point) {
	for _, l := range mo.labelings {
		if l != nil {
			l.RemoveFaults(pts)
		}
	}
	mo.refreshDerived()
}

// refreshDerived re-extracts the cached region sets in place, invalidates the
// providers that can follow them and drops the caches that have no
// incremental form, after the labellings changed.
func (mo *Model) refreshDerived() {
	for _, cs := range mo.regions {
		if cs != nil {
			cs.Refresh()
		}
	}
	for _, slots := range mo.providers {
		for i, p := range slots {
			inv, ok := p.(routing.CacheInvalidator)
			if !ok {
				slots[i] = nil
			} else if i == 0 || p != slots[i-1] {
				// A shared provider fills every slot; invalidate it once.
				inv.InvalidateCache()
			}
		}
	}
	mo.info = [8]*protocol.InfoResult{}
	if len(mo.blocks) > 0 {
		mo.blocks = make(map[block.Model]*block.Regions)
	}
}

// Labeling returns the (cached) labelling for an orientation.
func (mo *Model) Labeling(orient grid.Orientation) *labeling.Labeling {
	idx := orient.Index()
	if mo.labelings[idx] == nil {
		mo.labelings[idx] = labeling.Compute(mo.m, orient, mo.opts)
		mo.labelings[idx].SetTelemetry(mo.tel)
	}
	return mo.labelings[idx]
}

// Regions returns the (cached) MCCs for an orientation.
func (mo *Model) Regions(orient grid.Orientation) *region.ComponentSet {
	idx := orient.Index()
	if mo.regions[idx] == nil {
		mo.regions[idx] = region.FindMCCs(mo.Labeling(orient))
	}
	return mo.regions[idx]
}

// Blocks returns the (cached) rectangular faulty blocks of the requested
// variant.
func (mo *Model) Blocks(variant block.Model) *block.Regions {
	if mo.blocks[variant] == nil {
		mo.blocks[variant] = block.Build(mo.m, variant)
	}
	return mo.blocks[variant]
}

// Provider returns the (cached) routing provider of the named information
// model for packets travelling with the given orientation. The MCC and
// labels-only providers depend on the orientation and are cached per
// orientation; the oracle, block and local-greedy providers do not, so one
// instance serves all eight orientations. Cached providers survive
// ApplyFaults / RepairFaults only if they can follow the change in place.
// ProviderBoundary is not cached — its carried record set belongs to one
// message — so it is an unknown name here, as is any other.
func (mo *Model) Provider(name string, orient grid.Orientation) (routing.Provider, error) {
	idx := orient.Index()
	slots := mo.providers[name]
	if slots != nil && slots[idx] != nil {
		return slots[idx], nil
	}
	var p routing.Provider
	perOrientation := false
	switch name {
	case ProviderMCC:
		p, perOrientation = &routing.MCC{Set: mo.Regions(orient)}, true
	case ProviderLabels:
		p, perOrientation = &routing.Labeled{Labeling: mo.Labeling(orient)}, true
	case ProviderOracle:
		p = &routing.Oracle{Mesh: mo.m}
	case ProviderRFB:
		p = &routing.Block{Regions: mo.Blocks(block.BoundingBox)}
	case ProviderFBRule:
		p = &routing.Block{Regions: mo.Blocks(block.ConvexityRule)}
	case ProviderLocal:
		p = routing.LocalGreedy{}
	default:
		return nil, fmt.Errorf("core: unknown provider %q", name)
	}
	if inst, ok := p.(telemetry.Instrumentable); ok {
		inst.SetTelemetry(mo.tel)
	}
	if slots == nil {
		slots = new([8]routing.Provider)
		mo.providers[name] = slots
	}
	if perOrientation {
		slots[idx] = p
	} else {
		*slots = [8]routing.Provider{p, p, p, p, p, p, p, p}
	}
	return p, nil
}

// BoundaryInformation runs (and caches) the distributed information model for
// an orientation, returning the per-node record placement and message counts.
func (mo *Model) BoundaryInformation(orient grid.Orientation) *protocol.InfoResult {
	idx := orient.Index()
	if mo.info[idx] == nil {
		mo.info[idx] = protocol.RunInformationModel(mo.m, mo.Labeling(orient), mo.Regions(orient))
	}
	return mo.info[idx]
}

// Feasible reports whether a minimal path from s to d exists under the MCC
// model (Theorem 1 / Theorem 2). Both endpoints must be healthy.
func (mo *Model) Feasible(s, d grid.Point) bool {
	if mo.m.IsFaulty(s) || mo.m.IsFaulty(d) {
		return false
	}
	return feasibility.Theorem(mo.Regions(grid.OrientationOf(s, d)), s, d)
}

// FeasibleByDetection runs the distributed detection procedure instead of the
// geometric theorem and returns its verdict plus the number of message hops.
func (mo *Model) FeasibleByDetection(s, d grid.Point) (bool, int) {
	lab := mo.Labeling(grid.OrientationOf(s, d))
	if mo.m.Is2D() {
		res := protocol.RunDetection2D(mo.m, lab, s, d)
		return res.Feasible, res.ForwardHops + res.ReplyHops
	}
	res := protocol.RunDetection3D(mo.m, lab, s, d)
	return res.Feasible, res.ForwardHops + res.ReplyHops
}

// Route routes from s to d with the MCC information provider and the default
// policy, after checking feasibility at the source exactly as Algorithm 3/6
// prescribe.
func (mo *Model) Route(s, d grid.Point) (*routing.Trace, error) {
	return mo.RouteWith(ProviderMCC, s, d)
}

// RouteWith routes from s to d using the named information provider: the
// cached one from Provider, or for ProviderBoundary a fresh Records provider
// whose carried record set serves this message only. With ProviderMCC it
// first checks feasibility at the source, as Algorithm 3/6 prescribe; an
// endpoint outside the mesh skips the check and is reported by the router
// (routing.ErrEndpointOutOfMesh), not as an infeasible pair.
func (mo *Model) RouteWith(provider string, s, d grid.Point) (*routing.Trace, error) {
	orient := grid.OrientationOf(s, d)
	if provider == ProviderBoundary {
		info := mo.BoundaryInformation(orient)
		p := &routing.Records{Set: mo.Regions(orient), PerNode: info.Records, CarryAlong: true}
		return routing.New(mo.m, p, nil).Route(s, d), nil
	}
	inMesh := mo.m.InBounds(s) && mo.m.InBounds(d)
	if provider == ProviderMCC && inMesh && !mo.Feasible(s, d) {
		return nil, fmt.Errorf("core: no minimal path from %v to %v under the MCC model", s, d)
	}
	p, err := mo.Provider(provider, orient)
	if err != nil {
		return nil, err
	}
	return routing.New(mo.m, p, nil).Route(s, d), nil
}

// RouteDistributed forwards a routing message hop by hop over the simulated
// network using only node-local records (the paper's full distributed mode).
func (mo *Model) RouteDistributed(s, d grid.Point) *protocol.RouteResult {
	orient := grid.OrientationOf(s, d)
	info := mo.BoundaryInformation(orient)
	return protocol.RunRouting(mo.m, mo.Regions(orient), info.Records, s, d)
}

// MinimalPathExists is the ground-truth check (any minimal path avoiding the
// faulty nodes), independent of the information model.
func (mo *Model) MinimalPathExists(s, d grid.Point) bool {
	return minimal.Exists(mo.m, mo.m.FaultyWords(), s, d)
}

// AbsorbedHealthyNodes returns the number of healthy nodes the MCC model
// absorbs for the given orientation (the paper's first evaluation metric).
func (mo *Model) AbsorbedHealthyNodes(orient grid.Orientation) int {
	return mo.Labeling(orient).NonFaultyUnsafeCount()
}

// Summary describes the model state for one orientation.
type Summary struct {
	Orientation     grid.Orientation
	Faults          int
	Regions         int
	AbsorbedHealthy int
	LargestRegion   int
	RFBAbsorbed     int
}

// Summarize returns the headline numbers for one orientation.
func (mo *Model) Summarize(orient grid.Orientation) Summary {
	cs := mo.Regions(orient)
	s := Summary{
		Orientation:     orient,
		Faults:          mo.m.FaultCount(),
		Regions:         cs.Len(),
		AbsorbedHealthy: cs.TotalNonFaulty(),
		RFBAbsorbed:     mo.Blocks(block.BoundingBox).TotalNonFaulty(),
	}
	if largest := cs.Largest(); largest != nil {
		s.LargestRegion = largest.Size()
	}
	return s
}

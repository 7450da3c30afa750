package core

import (
	"testing"

	"mccmesh/internal/block"
	"mccmesh/internal/fault"
	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/meshtest"
	"mccmesh/internal/rng"
	"mccmesh/internal/routing"
)

func figure5Model() *Model {
	m := mesh.New3D(10, 10, 10)
	m.AddFaults(
		grid.Point{X: 5, Y: 5, Z: 6}, grid.Point{X: 6, Y: 5, Z: 5}, grid.Point{X: 5, Y: 6, Z: 5},
		grid.Point{X: 6, Y: 7, Z: 5}, grid.Point{X: 7, Y: 6, Z: 5}, grid.Point{X: 5, Y: 4, Z: 7},
		grid.Point{X: 4, Y: 5, Z: 7}, grid.Point{X: 7, Y: 8, Z: 4},
	)
	return NewModel(m)
}

func TestModelSummarizeFigure5(t *testing.T) {
	mo := figure5Model()
	sum := mo.Summarize(grid.PositiveOrientation)
	if sum.Faults != 8 || sum.Regions != 2 || sum.AbsorbedHealthy != 2 || sum.LargestRegion != 9 {
		t.Errorf("summary wrong: %+v", sum)
	}
	if sum.RFBAbsorbed != 72 {
		t.Errorf("RFB absorbed %d healthy nodes, want 72", sum.RFBAbsorbed)
	}
}

func TestModelCachingAndInvalidate(t *testing.T) {
	mo := figure5Model()
	l1 := mo.Labeling(grid.PositiveOrientation)
	l2 := mo.Labeling(grid.PositiveOrientation)
	if l1 != l2 {
		t.Error("labelling should be cached")
	}
	r1 := mo.Regions(grid.PositiveOrientation)
	if r1 != mo.Regions(grid.PositiveOrientation) {
		t.Error("regions should be cached")
	}
	mo.Mesh().AddFaults(grid.Point{X: 1, Y: 1, Z: 1})
	mo.Invalidate()
	if mo.Labeling(grid.PositiveOrientation) == l1 {
		t.Error("Invalidate should drop the cache")
	}
	if mo.Labeling(grid.PositiveOrientation).Count(0 /* Safe */) == l1.Count(0) {
		// counts may coincide; just ensure the new fault is seen
	}
	if !mo.Mesh().IsFaulty(grid.Point{X: 1, Y: 1, Z: 1}) {
		t.Error("fault not recorded")
	}
}

func TestModelFeasibleAndRoute(t *testing.T) {
	mo := figure5Model()
	s, d := grid.Point{}, grid.Point{X: 9, Y: 9, Z: 9}
	if !mo.Feasible(s, d) {
		t.Fatal("Figure 5 faults cannot block the corner pair")
	}
	tr, err := mo.Route(s, d)
	if err != nil || !tr.Succeeded() {
		t.Fatalf("route failed: %v %v", err, tr)
	}
	if tr.Hops() != grid.Manhattan(s, d) {
		t.Errorf("hops = %d, want %d", tr.Hops(), grid.Manhattan(s, d))
	}
	if mo.Feasible(grid.Point{X: 5, Y: 5, Z: 6}, d) {
		t.Error("a faulty source can never be feasible")
	}
}

func TestModelRouteWithProviders(t *testing.T) {
	mo := figure5Model()
	s, d := grid.Point{X: 2, Y: 2, Z: 2}, grid.Point{X: 9, Y: 9, Z: 9}
	for _, provider := range []string{ProviderMCC, ProviderOracle, ProviderRFB, ProviderFBRule, ProviderLabels, ProviderLocal, ProviderBoundary} {
		tr, err := mo.RouteWith(provider, s, d)
		if err != nil {
			// The RFB provider may legitimately refuse if the coarse blocks
			// block the pair; every other provider must attempt the route.
			t.Errorf("provider %s returned error: %v", provider, err)
			continue
		}
		if !tr.Succeeded() && provider != ProviderLocal && provider != ProviderRFB && provider != ProviderFBRule {
			t.Errorf("provider %s failed: %v", provider, tr.Err)
		}
	}
	if _, err := mo.RouteWith("nonsense", s, d); err == nil {
		t.Error("unknown provider should be rejected")
	}
}

func TestModelRouteInfeasible(t *testing.T) {
	m := mesh.New2D(8, 8)
	// Wall across the whole routing box of (0,0)->(3,7).
	for x := 0; x <= 3; x++ {
		m.SetFaulty(grid.Point{X: x, Y: 4}, true)
	}
	mo := NewModel(m)
	if mo.Feasible(grid.Point{}, grid.Point{X: 3, Y: 7}) {
		t.Fatal("pair should be infeasible")
	}
	if _, err := mo.Route(grid.Point{}, grid.Point{X: 3, Y: 7}); err == nil {
		t.Error("Route must refuse infeasible pairs (the paper stops the routing at the source)")
	}
}

func TestModelDetectionAndDistributed(t *testing.T) {
	mo := figure5Model()
	s, d := grid.Point{}, grid.Point{X: 9, Y: 9, Z: 9}
	ok, hops := mo.FeasibleByDetection(s, d)
	if !ok || hops <= 0 {
		t.Errorf("detection: ok=%v hops=%d", ok, hops)
	}
	res := mo.RouteDistributed(s, d)
	if !res.Delivered || !res.Minimal {
		t.Errorf("distributed routing: %+v", res)
	}
	info := mo.BoundaryInformation(grid.PositiveOrientation)
	if info != mo.BoundaryInformation(grid.PositiveOrientation) {
		t.Error("boundary information should be cached")
	}
}

func TestModelMatchesGroundTruthOnRandomMeshes(t *testing.T) {
	r := rng.New(123)
	for trial := 0; trial < 15; trial++ {
		m := mesh.New3D(7, 7, 7)
		fault.Uniform{Count: 25, Protected: []grid.Point{{}, {X: 6, Y: 6, Z: 6}}}.Inject(m, r)
		mo := NewModel(m)
		s, d := grid.Point{}, grid.Point{X: 6, Y: 6, Z: 6}
		if mo.Labeling(grid.OrientationOf(s, d)).Unsafe(s) || mo.Labeling(grid.OrientationOf(s, d)).Unsafe(d) {
			continue
		}
		if mo.Feasible(s, d) != mo.MinimalPathExists(s, d) {
			t.Fatalf("trial %d: model feasibility disagrees with ground truth", trial)
		}
	}
}

func TestModelBlocksCaching(t *testing.T) {
	mo := figure5Model()
	if mo.Blocks(block.BoundingBox) != mo.Blocks(block.BoundingBox) {
		t.Error("blocks should be cached per variant")
	}
	if mo.Blocks(block.BoundingBox) == nil || mo.Blocks(block.ConvexityRule) == nil {
		t.Error("blocks missing")
	}
}

// TestModelRepairFaultsMatchesInvalidate drives the incremental repair path
// through randomized churn: after each batch of injections (ApplyFaults) or
// repairs (RepairFaults), the cached labellings and regions must agree with a
// model rebuilt from scratch — and the cached pointers must stay the same
// objects, which is what keeps live routing providers valid across churn.
func TestModelRepairFaultsMatchesInvalidate(t *testing.T) {
	m := mesh.NewCube(8)
	placed := fault.Uniform{Count: 35}.Inject(m, rng.New(7))
	mo := NewModel(m)
	// Warm every orientation's labelling and region set.
	for _, o := range grid.AllOrientations3D() {
		mo.Labeling(o)
		mo.Regions(o)
	}
	lab0 := mo.Labeling(grid.PositiveOrientation)
	cs0 := mo.Regions(grid.PositiveOrientation)

	r := rng.New(91)
	live := append([]grid.Point(nil), placed...)
	for batch := 0; batch < 6; batch++ {
		if batch%2 == 0 && len(live) > 3 {
			k := 1 + r.Intn(3)
			pts := append([]grid.Point(nil), live[:k]...)
			live = live[k:]
			m.RemoveFaults(pts...)
			mo.RepairFaults(pts)
		} else {
			pts := fault.Uniform{Count: 1 + r.Intn(4)}.Inject(m, r)
			live = append(live, pts...)
			mo.ApplyFaults(pts)
		}
		fresh := NewModel(m.Clone())
		for _, o := range grid.AllOrientations3D() {
			inc, full := mo.Labeling(o), fresh.Labeling(o)
			for i := 0; i < m.NodeCount(); i++ {
				if inc.StatusAt(i).Unsafe() != full.StatusAt(i).Unsafe() {
					t.Fatalf("batch %d %v: node %v unsafe=%v incrementally, %v rebuilt",
						batch, o, m.Point(i), inc.StatusAt(i).Unsafe(), full.StatusAt(i).Unsafe())
				}
			}
			if got, want := mo.Regions(o).Len(), fresh.Regions(o).Len(); got != want {
				t.Fatalf("batch %d %v: %d regions incrementally, %d rebuilt", batch, o, got, want)
			}
		}
	}
	if mo.Labeling(grid.PositiveOrientation) != lab0 || mo.Regions(grid.PositiveOrientation) != cs0 {
		t.Error("churn updates must mutate the cached labelling/region objects in place, not replace them")
	}
}

// TestBoundaryRecordsMatchDistributedRouting: the boundary-records provider
// behind RouteWith(ProviderBoundary) and the message-level routing of
// RouteDistributed implement the same decision — node-local records carried
// along the path, largest-offset selection — so on every pair they must agree
// on the outcome and, when delivered, on the path.
func TestBoundaryRecordsMatchDistributedRouting(t *testing.T) {
	r := rng.New(5)
	delivered := 0
	for trial := 0; trial < 300; trial++ {
		var m *mesh.Mesh
		if trial%2 == 0 {
			m = meshtest.Random2D(r, 10, 5+r.Intn(25))
		} else {
			m = meshtest.Random3D(r, 7, 10+r.Intn(50))
		}
		s, d, ok := meshtest.SafePair(r, m, 4)
		if !ok {
			continue
		}
		mo := NewModel(m)
		tr, err := mo.RouteWith(ProviderBoundary, s, d)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		dist := mo.RouteDistributed(s, d)
		if tr.Succeeded() != dist.Delivered {
			t.Fatalf("trial %d %v->%v: records provider succeeded=%v (%v), distributed delivered=%v",
				trial, s, d, tr.Succeeded(), tr.Err, dist.Delivered)
		}
		if !dist.Delivered {
			continue
		}
		delivered++
		if len(tr.Path) != len(dist.Path) {
			t.Fatalf("trial %d %v->%v: path lengths %d vs %d", trial, s, d, len(tr.Path), len(dist.Path))
		}
		for i := range tr.Path {
			if tr.Path[i] != dist.Path[i] {
				t.Fatalf("trial %d %v->%v: paths diverge at hop %d: %v vs %v", trial, s, d, i, tr.Path[i], dist.Path[i])
			}
		}
	}
	if delivered < 100 {
		t.Fatalf("only %d delivered pairs compared; generator too restrictive", delivered)
	}
}

// TestModelProviderCache pins the provider cache: one instance per name and
// orientation (one per name for the orientation-free providers), kept across
// ApplyFaults / RepairFaults exactly when it can follow the change in place,
// and dropped wholesale by Invalidate.
func TestModelProviderCache(t *testing.T) {
	mo := figure5Model()
	perOrientation := map[string]bool{ProviderMCC: true, ProviderLabels: true}
	names := []string{ProviderMCC, ProviderLabels, ProviderOracle, ProviderRFB, ProviderFBRule, ProviderLocal}
	snapshot := func() map[string][8]routing.Provider {
		out := make(map[string][8]routing.Provider)
		for _, name := range names {
			var provs [8]routing.Provider
			for i := range provs {
				o := grid.OrientationFromIndex(i)
				p, err := mo.Provider(name, o)
				if err != nil {
					t.Fatalf("Provider(%q, %v): %v", name, o, err)
				}
				if again, _ := mo.Provider(name, o); again != p {
					t.Errorf("%s/%v: repeated Provider calls returned different instances", name, o)
				}
				provs[i] = p
			}
			out[name] = provs
		}
		return out
	}
	// kept reports, per orientation, whether a provider survived the step.
	kept := func(before, after map[string][8]routing.Provider, name string) (all, none bool) {
		all, none = true, true
		for i := range before[name] {
			same := before[name][i] == after[name][i]
			all, none = all && same, none && !same
		}
		return all, none
	}

	fresh := snapshot()
	for name, provs := range fresh {
		distinct := make(map[routing.Provider]bool)
		for _, p := range provs {
			distinct[p] = true
		}
		if perOrientation[name] && len(distinct) != 8 {
			t.Errorf("%s: %d distinct providers over 8 orientations, want 8", name, len(distinct))
		}
		if !perOrientation[name] && len(distinct) != 1 {
			t.Errorf("%s: %d distinct providers over 8 orientations, want one shared", name, len(distinct))
		}
	}

	steps := []struct {
		name string
		do   func()
	}{
		{"ApplyFaults", func() {
			p := grid.Point{X: 1, Y: 1, Z: 1}
			mo.Mesh().AddFaults(p)
			mo.ApplyFaults([]grid.Point{p})
		}},
		{"RepairFaults", func() {
			p := grid.Point{X: 1, Y: 1, Z: 1}
			mo.Mesh().RemoveFaults(p)
			mo.RepairFaults([]grid.Point{p})
		}},
	}
	before := fresh
	for _, step := range steps {
		step.do()
		after := snapshot()
		for _, name := range []string{ProviderMCC, ProviderOracle} {
			if all, _ := kept(before, after, name); !all {
				t.Errorf("%s replaced the %s providers; they should be kept and invalidated", step.name, name)
			}
		}
		for _, name := range []string{ProviderRFB, ProviderFBRule, ProviderLabels} {
			if _, none := kept(before, after, name); !none {
				t.Errorf("%s kept a %s provider; it should be rebuilt", step.name, name)
			}
		}
		before = after
	}

	mo.Invalidate()
	after := snapshot()
	for _, name := range []string{ProviderMCC, ProviderLabels, ProviderOracle, ProviderRFB, ProviderFBRule} {
		if _, none := kept(before, after, name); !none {
			t.Errorf("Invalidate kept a %s provider", name)
		}
	}

	for _, name := range []string{"nonsense", ProviderBoundary} {
		if _, err := mo.Provider(name, grid.PositiveOrientation); err == nil {
			t.Errorf("Provider(%q) should be an error", name)
		}
	}
}

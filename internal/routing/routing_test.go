package routing

import (
	"errors"
	"slices"
	"testing"

	"mccmesh/internal/block"
	"mccmesh/internal/feasibility"
	"mccmesh/internal/grid"
	"mccmesh/internal/labeling"
	"mccmesh/internal/mesh"
	"mccmesh/internal/meshtest"
	"mccmesh/internal/minimal"
	"mccmesh/internal/region"
	"mccmesh/internal/rng"
)

func mccProvider(m *mesh.Mesh, s, d grid.Point) (*MCC, *region.ComponentSet) {
	l := labeling.Compute(m, grid.OrientationOf(s, d))
	cs := region.FindMCCs(l)
	return &MCC{Set: cs}, cs
}

func TestRouteFaultFree(t *testing.T) {
	m := mesh.New3D(6, 6, 6)
	s, d := grid.Point{}, grid.Point{X: 5, Y: 4, Z: 3}
	for _, policy := range []Policy{LargestOffsetFirst{}, DimensionOrder{}, Seeded{Seed: 1}} {
		p, _ := mccProvider(m, s, d)
		r := New(m, p, policy)
		tr := r.Route(s, d)
		if !tr.Succeeded() {
			t.Fatalf("policy %s: route failed: %v", policy.Name(), tr.Err)
		}
		if tr.Hops() != grid.Manhattan(s, d) {
			t.Fatalf("policy %s: path length %d, want %d", policy.Name(), tr.Hops(), grid.Manhattan(s, d))
		}
		if !minimal.IsMinimalPath(m, m.FaultyWords(), s, d, tr.Path) {
			t.Fatalf("policy %s: path is not a valid minimal path", policy.Name())
		}
	}
}

func TestCandidateDirsMatchesRouteDecisions(t *testing.T) {
	m := mesh.New3D(6, 6, 6)
	m.AddFaults(grid.Point{X: 1, Y: 0, Z: 0}, grid.Point{X: 2, Y: 1, Z: 1})
	s, d := grid.Point{}, grid.Point{X: 5, Y: 5, Z: 5}
	p, _ := mccProvider(m, s, d)
	tr := New(m, p, nil).Route(s, d)
	if !tr.Succeeded() {
		t.Fatalf("route failed: %v", tr.Err)
	}
	// Replaying the decision mask along the delivered path on a fresh
	// provider must reproduce the candidate counts the Router recorded.
	replay := &MCC{Set: p.Set}
	dID := m.ID(d)
	for i, u := range tr.Path[:len(tr.Path)-1] {
		dirs := AppendMaskDirs(nil, replay.CandidateMaskID(m, m.ID(u), u, dID, d))
		if len(dirs) != tr.Candidates[i] {
			t.Fatalf("hop %d at %v: the mask has %d candidates, trace recorded %d", i, u, len(dirs), tr.Candidates[i])
		}
		next := tr.Path[i+1]
		if !slices.ContainsFunc(dirs, func(dir grid.Direction) bool { return grid.Step(u, dir) == next }) {
			t.Fatalf("hop %d at %v: the route stepped to %v, outside the mask's candidates %v", i, u, next, dirs)
		}
	}
	// At the destination there is nothing left to do.
	if mk := replay.CandidateMaskID(m, dID, d, dID, d); mk != 0 {
		t.Errorf("decision mask at the destination = %06b, want none", mk)
	}
}

// TestRouteRejectsEndpointsOutsideTheMesh: an endpoint outside the mesh is
// reported before any provider is consulted, for every provider.
func TestRouteRejectsEndpointsOutsideTheMesh(t *testing.T) {
	m := mesh.NewCube(4)
	lab := labeling.Compute(m, grid.PositiveOrientation)
	set := region.FindMCCs(lab)
	provs := []Provider{
		&Oracle{Mesh: m},
		&MCC{Set: set},
		&Records{Set: set, CarryAlong: true},
		&Block{Regions: block.Build(m, block.BoundingBox)},
		&Labeled{Labeling: lab},
		LocalGreedy{},
	}
	for _, tc := range []struct {
		name string
		s, d grid.Point
	}{
		{"destination beyond the far corner", grid.Point{}, grid.Point{X: 9, Y: 9, Z: 9}},
		{"source below the near corner", grid.Point{X: -1}, grid.Point{X: 3, Y: 3, Z: 3}},
		{"destination one past an edge", grid.Point{X: 1, Y: 1, Z: 1}, grid.Point{X: 1, Y: 4, Z: 1}},
	} {
		for _, p := range provs {
			tr := New(m, p, nil).Route(tc.s, tc.d)
			if !errors.Is(tr.Err, ErrEndpointOutOfMesh) {
				t.Errorf("%s, provider %s: err = %v, want ErrEndpointOutOfMesh", tc.name, p.Name(), tr.Err)
			}
			if tr.Hops() != 0 {
				t.Errorf("%s, provider %s: took %d hops", tc.name, p.Name(), tr.Hops())
			}
		}
	}
}

func TestInvalidateCachesDropsStaleFields(t *testing.T) {
	m := mesh.New3D(5, 5, 5)
	s, d := grid.Point{}, grid.Point{X: 4, Y: 4, Z: 4}
	o := &Oracle{Mesh: m}
	v := grid.Point{X: 1}
	sID, vID, dID := m.ID(s), m.ID(v), m.ID(d)
	if !o.AllowedID(sID, vID, dID) {
		t.Fatal("fault-free step should be allowed")
	}
	// Wall off the destination's approach through (1,0,0) region: make every
	// neighbour of v faulty except s so no minimal path through v survives.
	m.AddFaults(grid.Point{X: 2}, grid.Point{X: 1, Y: 1}, grid.Point{X: 1, Z: 1})
	// The stale cached field still says yes until the cache is invalidated.
	o.InvalidateCache()
	if o.AllowedID(sID, vID, dID) {
		t.Error("after invalidation the oracle must see the new faults")
	}
}

func TestRouteToSelf(t *testing.T) {
	m := mesh.New2D(4, 4)
	p, _ := mccProvider(m, grid.Point{X: 1, Y: 1}, grid.Point{X: 1, Y: 1})
	tr := New(m, p, nil).Route(grid.Point{X: 1, Y: 1}, grid.Point{X: 1, Y: 1})
	if !tr.Succeeded() || tr.Hops() != 0 {
		t.Error("routing to self should trivially succeed with zero hops")
	}
}

func TestRouteFaultyEndpoint(t *testing.T) {
	m := mesh.New2D(4, 4)
	m.AddFaults(grid.Point{X: 3, Y: 3})
	p, _ := mccProvider(m, grid.Point{}, grid.Point{X: 3, Y: 3})
	tr := New(m, p, nil).Route(grid.Point{}, grid.Point{X: 3, Y: 3})
	if !errors.Is(tr.Err, ErrEndpointFaulty) {
		t.Errorf("expected ErrEndpointFaulty, got %v", tr.Err)
	}
}

// TestMCCRoutingAlwaysMinimalWhenFeasible is invariant I6: whenever the
// feasibility check passes, the MCC-information routing delivers a minimal,
// fault-free path — for every selection policy.
func TestMCCRoutingAlwaysMinimalWhenFeasible(t *testing.T) {
	r := rng.New(99)
	policies := []Policy{LargestOffsetFirst{}, DimensionOrder{}, Seeded{Seed: 77}}
	routed := 0
	for trial := 0; trial < 120; trial++ {
		var m *mesh.Mesh
		if trial%2 == 0 {
			m = meshtest.Random2D(r, 10, 5+r.Intn(20))
		} else {
			m = meshtest.Random3D(r, 7, 5+r.Intn(40))
		}
		s, d, ok := meshtest.SafePair(r, m, 4)
		if !ok {
			continue
		}
		provider, cs := mccProvider(m, s, d)
		if !feasibility.Theorem(cs, s, d) {
			continue
		}
		routed++
		for _, policy := range policies {
			provider.cache = fieldCache{} // cold cache for each policy
			tr := New(m, provider, policy).Route(s, d)
			if !tr.Succeeded() {
				t.Fatalf("trial %d policy %s: route failed despite feasibility: %v", trial, policy.Name(), tr.Err)
			}
			if !minimal.IsMinimalPath(m, m.FaultyWords(), s, d, tr.Path) {
				t.Fatalf("trial %d policy %s: path not minimal/fault-free", trial, policy.Name())
			}
		}
	}
	if routed < 30 {
		t.Fatalf("only %d feasible pairs routed; generator too restrictive", routed)
	}
}

// TestOracleNeverWorseThanMCC: the oracle succeeds exactly when the MCC model
// does (ultimacy), and both match ground-truth feasibility.
func TestOracleMatchesMCC(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 60; trial++ {
		m := meshtest.Random3D(r, 7, 10+r.Intn(40))
		s, d, ok := meshtest.SafePair(r, m, 4)
		if !ok {
			continue
		}
		provider, cs := mccProvider(m, s, d)
		feasible := feasibility.GroundTruth(cs, s, d)

		oracleTrace := New(m, &Oracle{Mesh: m}, nil).Route(s, d)
		mccTrace := New(m, provider, nil).Route(s, d)
		if oracleTrace.Succeeded() != feasible {
			t.Fatalf("trial %d: oracle success=%v, feasible=%v", trial, oracleTrace.Succeeded(), feasible)
		}
		if mccTrace.Succeeded() != feasible {
			t.Fatalf("trial %d: mcc success=%v, feasible=%v", trial, mccTrace.Succeeded(), feasible)
		}
	}
}

// TestBlockProviderNeverBeatsMCC: the RFB model's success implies the MCC
// model's success (its fault regions are supersets), never the other way
// around.
func TestBlockProviderNeverBeatsMCC(t *testing.T) {
	r := rng.New(11)
	blockWins := 0
	for trial := 0; trial < 60; trial++ {
		m := meshtest.Random3D(r, 7, 10+r.Intn(40))
		s, d, ok := meshtest.SafePair(r, m, 4)
		if !ok {
			continue
		}
		provider, cs := mccProvider(m, s, d)
		regions := block.Build(m, block.BoundingBox)
		if regions.Contains(s) || regions.Contains(d) {
			continue // the block model cannot even represent this pair
		}
		blockTrace := New(m, &Block{Regions: regions}, nil).Route(s, d)
		mccTrace := New(m, provider, nil).Route(s, d)
		_ = cs
		if blockTrace.Succeeded() && !mccTrace.Succeeded() {
			blockWins++
		}
	}
	if blockWins != 0 {
		t.Errorf("the RFB provider succeeded where the MCC provider failed in %d trials", blockWins)
	}
}

// TestLocalGreedyCanFail demonstrates why fault information matters: the
// purely local router walks into a dead end that the MCC router avoids.
func TestLocalGreedyCanFail(t *testing.T) {
	m := mesh.New2D(10, 10)
	// A concave pocket around (4,4): entering it forces a detour.
	m.AddFaults(
		grid.Point{X: 5, Y: 4}, grid.Point{X: 5, Y: 5}, grid.Point{X: 4, Y: 5},
	)
	s, d := grid.Point{X: 4, Y: 0}, grid.Point{X: 6, Y: 8}
	// Largest-offset routing climbs column 4 straight into the pocket at
	// (4,4), where both preferred neighbours are faulty.
	trGreedy := New(m, LocalGreedy{}, LargestOffsetFirst{}).Route(s, d)
	provider, _ := mccProvider(m, s, d)
	trMCC := New(m, provider, LargestOffsetFirst{}).Route(s, d)
	if !trMCC.Succeeded() {
		t.Fatalf("MCC routing should succeed: %v", trMCC.Err)
	}
	if !minimal.IsMinimalPath(m, m.FaultyWords(), s, d, trMCC.Path) {
		t.Fatal("MCC path is not minimal")
	}
	if trGreedy.Succeeded() {
		t.Fatal("local greedy routing should dead-end in the pocket")
	}
	if !errors.Is(trGreedy.Err, ErrNoCandidate) {
		t.Errorf("expected ErrNoCandidate, got %v", trGreedy.Err)
	}
}

func TestLabeledProviderAvoidsUnsafe(t *testing.T) {
	m := mesh.New2D(10, 10)
	m.AddFaults(grid.Point{X: 3, Y: 4}, grid.Point{X: 4, Y: 3})
	s, d := grid.Point{}, grid.Point{X: 8, Y: 8}
	l := labeling.Compute(m, grid.OrientationOf(s, d))
	tr := New(m, &Labeled{Labeling: l}, nil).Route(s, d)
	if !tr.Succeeded() {
		t.Fatalf("route failed: %v", tr.Err)
	}
	for _, p := range tr.Path {
		if l.Unsafe(p) {
			t.Errorf("labels-only route visited unsafe node %v", p)
		}
	}
}

func TestRecordsProviderWithFullInformation(t *testing.T) {
	// When every node holds every record, the Records provider behaves like
	// the global MCC provider.
	r := rng.New(21)
	for trial := 0; trial < 30; trial++ {
		m := meshtest.Random2D(r, 10, 5+r.Intn(18))
		s, d, ok := meshtest.SafePair(r, m, 4)
		if !ok {
			continue
		}
		l := labeling.Compute(m, grid.OrientationOf(s, d))
		cs := region.FindMCCs(l)
		if !feasibility.Theorem(cs, s, d) {
			continue
		}
		perNode := make(map[int][]int, m.NodeCount())
		all := make([]int, len(cs.Components))
		for i := range cs.Components {
			all[i] = i
		}
		for i := 0; i < m.NodeCount(); i++ {
			perNode[i] = all
		}
		rec := &Records{Set: cs, PerNode: perNode, CarryAlong: true}
		tr := New(m, rec, nil).Route(s, d)
		if !tr.Succeeded() {
			t.Fatalf("trial %d: records routing failed: %v", trial, tr.Err)
		}
		if !minimal.IsMinimalPath(m, m.FaultyWords(), s, d, tr.Path) {
			t.Fatalf("trial %d: records path not minimal", trial)
		}
	}
}

func TestTraceAccounting(t *testing.T) {
	m := mesh.New2D(6, 6)
	p, _ := mccProvider(m, grid.Point{}, grid.Point{X: 3, Y: 2})
	tr := New(m, p, nil).Route(grid.Point{}, grid.Point{X: 3, Y: 2})
	if len(tr.Candidates) != tr.Hops() {
		t.Errorf("candidate counts (%d) should match hops (%d)", len(tr.Candidates), tr.Hops())
	}
	if tr.MinAdaptivity() < 1 {
		t.Error("fault-free route should always have at least one candidate")
	}
}

func TestPolicyNames(t *testing.T) {
	for _, p := range []Policy{LargestOffsetFirst{}, DimensionOrder{}, Seeded{}} {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
	for _, pr := range []Provider{&Oracle{}, &MCC{}, &Records{}, LocalGreedy{}, &Labeled{}} {
		if pr.Name() == "" {
			t.Errorf("%T has empty name", pr)
		}
	}
}

func TestSeededPolicyDeterministic(t *testing.T) {
	p := Seeded{Seed: 5}
	dirs := []grid.Direction{grid.XPos, grid.YPos, grid.ZPos}
	a := p.Pick(grid.Point{X: 1}, grid.Point{X: 5, Y: 5, Z: 5}, dirs)
	b := p.Pick(grid.Point{X: 1}, grid.Point{X: 5, Y: 5, Z: 5}, dirs)
	if a != b {
		t.Error("seeded policy must be deterministic")
	}
	if a < 0 || a >= len(dirs) {
		t.Error("pick out of range")
	}
}

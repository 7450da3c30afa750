package region

import (
	"testing"

	"mccmesh/internal/grid"
	"mccmesh/internal/labeling"
	"mccmesh/internal/mesh"
	"mccmesh/internal/meshtest"
	"mccmesh/internal/minimal"
	"mccmesh/internal/rng"
)

func figure5Mesh() *mesh.Mesh {
	m := mesh.New3D(10, 10, 10)
	m.AddFaults(
		grid.Point{X: 5, Y: 5, Z: 6}, grid.Point{X: 6, Y: 5, Z: 5}, grid.Point{X: 5, Y: 6, Z: 5},
		grid.Point{X: 6, Y: 7, Z: 5}, grid.Point{X: 7, Y: 6, Z: 5}, grid.Point{X: 5, Y: 4, Z: 7},
		grid.Point{X: 4, Y: 5, Z: 7}, grid.Point{X: 7, Y: 8, Z: 4},
	)
	return m
}

// TestFigure5Components reproduces Figure 5(b): two MCCs, one containing only
// the isolated fault (7,8,4) and the other containing the remaining seven
// faults plus the useless node (5,5,5) and the can't-reach node (5,5,7).
func TestFigure5Components(t *testing.T) {
	m := figure5Mesh()
	l := labeling.Compute(m, grid.PositiveOrientation)
	cs := FindMCCs(l)
	if cs.Len() != 2 {
		t.Fatalf("expected 2 MCCs, got %d", cs.Len())
	}
	big := cs.Largest()
	if big.Size() != 9 {
		t.Errorf("large MCC has %d nodes, want 9 (7 faults + 2 absorbed)", big.Size())
	}
	if big.NonFaulty() != 2 {
		t.Errorf("large MCC absorbed %d healthy nodes, want 2", big.NonFaulty())
	}
	small := cs.ComponentOf(grid.Point{X: 7, Y: 8, Z: 4})
	if small == nil || small.Size() != 1 || small.FaultyCount != 1 {
		t.Errorf("isolated fault should form its own single-node MCC, got %v", small)
	}
	if !big.Has(grid.Point{X: 5, Y: 5, Z: 5}) || !big.Has(grid.Point{X: 5, Y: 5, Z: 7}) {
		t.Error("absorbed healthy nodes missing from the large MCC")
	}
	if cs.TotalNonFaulty() != 2 {
		t.Errorf("TotalNonFaulty = %d, want 2", cs.TotalNonFaulty())
	}
	if cs.TotalNodes() != 10 {
		t.Errorf("TotalNodes = %d, want 10", cs.TotalNodes())
	}
}

func TestComponentOfSafeNode(t *testing.T) {
	m := figure5Mesh()
	cs := FindMCCs(labeling.Compute(m, grid.PositiveOrientation))
	if cs.ComponentOf(grid.Point{X: 0, Y: 0, Z: 0}) != nil {
		t.Error("safe node assigned to a component")
	}
	if cs.ComponentOf(grid.Point{X: -1, Y: 0, Z: 0}) != nil {
		t.Error("out-of-bounds point assigned to a component")
	}
}

func TestFindFaultClusters(t *testing.T) {
	m := mesh.New2D(8, 8)
	m.AddFaults(grid.Point{X: 1, Y: 1}, grid.Point{X: 1, Y: 2}, grid.Point{X: 5, Y: 5})
	cs := FindFaultClusters(m)
	if cs.Len() != 2 {
		t.Fatalf("expected 2 fault clusters, got %d", cs.Len())
	}
	if cs.TotalNonFaulty() != 0 {
		t.Error("fault clusters contain only faulty nodes")
	}
}

// TestComponentsPartitionUnsafeNodes checks that the components exactly cover
// the unsafe nodes, are disjoint and are link-connected.
func TestComponentsPartitionUnsafeNodes(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 20; trial++ {
		m := meshtest.Random3D(r, 8, 5+r.Intn(40))
		l := labeling.Compute(m, grid.PositiveOrientation)
		cs := FindMCCs(l)
		covered := make(map[grid.Point]int)
		for _, c := range cs.Components {
			for _, p := range c.Nodes {
				if !l.Unsafe(p) {
					t.Fatalf("component contains safe node %v", p)
				}
				if prev, dup := covered[p]; dup {
					t.Fatalf("node %v in two components (%d and %d)", p, prev, c.ID)
				}
				covered[p] = c.ID
			}
			if !componentConnected(m, c) {
				t.Fatalf("component %d is not link-connected", c.ID)
			}
		}
		if len(covered) != l.UnsafeCount() {
			t.Fatalf("components cover %d nodes, labelling has %d unsafe", len(covered), l.UnsafeCount())
		}
	}
}

func componentConnected(m *mesh.Mesh, c *Component) bool {
	if len(c.Nodes) == 0 {
		return true
	}
	visited := map[grid.Point]bool{c.Nodes[0]: true}
	stack := []grid.Point{c.Nodes[0]}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range c.Nodes {
			if !visited[q] && Adjacent(p, q) {
				visited[q] = true
				stack = append(stack, q)
			}
		}
	}
	return len(visited) == len(c.Nodes)
}

// TestBlockingUltimacy is the central correctness property of the MCC model
// (I3): for safe endpoints, the union of the fault regions blocks a pair iff
// the faulty nodes alone block it — absorbing useless/can't-reach nodes never
// destroys a feasible minimal path. It also checks that single-MCC blocking is
// a sound (if incomplete) explanation: whenever one MCC blocks, the union
// blocks too.
func TestBlockingUltimacy(t *testing.T) {
	r := rng.New(2025)
	checked := 0
	for trial := 0; trial < 120; trial++ {
		var m *mesh.Mesh
		if trial%2 == 0 {
			m = meshtest.Random2D(r, 11, 6+r.Intn(24))
		} else {
			m = meshtest.Random3D(r, 7, 6+r.Intn(40))
		}
		s, d, ok := meshtest.SafePair(r, m, 4)
		if !ok {
			continue
		}
		checked++
		l := labeling.Compute(m, grid.OrientationOf(s, d))
		cs := FindMCCs(l)

		byAny := cs.BlockedByAny(s, d)
		byUnion := cs.BlockedByUnion(s, d)
		byFaults := !minimal.Exists(m, m.FaultyWords(), s, d)

		if byAny && !byUnion {
			t.Fatalf("trial %d: a single MCC blocks %v->%v but the union does not", trial, s, d)
		}
		if byUnion != byFaults {
			t.Fatalf("trial %d: unsafe-union blocking (%v) != fault blocking (%v) for %v->%v (ultimacy violated)",
				trial, byUnion, byFaults, s, d)
		}
	}
	if checked < 40 {
		t.Fatalf("only %d random pairs were checked; the generator is too restrictive", checked)
	}
}

func TestBlockedEndpointsInsideComponent(t *testing.T) {
	m := figure5Mesh()
	cs := FindMCCs(labeling.Compute(m, grid.PositiveOrientation))
	big := cs.Largest()
	inside := grid.Point{X: 5, Y: 5, Z: 5}
	if !cs.Blocked(big, inside, grid.Point{X: 9, Y: 9, Z: 9}) {
		t.Error("a source inside the component is always blocked")
	}
	if !cs.Blocked(big, grid.Point{}, inside) {
		t.Error("a destination inside the component is always blocked")
	}
}

func TestBlockedFarComponentFastPath(t *testing.T) {
	m := mesh.New2D(20, 20)
	m.AddFaults(grid.Point{X: 15, Y: 15}, grid.Point{X: 15, Y: 16})
	cs := FindMCCs(labeling.Compute(m, grid.PositiveOrientation))
	c := cs.Components[0]
	if cs.Blocked(c, grid.Point{}, grid.Point{X: 3, Y: 3}) {
		t.Error("a component outside the routing box can never block")
	}
}

func TestEdgeNodesSurroundComponent(t *testing.T) {
	m := mesh.New2D(10, 10)
	m.AddFaults(grid.Point{X: 4, Y: 4}, grid.Point{X: 5, Y: 4})
	cs := FindMCCs(labeling.Compute(m, grid.PositiveOrientation))
	c := cs.Components[0]
	edges := cs.EdgeNodes(c)
	// A 2x1 block has 2*2 + 2*1 + ... its perimeter ring of safe nodes sharing
	// a link: left, right, and top/bottom rows = 2 + 2*2 = wait: nodes adjacent
	// via links: (3,4),(6,4),(4,3),(5,3),(4,5),(5,5) = 6.
	if len(edges) != 6 {
		t.Errorf("edge nodes = %d, want 6", len(edges))
	}
	for _, e := range edges {
		if c.Has(e) {
			t.Errorf("edge node %v belongs to the component", e)
		}
	}
}

func TestCorners2DRectangle(t *testing.T) {
	m := mesh.New2D(10, 10)
	m.AddFaults(
		grid.Point{X: 4, Y: 4}, grid.Point{X: 5, Y: 4},
		grid.Point{X: 4, Y: 5}, grid.Point{X: 5, Y: 5},
	)
	cs := FindMCCs(labeling.Compute(m, grid.PositiveOrientation))
	c := cs.Components[0]
	corners := cs.Corners2D(c)
	if !corners.Found {
		t.Fatal("corners should exist for an interior rectangle")
	}
	if corners.Initialization != (grid.Point{X: 3, Y: 3}) {
		t.Errorf("initialization corner = %v, want (3,3)", corners.Initialization)
	}
	if corners.Opposite != (grid.Point{X: 6, Y: 6}) {
		t.Errorf("opposite corner = %v, want (6,6)", corners.Opposite)
	}
}

func TestCorners2DOrientationDependence(t *testing.T) {
	m := mesh.New2D(10, 10)
	m.AddFaults(grid.Point{X: 4, Y: 4}, grid.Point{X: 5, Y: 4})
	l := labeling.Compute(m, grid.Orientation{SX: -1, SY: -1, SZ: 1})
	cs := FindMCCs(l)
	corners := cs.Corners2D(cs.Components[0])
	if !corners.Found {
		t.Fatal("corners should exist")
	}
	// With the reversed orientation the initialization corner sits on the
	// other diagonal.
	if corners.Initialization != (grid.Point{X: 6, Y: 5}) {
		t.Errorf("initialization corner = %v, want (6,5)", corners.Initialization)
	}
	if corners.Opposite != (grid.Point{X: 3, Y: 3}) {
		t.Errorf("opposite corner = %v, want (3,3)", corners.Opposite)
	}
}

func TestPerimeterRingVisitsAllEdges(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 20; trial++ {
		m := meshtest.Random2D(r, 10, 4+r.Intn(12))
		cs := FindMCCs(labeling.Compute(m, grid.PositiveOrientation))
		for _, c := range cs.Components {
			edges := cs.EdgeNodes(c)
			ring := cs.PerimeterRing(c, grid.Point{X: -1, Y: -1})
			if len(ring) != len(edges) {
				t.Fatalf("ring visits %d nodes, expected %d", len(ring), len(edges))
			}
			seen := make(map[grid.Point]bool)
			for _, p := range ring {
				if seen[p] {
					t.Fatalf("ring visits %v twice", p)
				}
				seen[p] = true
			}
		}
	}
}

func TestSections3DFigure5(t *testing.T) {
	m := figure5Mesh()
	cs := FindMCCs(labeling.Compute(m, grid.PositiveOrientation))
	big := cs.Largest()

	xy := cs.Sections(big, PlaneXY)
	// Levels present: z=5 (5 unsafe nodes), z=6 (1), z=7 (3).
	byLevel := map[int]int{}
	for _, s := range xy {
		byLevel[s.Level] += s.Size()
	}
	if byLevel[5] != 5 || byLevel[6] != 1 || byLevel[7] != 3 {
		t.Errorf("XY section sizes by level = %v, want 5/1/3 at z=5/6/7", byLevel)
	}
	for _, s := range xy {
		if s.Plane != PlaneXY || s.Component != big {
			t.Error("section metadata wrong")
		}
		for _, p := range s.Nodes {
			if p.Z != s.Level {
				t.Errorf("node %v not on level %d", p, s.Level)
			}
			if !big.Has(p) {
				t.Errorf("section node %v not in component", p)
			}
		}
	}

	yz := cs.Sections(big, PlaneYZ)
	if len(yz) == 0 {
		t.Fatal("no YZ sections found")
	}
	xz := cs.Sections(big, PlaneXZ)
	if len(xz) == 0 {
		t.Fatal("no XZ sections found")
	}
}

func TestSectionCornerAndEdges(t *testing.T) {
	m := figure5Mesh()
	cs := FindMCCs(labeling.Compute(m, grid.PositiveOrientation))
	big := cs.Largest()

	// At z=5 the component forms a single XY section of five nodes with a hole
	// at (6,6,5), exactly as drawn in Figure 5(b).
	xySections := cs.Sections(big, PlaneXY)
	var z5 *Section
	z5Count := 0
	for _, s := range xySections {
		if s.Level == 5 {
			z5Count++
			z5 = s
		}
	}
	if z5Count != 1 {
		t.Fatalf("z=5 splits into %d XY sections, want 1", z5Count)
	}
	if z5.Size() != 5 {
		t.Fatalf("z=5 section has %d nodes, want 5", z5.Size())
	}
	if z5.Has(grid.Point{X: 6, Y: 6, Z: 5}) {
		t.Error("the hole (6,6,5) must not be part of the section")
	}
	corner := cs.SectionCorner(z5, CornerKind{Major: grid.AxisY, Minor: grid.AxisX})
	if corner != (grid.Point{X: 6, Y: 7, Z: 5}) {
		t.Errorf("(+Y-X)-corner of the z=5 section = %v, want (6,7,5)", corner)
	}
	corner = cs.SectionCorner(z5, CornerKind{Major: grid.AxisX, Minor: grid.AxisY})
	if corner != (grid.Point{X: 7, Y: 6, Z: 5}) {
		t.Errorf("(+X-Y)-corner of the z=5 section = %v, want (7,6,5)", corner)
	}
	// The z=7 section is the connected trio {(5,4),(4,5),(5,5)}; its
	// (+Y-X)-corner is (4,5,7).
	var z7 *Section
	for _, s := range xySections {
		if s.Level == 7 {
			z7 = s
		}
	}
	if z7 == nil || z7.Size() != 3 {
		t.Fatalf("missing the 3-node section at z=7")
	}
	if got := cs.SectionCorner(z7, CornerKind{Major: grid.AxisY, Minor: grid.AxisX}); got != (grid.Point{X: 4, Y: 5, Z: 7}) {
		t.Errorf("(+Y-X)-corner of the z=7 section = %v, want (4,5,7)", got)
	}

	edges := cs.Edges(big)
	if len(edges) != 6 {
		t.Fatalf("expected 6 edges, got %d", len(edges))
	}
	for _, e := range edges {
		if len(e.Nodes) == 0 {
			t.Errorf("edge %v has no nodes", e.Kind)
		}
		for _, p := range e.Nodes {
			if !big.Has(p) {
				t.Errorf("edge node %v not in component", p)
			}
		}
	}
}

func TestPlaneHelpers(t *testing.T) {
	if PlaneXY.FixedAxis() != grid.AxisZ || PlaneYZ.FixedAxis() != grid.AxisX || PlaneXZ.FixedAxis() != grid.AxisY {
		t.Error("FixedAxis wrong")
	}
	for _, k := range CornerKinds {
		p := PlaneForCorner(k)
		a1, a2 := p.Axes()
		ok := func(a grid.Axis) bool { return a == a1 || a == a2 }
		if !ok(k.Major) || !ok(k.Minor) {
			t.Errorf("corner kind %v mapped to plane %v missing its axes", k, p)
		}
	}
}

package mesh

import (
	"testing"
	"testing/quick"

	"mccmesh/internal/grid"
)

func TestDims(t *testing.T) {
	d := Dims{4, 5, 6}
	if d.Nodes() != 120 {
		t.Errorf("Nodes = %d", d.Nodes())
	}
	if d.Is2D() {
		t.Error("3-D dims reported as 2-D")
	}
	if !(Dims{4, 5, 1}).Is2D() {
		t.Error("2-D dims not recognised")
	}
	if (Dims{0, 1, 1}).Valid() {
		t.Error("zero extent should be invalid")
	}
}

func TestIndexPointRoundTrip(t *testing.T) {
	m := New3D(4, 5, 6)
	for i := 0; i < m.NodeCount(); i++ {
		p := m.Point(i)
		if m.Index(p) != i {
			t.Fatalf("round trip failed at %d -> %v", i, p)
		}
		if !m.InBounds(p) {
			t.Fatalf("point %v out of bounds", p)
		}
	}
}

func TestInBounds(t *testing.T) {
	m := New3D(3, 3, 3)
	if m.InBounds(grid.Point{X: 3, Y: 0, Z: 0}) || m.InBounds(grid.Point{X: -1, Y: 0, Z: 0}) {
		t.Error("out-of-range point reported in bounds")
	}
	if !m.InBounds(grid.Point{X: 2, Y: 2, Z: 2}) {
		t.Error("corner reported out of bounds")
	}
}

func TestFaults(t *testing.T) {
	m := New2D(5, 5)
	p := grid.Point{X: 2, Y: 3}
	m.SetFaulty(p, true)
	if !m.IsFaulty(p) || m.FaultCount() != 1 {
		t.Error("fault not recorded")
	}
	m.SetFaulty(p, true) // idempotent
	if m.FaultCount() != 1 {
		t.Error("duplicate fault changed the count")
	}
	m.SetFaulty(p, false)
	if m.IsFaulty(p) || m.FaultCount() != 0 {
		t.Error("fault not cleared")
	}
	m.AddFaults(grid.Point{X: 1, Y: 1}, grid.Point{X: 2, Y: 2})
	if len(m.Faults()) != 2 {
		t.Error("Faults() wrong")
	}
	m.ClearFaults()
	if m.FaultCount() != 0 {
		t.Error("ClearFaults failed")
	}
}

func TestIsFaultyOutOfBounds(t *testing.T) {
	m := New2D(3, 3)
	if m.IsFaulty(grid.Point{X: -1, Y: 0}) {
		t.Error("out-of-bounds nodes are not faulty")
	}
	if m.IsHealthy(grid.Point{X: -1, Y: 0}) {
		t.Error("out-of-bounds nodes are not healthy either")
	}
}

func TestNeighbors(t *testing.T) {
	m := New3D(3, 3, 3)
	center := grid.Point{X: 1, Y: 1, Z: 1}
	if got := len(m.Neighbors(nil, center)); got != 6 {
		t.Errorf("interior degree = %d, want 6", got)
	}
	corner := grid.Point{X: 0, Y: 0, Z: 0}
	if got := len(m.Neighbors(nil, corner)); got != 3 {
		t.Errorf("corner degree = %d, want 3", got)
	}
	if m.Degree(corner) != 3 {
		t.Error("Degree disagrees with Neighbors")
	}

	m2 := New2D(3, 3)
	if got := len(m2.Neighbors(nil, grid.Point{X: 1, Y: 1})); got != 4 {
		t.Errorf("2-D interior degree = %d, want 4", got)
	}
}

func TestNeighborDirection(t *testing.T) {
	m := New2D(3, 3)
	if _, ok := m.Neighbor(grid.Point{X: 0, Y: 0}, grid.XNeg); ok {
		t.Error("neighbour off the mesh reported present")
	}
	q, ok := m.Neighbor(grid.Point{X: 0, Y: 0}, grid.XPos)
	if !ok || q != (grid.Point{X: 1, Y: 0}) {
		t.Error("+X neighbour wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New2D(4, 4)
	m.SetFaulty(grid.Point{X: 1, Y: 1}, true)
	c := m.Clone()
	c.SetFaulty(grid.Point{X: 2, Y: 2}, true)
	if m.FaultCount() != 1 || c.FaultCount() != 2 {
		t.Error("clone is not independent")
	}
}

func TestDiameter(t *testing.T) {
	if New3D(8, 8, 8).Diameter() != 21 {
		t.Error("3-D diameter wrong")
	}
	if New2D(8, 8).Diameter() != 14 {
		t.Error("2-D diameter wrong")
	}
}

func TestHealthyNodes(t *testing.T) {
	m := New2D(3, 3)
	m.SetFaulty(grid.Point{X: 0, Y: 0}, true)
	if got := len(m.HealthyNodes()); got != 8 {
		t.Errorf("HealthyNodes = %d, want 8", got)
	}
}

func TestNeighborsAreAtDistanceOne(t *testing.T) {
	m := New3D(5, 4, 3)
	f := func(xi, yi, zi uint8) bool {
		p := grid.Point{X: int(xi) % 5, Y: int(yi) % 4, Z: int(zi) % 3}
		for _, q := range m.Neighbors(nil, p) {
			if grid.Manhattan(p, q) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAxesDirections(t *testing.T) {
	if len(New2D(3, 3).Axes()) != 2 || len(New3D(3, 3, 3).Axes()) != 3 {
		t.Error("Axes wrong")
	}
	if len(New2D(3, 3).Directions()) != 4 || len(New3D(3, 3, 3).Directions()) != 6 {
		t.Error("Directions wrong")
	}
}

// TestNeighborTableMatchesGeometry checks NeighborID (stride plus border
// mask) and Degree against grid.Step on every node and direction of every
// mesh with extents 1, 2 and 3 on each axis, in 2-D and in 3-D: each extent
// puts a node on both borders of an axis, on one, or on neither.
func TestNeighborTableMatchesGeometry(t *testing.T) {
	var meshes []*Mesh
	for x := 1; x <= 3; x++ {
		for y := 1; y <= 3; y++ {
			meshes = append(meshes, New2D(x, y))
			for z := 1; z <= 3; z++ {
				meshes = append(meshes, New3D(x, y, z))
			}
		}
	}
	for _, m := range meshes {
		for i := 0; i < m.NodeCount(); i++ {
			p := m.Point(i)
			if got := m.ID(p); got != int32(i) {
				t.Fatalf("%v: ID(%v) = %d, want %d", m.Dims(), p, got, i)
			}
			degree := 0
			for _, d := range grid.Directions3D {
				q := grid.Step(p, d)
				want := NoNeighbor
				if m.InBounds(q) {
					want = int32(m.Index(q))
					degree++
				}
				if got := m.NeighborID(int32(i), d); got != want {
					t.Errorf("%v: NeighborID(%v, %v) = %d, want %d", m.Dims(), p, d, got, want)
				}
			}
			if got := m.Degree(p); got != degree {
				t.Errorf("%v: Degree(%v) = %d, want %d", m.Dims(), p, got, degree)
			}
		}
		if m.ID(grid.Point{X: -1}) != NoNeighbor {
			t.Error("ID of an out-of-bounds point must be NoNeighbor")
		}
	}
}

func TestFaultBitset(t *testing.T) {
	m := New3D(5, 5, 5) // 125 nodes spans two bitset words
	pts := []grid.Point{{}, {X: 4, Y: 4, Z: 4}, {X: 2, Y: 3, Z: 1}, {X: 0, Y: 0, Z: 3}}
	m.AddFaults(pts...)
	if m.FaultCount() != len(pts) {
		t.Fatalf("FaultCount = %d, want %d", m.FaultCount(), len(pts))
	}
	for _, p := range pts {
		if !m.IsFaulty(p) || !m.FaultyAt(m.Index(p)) {
			t.Errorf("%v should be faulty", p)
		}
	}
	// Double-set must not double-count.
	m.SetFaulty(pts[0], true)
	if m.FaultCount() != len(pts) {
		t.Errorf("idempotent SetFaulty changed the count to %d", m.FaultCount())
	}
	c := m.Clone()
	m.SetFaulty(pts[1], false)
	if m.FaultCount() != len(pts)-1 || !c.IsFaulty(pts[1]) {
		t.Error("Clone must not share fault state")
	}
	m.ClearFaults()
	if m.FaultCount() != 0 || m.IsFaulty(pts[2]) {
		t.Error("ClearFaults left residue")
	}
}

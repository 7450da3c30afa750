package minimal

import (
	"fmt"
	"testing"

	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/rng"
)

// mapReachability is the pre-refactor reference: the same monotone sweep
// computed into a map[grid.Point]bool, one node at a time with Point
// arithmetic everywhere. The bitset Field must agree with it cell for cell.
func mapReachability(m *mesh.Mesh, avoid []uint64, s, d grid.Point) map[grid.Point]bool {
	orient := grid.OrientationOf(s, d)
	reach := make(map[grid.Point]bool)
	axes := m.Axes()
	dc := orient.Canon(s, d)
	for cz := dc.Z; cz >= 0; cz-- {
		for cy := dc.Y; cy >= 0; cy-- {
			for cx := dc.X; cx >= 0; cx-- {
				c := grid.Point{X: cx, Y: cy, Z: cz}
				p := orient.Uncanon(s, c)
				if has(avoid, m.ID(p)) {
					continue
				}
				if p == d {
					reach[p] = true
					continue
				}
				for _, a := range axes {
					if c.Axis(a) >= dc.Axis(a) {
						continue
					}
					if reach[orient.Ahead(p, a)] {
						reach[p] = true
						break
					}
				}
			}
		}
	}
	return reach
}

// checkMapReference compares f, built toward d from s over avoid, with the
// map reference on every node of m, through CanReach and (inside the box)
// CanReachCovered.
func checkMapReference(t testing.TB, name string, m *mesh.Mesh, avoid []uint64, f *Field, s, d grid.Point) {
	t.Helper()
	want := mapReachability(m, avoid, s, d)
	box := grid.BoxOf(s, d)
	m.ForEach(func(p grid.Point) {
		got := f.CanReach(p)
		if got != want[p] {
			t.Fatalf("%s on %v: CanReach(%v) = %v, map reference %v (s=%v d=%v)", name, m.Dims(), p, got, want[p], s, d)
		}
		if box.Contains(p) && f.CanReachCovered(p) != got {
			t.Fatalf("%s on %v: CanReachCovered(%v) disagrees with CanReach (s=%v d=%v)", name, m.Dims(), p, s, d)
		}
	})
	// Points outside the box report false.
	if f.CanReach(grid.Point{X: -1}) {
		t.Fatalf("%s on %v: out-of-box point reported reachable", name, m.Dims())
	}
}

// TestFieldMatchesMapReference pins the row sweep, in a fresh field and in
// one field reused across every build, to the map-backed reference on
// randomized fault sets with golden seeds: 2-D and 3-D meshes, boxes flat on
// an axis, and boxes wider than 64 nodes, which the sweep cuts into strips.
// The wide meshes get sparser faults so that reachable runs cross the strip
// edges.
func TestFieldMatchesMapReference(t *testing.T) {
	shapes := []struct {
		mk      func() *mesh.Mesh
		density int // one fault per density nodes
	}{
		{func() *mesh.Mesh { return mesh.New2D(9, 7) }, 10},
		{func() *mesh.Mesh { return mesh.NewCube(6) }, 10},
		{func() *mesh.Mesh { return mesh.New3D(70, 3, 3) }, 40},
		{func() *mesh.Mesh { return mesh.New2D(130, 6) }, 40},
	}
	for _, shape := range shapes {
		for _, seed := range []uint64{3, 17, 55} {
			m := shape.mk()
			r := rng.New(seed)
			n := m.NodeCount()
			for i := 0; i < n/shape.density; i++ {
				m.SetFaulty(m.Point(r.Intn(n)), true)
			}
			avoid := m.FaultyWords()
			var reused *Field
			for trial := 0; trial < 24; trial++ {
				s, d := m.Point(r.Intn(n)), m.Point(r.Intn(n))
				if w := m.Dims().X; w > 64 && trial%2 == 0 {
					// Span (nearly) the whole width, in either direction.
					s.X, d.X = r.Intn(3), w-1-r.Intn(3)
					if r.Intn(2) == 0 {
						s.X, d.X = d.X, s.X
					}
				}
				switch trial % 4 {
				case 1:
					s.Y = d.Y
				case 2:
					s.Y, s.Z = d.Y, d.Z
				}
				name := fmt.Sprintf("seed=%d trial=%d", seed, trial)
				checkMapReference(t, name+" fresh", m, avoid, ReachabilityWordsInto(nil, m, avoid, s, d), s, d)
				reused = ReachabilityWordsInto(reused, m, avoid, s, d)
				checkMapReference(t, name+" reused", m, avoid, reused, s, d)
			}
		}
	}
}

package minimal

// AppendBlocked is what the routing providers keep of a field: it must list
// exactly the free nodes of the box the field says cannot reach d, in
// ascending ID order.

import (
	"slices"
	"testing"

	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/rng"
)

// FuzzBlockedMatchesField builds the field toward a random d over one closed
// octant of d (the box from d to a mesh corner) on random 2-D and 3-D meshes
// of up to 8³ nodes and random obstacle sets, and checks AppendBlocked
// against {v in the box : v free ∧ ¬CanReach(v)} in ascending order. The
// shape bits put d on the mesh border (bit 0), flatten the box on an axis
// (bit 1), put d inside the obstacle set (bit 2) and drop the obstacle set
// altogether (bit 3, a nil avoid).
func FuzzBlockedMatchesField(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(8), uint8(8), uint8(0), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, nx, ny, nz, octant, density, shape uint8) {
		m := mesh.New3D(1+int(nx)%8, 1+int(ny)%8, 1+int(nz)%8)
		dims, n := m.Dims(), m.NodeCount()
		r := rng.New(seed)
		var avoid []uint64
		if shape&8 == 0 {
			avoid = make([]uint64, (n+63)/64)
			for i := 0; i < n/(2+int(density)%8); i++ {
				id := r.Intn(n)
				avoid[id>>6] |= 1 << uint(id&63)
			}
		}
		d := m.Point(r.Intn(n))
		if shape&1 != 0 {
			d.X = (dims.X - 1) * r.Intn(2)
		}
		if dID := m.ID(d); shape&4 != 0 && avoid != nil {
			avoid[dID>>6] |= 1 << uint(dID&63)
		}
		corner := grid.Point{
			X: (dims.X - 1) * int(octant&1),
			Y: (dims.Y - 1) * int(octant>>1&1),
			Z: (dims.Z - 1) * int(octant>>2&1),
		}
		if shape&2 != 0 {
			corner.Y = d.Y
		}
		fld := ReachabilityWordsInto(nil, m, avoid, corner, d)
		box := grid.BoxOf(corner, d)
		var want []int32
		for id := 0; id < n; id++ {
			if p := m.Point(id); box.Contains(p) && !has(avoid, int32(id)) && !fld.CanReach(p) {
				want = append(want, int32(id))
			}
		}
		if got := fld.AppendBlocked(nil, avoid); !slices.Equal(got, want) {
			t.Fatalf("%v, d=%v, corner=%v: AppendBlocked = %v, want %v", dims, d, corner, got, want)
		}
	})
}

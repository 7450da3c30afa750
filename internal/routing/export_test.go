package routing

import (
	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/minimal"
)

// DropField clears d's entry in p, its built octants and its list: the next
// lookup toward d sweeps an octant as a cold build.
func DropField(p *FieldProvider, d int32) {
	c := &p.cache
	c.free(&c.slots[d])
	c.heads[d] = 0
}

// ReferenceMask is the hop decision from first principles, the reference
// CandidateMaskID is checked against. For each forward neighbour v of u
// toward d, the bit of v's direction is set when v is d or outside avoid and,
// with reach, a monotone v→d path avoids every node of avoid
// (minimal.Exists). The field providers take reach over their obstacle set:
// the faults (oracle), the MCC union (mcc), or the block union with d carved
// out (CarveOut; rfb, fb-rule). Without reach it is the labels-only rule over
// the unsafe set and the local-greedy rule over the faults, for a healthy d.
func ReferenceMask(m *mesh.Mesh, avoid []uint64, reach bool, u, d int32) uint8 {
	uPt, dPt := m.Point(int(u)), m.Point(int(d))
	var mk uint8
	for _, a := range m.Axes() {
		delta := dPt.Axis(a) - uPt.Axis(a)
		if delta == 0 {
			continue
		}
		dir := grid.DirectionOf(a, grid.Sign(delta))
		v := m.NeighborID(u, dir)
		if v == mesh.NoNeighbor {
			continue
		}
		free := v == d || avoid == nil || avoid[v>>6]>>(v&63)&1 == 0
		if free && (!reach || minimal.Exists(m, avoid, m.Point(int(v)), dPt)) {
			mk |= 1 << uint(dir)
		}
	}
	return mk
}

// CarveOut returns avoid with d's bit cleared, in a copy: the block
// baselines' obstacle set for fields toward d.
func CarveOut(avoid []uint64, d int32) []uint64 {
	w := append([]uint64(nil), avoid...)
	w[d>>6] &^= 1 << uint(d&63)
	return w
}

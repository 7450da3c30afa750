package minimal_test

// Benchmarks for the reachability-field sweep, the kernel under every
// field-backed routing provider. The corner-to-corner 16^3 case is the
// worst-case box of the PERFORMANCE.md reference mesh. The 32^3 case is the
// octant build the routing providers run after a fault change reaches it.

import (
	"slices"
	"testing"

	"mccmesh/internal/fault"
	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/minimal"
	"mccmesh/internal/rng"
)

func benchMesh() (*mesh.Mesh, grid.Point, grid.Point) {
	m := mesh.NewCube(16)
	fault.Uniform{
		Count:     120,
		Protected: []grid.Point{{X: 0, Y: 0, Z: 0}, {X: 15, Y: 15, Z: 15}},
	}.Inject(m, rng.New(7))
	return m, grid.Point{X: 0, Y: 0, Z: 0}, grid.Point{X: 15, Y: 15, Z: 15}
}

// BenchmarkReachability16 rebuilds the corner-to-corner field of the 16^3
// reference mesh in place, as the routing caches rebuild a field: one row
// sweep, zero allocations.
func BenchmarkReachability16(b *testing.B) {
	m, s, d := benchMesh()
	f := minimal.ReachabilityWordsInto(nil, m, m.FaultyWords(), s, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		minimal.ReachabilityWordsInto(f, m, m.FaultyWords(), s, d)
	}
}

// fieldChurn32 is a 32^3 mesh with 5% random obstacles, the octant field
// toward its centre from the origin corner, and 64 seeded 3-node regions
// inside that box: the fault events the field-build benchmark replays. The
// centre and its neighbours are kept free of the random obstacles, so the
// field is live — most of the box reaches the centre — as every field a
// routing provider builds is (a provider answers an obstacle destination
// without a build).
type fieldChurn32 struct {
	m       *mesh.Mesh
	avoid   []uint64
	s, d    grid.Point
	regions [64][3]grid.Point
}

func newFieldChurn32() *fieldChurn32 {
	fc := &fieldChurn32{m: mesh.NewCube(32), s: grid.Point{}, d: grid.Point{X: 16, Y: 16, Z: 16}}
	fc.avoid = make([]uint64, (fc.m.NodeCount()+63)/64)
	free := []int32{fc.m.ID(fc.d)}
	for _, dir := range grid.Directions3D {
		free = append(free, fc.m.NeighborID(free[0], dir))
	}
	r := rng.New(11)
	for i := 0; i < fc.m.NodeCount()/20; i++ {
		if id := int32(r.Intn(fc.m.NodeCount())); !slices.Contains(free, id) {
			fc.avoid[id>>6] |= 1 << uint(id&63)
		}
	}
	for i := range fc.regions {
		p := grid.Point{X: r.Intn(16), Y: r.Intn(16), Z: r.Intn(16)}
		fc.regions[i] = [3]grid.Point{p, {X: p.X + 1, Y: p.Y, Z: p.Z}, {X: p.X + 1, Y: p.Y + 1, Z: p.Z}}
	}
	return fc
}

// flip toggles region i's obstacles, failing or repairing it.
func (fc *fieldChurn32) flip(i int) {
	for _, p := range fc.regions[i&63] {
		id := fc.m.ID(p)
		fc.avoid[id>>6] ^= 1 << uint(id&63)
	}
}

// BenchmarkFieldBuild32 brings a 32^3 octant field up to date after each
// 3-node region fault by a full rebuild in place: the sweep a routing
// provider runs per octant a fault change reaches.
func BenchmarkFieldBuild32(b *testing.B) {
	fc := newFieldChurn32()
	f := minimal.ReachabilityWordsInto(nil, fc.m, fc.avoid, fc.s, fc.d)
	box := grid.BoxOf(fc.s, fc.d).Volume()
	if blocked := len(f.AppendBlocked(nil, fc.avoid)); blocked*50 > box {
		b.Fatalf("%d of the box's %d nodes are free but cannot reach %v: the field is not live", blocked, box, fc.d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fc.flip(i)
		minimal.ReachabilityWordsInto(f, fc.m, fc.avoid, fc.s, fc.d)
	}
}

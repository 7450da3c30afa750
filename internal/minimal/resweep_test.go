package minimal

// Parity of the partial re-sweep the routing field caches run after a fault
// change: Resweep over the rows CutOf names must leave the field bit for bit
// equal to a full ReachabilityWordsInto over the changed obstacles.

import (
	"testing"

	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/rng"
)

// resweepCase builds the field s → d over avoid, flips the given node IDs in
// avoid, brings the field up to date with Resweep — once with the cut of the
// flips' bounding box, once with the per-flip cuts merged by max, as the
// caches merge pending cuts across fault events — and compares both with a
// fresh build.
func resweepCase(t testing.TB, m *mesh.Mesh, avoid []uint64, s, d grid.Point, flips []int) {
	t.Helper()
	byBox := ReachabilityWordsInto(nil, m, avoid, s, d)
	byMerge := ReachabilityWordsInto(nil, m, avoid, s, d)
	live := append([]uint64(nil), avoid...)
	changed := grid.Box{Min: grid.Point{X: 1}} // empty
	merged, reached := Cut{Y: -1, Z: -1}, false
	for _, id := range flips {
		live[id>>6] ^= 1 << uint(id&63)
		p := m.Point(id)
		changed = changed.Extend(p)
		if c, ok := byMerge.CutOf(grid.Box{Min: p, Max: p}); ok {
			merged, reached = Cut{Y: max(merged.Y, c.Y), Z: max(merged.Z, c.Z)}, true
		}
	}
	want := ReachabilityWordsInto(nil, m, live, s, d).BitWords()
	check := func(name string, f *Field, cut Cut, ok bool) {
		if ok {
			f.Resweep(live, cut)
		}
		got := f.BitWords()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v → %v on %v, flips %v, %s %+v (reached %v): word %d = %#x, full build %#x",
					s, d, m.Dims(), flips, name, cut, ok, i, got[i], want[i])
			}
		}
	}
	boxCut, boxOK := byBox.CutOf(changed)
	check("bounding-box cut", byBox, boxCut, boxOK)
	check("merged cut", byMerge, merged, reached)
}

// randomCase draws obstacles, endpoints and 1–4 flips on m. Flips land inside
// the box of s and d or anywhere in the mesh, at random; flat boxes come from
// endpoints sharing a coordinate.
func randomCase(r *rng.Rand, m *mesh.Mesh) ([]uint64, grid.Point, grid.Point, []int) {
	n := m.NodeCount()
	avoid := make([]uint64, (n+63)/64)
	for i := 0; i < n/8; i++ {
		id := r.Intn(n)
		avoid[id>>6] |= 1 << uint(id&63)
	}
	s, d := m.Point(r.Intn(n)), m.Point(r.Intn(n))
	if r.Intn(3) == 0 {
		s.Y = d.Y
	}
	if r.Intn(3) == 0 {
		s.Z = d.Z
	}
	box := grid.BoxOf(s, d)
	flips := make([]int, 1+r.Intn(4))
	for i := range flips {
		if r.Intn(2) == 0 {
			flips[i] = r.Intn(n)
			continue
		}
		p := grid.Point{
			X: box.Min.X + r.Intn(box.Max.X-box.Min.X+1),
			Y: box.Min.Y + r.Intn(box.Max.Y-box.Min.Y+1),
			Z: box.Min.Z + r.Intn(box.Max.Z-box.Min.Z+1),
		}
		flips[i] = int(m.ID(p))
	}
	return avoid, s, d, flips
}

// TestResweepMatchesFullBuild covers 3-D and 2-D meshes, boxes flat on an
// axis, flips inside and outside the box, and boxes wider than 64 nodes,
// which the sweep cuts into strips.
func TestResweepMatchesFullBuild(t *testing.T) {
	r := rng.New(20050507)
	for trial := 0; trial < 400; trial++ {
		var m *mesh.Mesh
		if trial%4 == 0 {
			m = mesh.New2D(2+r.Intn(12), 2+r.Intn(12))
		} else {
			m = mesh.New3D(1+r.Intn(10), 1+r.Intn(10), 1+r.Intn(10))
		}
		avoid, s, d, flips := randomCase(r, m)
		resweepCase(t, m, avoid, s, d, flips)
	}

	// A 70-wide box spans two strips; a flip in the strip nearest d changes
	// the far one only through the strip edge. Obstacles are sparse so that
	// reachable runs cross that edge.
	m := mesh.New3D(70, 2, 2)
	n := m.NodeCount()
	for trial := 0; trial < 40; trial++ {
		avoid := make([]uint64, (n+63)/64)
		for i := 0; i < n/40; i++ {
			id := r.Intn(n)
			avoid[id>>6] |= 1 << uint(id&63)
		}
		s, d := grid.Point{X: 0, Y: r.Intn(2), Z: r.Intn(2)}, grid.Point{X: 69, Y: r.Intn(2), Z: r.Intn(2)}
		if trial%2 == 1 {
			s, d = d, s
		}
		flips := make([]int, 1+r.Intn(4))
		for i := range flips {
			flips[i] = r.Intn(n)
		}
		resweepCase(t, m, avoid, s, d, flips)
	}
}

// FuzzFieldResweep checks Resweep ≡ full build ≡ the map reference on random
// meshes up to 72×12×12 (2-D when the Z extent is 1), obstacle sets,
// endpoints and flips, all drawn from seed.
func FuzzFieldResweep(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(8), uint8(8))
	f.Fuzz(func(t *testing.T, seed uint64, nx, ny, nz uint8) {
		m := mesh.New3D(1+int(nx)%72, 1+int(ny)%12, 1+int(nz)%12)
		avoid, s, d, flips := randomCase(rng.New(seed), m)
		checkMapReference(t, "full build", m, avoid, ReachabilityWordsInto(nil, m, avoid, s, d), s, d)
		resweepCase(t, m, avoid, s, d, flips)
	})
}

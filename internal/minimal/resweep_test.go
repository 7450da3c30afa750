package minimal

// Parity of the re-sweep the routing field providers run after a fault
// change: a dropped octant is swept again in full into the provider's one
// reused scratch field, which last held some other box. That re-sweep must
// leave the field, and the exceptions AppendBlocked reads off it, equal to a
// fresh ReachabilityWordsInto over the changed obstacles.

import (
	"slices"
	"testing"

	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/rng"
)

// resweepCase builds the field s → d over avoid, flips the given node IDs in
// avoid and re-sweeps s → d over the result into the same field: once
// straight away, once after the field held another octant of d (the box from
// d to the mesh corner opposite s), as the scratch field does between
// octants. Both must equal a fresh build, node by node and in their
// exceptions.
func resweepCase(t testing.TB, m *mesh.Mesh, avoid []uint64, s, d grid.Point, flips []int) {
	t.Helper()
	again := ReachabilityWordsInto(nil, m, avoid, s, d)
	between := ReachabilityWordsInto(nil, m, avoid, s, d)
	live := append([]uint64(nil), avoid...)
	for _, id := range flips {
		live[id>>6] ^= 1 << uint(id&63)
	}
	dims := m.Dims()
	far := grid.Point{X: opposite(s.X, d.X, dims.X), Y: opposite(s.Y, d.Y, dims.Y), Z: opposite(s.Z, d.Z, dims.Z)}
	ReachabilityWordsInto(between, m, avoid, far, d)

	fresh := ReachabilityWordsInto(nil, m, live, s, d)
	want := fresh.AppendBlocked(nil, live)
	for _, c := range []struct {
		name string
		f    *Field
	}{{"re-sweep", again}, {"re-sweep after another box", between}} {
		f := ReachabilityWordsInto(c.f, m, live, s, d)
		m.ForEach(func(p grid.Point) {
			if got, full := f.CanReach(p), fresh.CanReach(p); got != full {
				t.Fatalf("%v → %v on %v, flips %v, %s: CanReach(%v) = %v, full build %v",
					s, d, dims, flips, c.name, p, got, full)
			}
		})
		if got := f.AppendBlocked(nil, live); !slices.Equal(got, want) {
			t.Fatalf("%v → %v on %v, flips %v, %s: AppendBlocked = %v, full build %v",
				s, d, dims, flips, c.name, got, want)
		}
	}
}

// opposite returns the mesh border on the far side of d from s along one
// axis of extent n: the corner coordinate of another octant of d.
func opposite(s, d, n int) int {
	if s > d {
		return 0
	}
	return n - 1
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

// FuzzFieldResweep checks re-sweep ≡ full build ≡ the map reference on random
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

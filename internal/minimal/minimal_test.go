package minimal

import (
	"testing"

	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/rng"
)

// only returns an obstacle bitset holding just the nodes pts.
func only(m *mesh.Mesh, pts ...grid.Point) []uint64 {
	w := make([]uint64, (m.NodeCount()+63)/64)
	for _, p := range pts {
		id := m.ID(p)
		w[id>>6] |= 1 << uint(id&63)
	}
	return w
}

func TestExistsFaultFree(t *testing.T) {
	m := mesh.New3D(6, 6, 6)
	if !Exists(m, nil, grid.Point{}, grid.Point{X: 5, Y: 5, Z: 5}) {
		t.Error("fault-free mesh must always have a minimal path")
	}
	if !Exists(m, nil, grid.Point{X: 5, Y: 0, Z: 3}, grid.Point{X: 0, Y: 5, Z: 0}) {
		t.Error("minimal path must exist for mixed orientations too")
	}
}

func TestExistsSameNode(t *testing.T) {
	m := mesh.New2D(4, 4)
	p := grid.Point{X: 2, Y: 2}
	if !Exists(m, nil, p, p) {
		t.Error("a node can always reach itself")
	}
	if Exists(m, only(m, p), p, p) {
		t.Error("an avoided endpoint is unreachable")
	}
}

func TestExistsBlockedWall(t *testing.T) {
	m := mesh.New2D(6, 6)
	// A full anti-diagonal wall inside the routing box blocks every monotone
	// path from (0,0) to (4,4).
	for i := 0; i <= 4; i++ {
		m.SetFaulty(grid.Point{X: i, Y: 4 - i}, true)
	}
	if Exists(m, m.FaultyWords(), grid.Point{}, grid.Point{X: 4, Y: 4}) {
		t.Error("anti-diagonal wall should block every monotone path")
	}
	// The wall also seals off destinations on the source side of its tips:
	// (5,0) sits behind the faulty (4,0) along y = 0.
	if Exists(m, m.FaultyWords(), grid.Point{}, grid.Point{X: 5, Y: 0}) {
		t.Error("(5,0) must be unreachable: the wall reaches the y=0 row")
	}
	// The wall spans the entire anti-diagonal x+y = 4, so every destination
	// beyond it is blocked too.
	if Exists(m, m.FaultyWords(), grid.Point{}, grid.Point{X: 5, Y: 5}) {
		t.Error("(5,5) must be blocked: the wall spans the full anti-diagonal")
	}
	// Destinations on the near side of the wall stay reachable.
	if !Exists(m, m.FaultyWords(), grid.Point{}, grid.Point{X: 1, Y: 2}) {
		t.Error("(1,2) lies before the wall and must be reachable")
	}
}

func TestPathProperties(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 50; trial++ {
		m := mesh.New3D(7, 7, 7)
		for i := 0; i < 15; i++ {
			m.SetFaulty(m.Point(r.Intn(m.NodeCount())), true)
		}
		s := m.Point(r.Intn(m.NodeCount()))
		d := m.Point(r.Intn(m.NodeCount()))
		if m.IsFaulty(s) || m.IsFaulty(d) {
			continue
		}
		avoid := m.FaultyWords()
		path := Path(m, avoid, s, d)
		if path == nil {
			if Exists(m, avoid, s, d) {
				t.Fatalf("Exists true but Path nil for %v -> %v", s, d)
			}
			continue
		}
		if !IsMinimalPath(m, avoid, s, d, path) {
			t.Fatalf("Path returned an invalid minimal path %v for %v -> %v", path, s, d)
		}
	}
}

func TestIsMinimalPathRejects(t *testing.T) {
	m := mesh.New2D(5, 5)
	s, d := grid.Point{}, grid.Point{X: 2, Y: 1}
	good := []grid.Point{{}, {X: 1}, {X: 2}, {X: 2, Y: 1}}
	if !IsMinimalPath(m, nil, s, d, good) {
		t.Error("valid path rejected")
	}
	detour := []grid.Point{{}, {Y: 1}, {}, {X: 1}, {X: 2}, {X: 2, Y: 1}}
	if IsMinimalPath(m, nil, s, d, detour) {
		t.Error("detour accepted as minimal")
	}
	gap := []grid.Point{{}, {X: 2}, {X: 2, Y: 1}}
	if IsMinimalPath(m, nil, s, d, gap) {
		t.Error("path with a 2-hop jump accepted")
	}
	wrongEnd := []grid.Point{{}, {X: 1}, {X: 1, Y: 1}}
	if IsMinimalPath(m, nil, s, d, wrongEnd) {
		t.Error("path ending elsewhere accepted")
	}
	if IsMinimalPath(m, nil, s, d, nil) {
		t.Error("empty path accepted")
	}
}

func TestReachabilityMatchesExists(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 30; trial++ {
		m := mesh.New2D(9, 9)
		for i := 0; i < 12; i++ {
			m.SetFaulty(m.Point(r.Intn(m.NodeCount())), true)
		}
		s := m.Point(r.Intn(m.NodeCount()))
		d := m.Point(r.Intn(m.NodeCount()))
		f := ReachabilityWordsInto(nil, m, m.FaultyWords(), s, d)
		// Every point the field claims reachable must indeed have a path.
		grid.BoxOf(s, d).ForEach(func(p grid.Point) {
			if f.CanReach(p) != Exists(m, m.FaultyWords(), p, d) {
				t.Fatalf("field and Exists disagree at %v (s=%v d=%v)", p, s, d)
			}
		})
	}
}

func TestCountPathsFaultFree(t *testing.T) {
	m := mesh.New2D(6, 6)
	// Number of monotone paths in a fault-free grid is the binomial
	// coefficient C(dx+dy, dx).
	got := CountPaths(m, nil, grid.Point{}, grid.Point{X: 3, Y: 2}, 0)
	if got != 10 {
		t.Errorf("CountPaths = %d, want 10", got)
	}
	if CountPaths(m, nil, grid.Point{}, grid.Point{X: 0, Y: 0}, 0) != 1 {
		t.Error("trivial path count should be 1")
	}
}

func TestCountPathsBlocked(t *testing.T) {
	m := mesh.New2D(6, 6)
	for i := 0; i <= 3; i++ {
		m.SetFaulty(grid.Point{X: i, Y: 3 - i}, true)
	}
	if CountPaths(m, m.FaultyWords(), grid.Point{}, grid.Point{X: 3, Y: 3}, 0) != 0 {
		t.Error("blocked pair should have zero paths")
	}
}

func TestCountPathsCap(t *testing.T) {
	m := mesh.New2D(12, 12)
	got := CountPaths(m, nil, grid.Point{}, grid.Point{X: 10, Y: 10}, 1000)
	if got != 1000 {
		t.Errorf("capped count = %d, want saturation at 1000", got)
	}
}

func TestExistsRespectsAvoidOnEndpoints(t *testing.T) {
	m := mesh.New2D(4, 4)
	s, d := grid.Point{}, grid.Point{X: 3, Y: 3}
	if Exists(m, only(m, d), s, d) {
		t.Error("avoided destination must be unreachable")
	}
	if Exists(m, only(m, s), s, d) {
		t.Error("avoided source must not start a path")
	}
}

func TestPathMixedOrientation(t *testing.T) {
	m := mesh.New3D(6, 6, 6)
	s := grid.Point{X: 5, Y: 0, Z: 5}
	d := grid.Point{X: 0, Y: 5, Z: 0}
	path := Path(m, nil, s, d)
	if !IsMinimalPath(m, nil, s, d, path) {
		t.Fatal("mixed-orientation path invalid")
	}
}

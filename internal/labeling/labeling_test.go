package labeling

import (
	"testing"

	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/rng"
)

// TestFigure1Staircase reproduces the flavour of Figure 1: diagonal faults in
// a 2-D mesh absorb the healthy nodes wedged between them.
func TestFigure1Staircase(t *testing.T) {
	m := mesh.New2D(10, 10)
	m.AddFaults(grid.Point{X: 3, Y: 6}, grid.Point{X: 4, Y: 5}, grid.Point{X: 5, Y: 4})
	l := Compute(m, grid.PositiveOrientation)

	// The pockets between diagonal faults on the source side become useless.
	for _, p := range []grid.Point{{X: 3, Y: 5}, {X: 4, Y: 4}, {X: 3, Y: 4}} {
		if got := l.Status(p); got != Useless {
			t.Errorf("node %v: status %v, want useless", p, got)
		}
	}
	if got := l.Count(Useless); got != 3 {
		t.Errorf("useless count = %d, want 3", got)
	}
	// The mirrored pockets on the destination side become can't-reach.
	if got := l.Count(CantReach); got != 3 {
		t.Errorf("can't-reach count = %d, want 3", got)
	}
	// Far away nodes stay safe.
	if !l.Safe(grid.Point{X: 0, Y: 0}) || !l.Safe(grid.Point{X: 9, Y: 9}) {
		t.Error("distant nodes should stay safe")
	}
}

// TestFigure1CantReach mirrors the staircase on the other side: nodes wedged
// behind the faults (toward the source) become can't-reach.
func TestFigure1CantReach(t *testing.T) {
	m := mesh.New2D(10, 10)
	m.AddFaults(grid.Point{X: 3, Y: 6}, grid.Point{X: 4, Y: 5}, grid.Point{X: 5, Y: 4})
	l := Compute(m, grid.PositiveOrientation)
	// (4,6) has -X neighbour (3,6) faulty and -Y neighbour (4,5) faulty.
	if got := l.Status(grid.Point{X: 4, Y: 6}); got != CantReach {
		t.Errorf("(4,6) status %v, want can't-reach", got)
	}
	if got := l.Status(grid.Point{X: 5, Y: 5}); got != CantReach {
		t.Errorf("(5,5) status %v, want can't-reach", got)
	}
}

// TestFigure5 reproduces the paper's 3-D worked example exactly: the fault set
// of Figure 5 labels (5,5,5) useless and (5,5,7) can't-reach and nothing else.
func TestFigure5(t *testing.T) {
	m := mesh.New3D(10, 10, 10)
	faults := []grid.Point{
		{X: 5, Y: 5, Z: 6}, {X: 6, Y: 5, Z: 5}, {X: 5, Y: 6, Z: 5},
		{X: 6, Y: 7, Z: 5}, {X: 7, Y: 6, Z: 5}, {X: 5, Y: 4, Z: 7},
		{X: 4, Y: 5, Z: 7}, {X: 7, Y: 8, Z: 4},
	}
	m.AddFaults(faults...)
	l := Compute(m, grid.PositiveOrientation)

	if got := l.Status(grid.Point{X: 5, Y: 5, Z: 5}); got != Useless {
		t.Errorf("(5,5,5) = %v, want useless", got)
	}
	if got := l.Status(grid.Point{X: 5, Y: 5, Z: 7}); got != CantReach {
		t.Errorf("(5,5,7) = %v, want can't-reach", got)
	}
	if got := l.Count(Useless); got != 1 {
		t.Errorf("useless count = %d, want 1", got)
	}
	if got := l.Count(CantReach); got != 1 {
		t.Errorf("can't-reach count = %d, want 1", got)
	}
	if got := l.Count(Faulty); got != len(faults) {
		t.Errorf("faulty count = %d, want %d", got, len(faults))
	}
	// The paper highlights the hole at (6,6,5): it must stay safe.
	if !l.Safe(grid.Point{X: 6, Y: 6, Z: 5}) {
		t.Error("(6,6,5) should remain safe (the hole of Figure 5)")
	}
	if got := l.NonFaultyUnsafeCount(); got != 2 {
		t.Errorf("non-faulty unsafe count = %d, want 2", got)
	}
}

// TestUselessRule3DNeedsAllThree checks the 3-D rule: two blocked forward
// neighbours are not enough (the +Z escape keeps the node safe).
func TestUselessRule3DNeedsAllThree(t *testing.T) {
	m := mesh.New3D(6, 6, 6)
	m.AddFaults(grid.Point{X: 3, Y: 2, Z: 2}, grid.Point{X: 2, Y: 3, Z: 2})
	l := Compute(m, grid.PositiveOrientation)
	if !l.Safe(grid.Point{X: 2, Y: 2, Z: 2}) {
		t.Error("node with a free +Z neighbour must stay safe in 3-D")
	}
	// Adding the +Z fault flips it.
	m.AddFaults(grid.Point{X: 2, Y: 2, Z: 3})
	l = Compute(m, grid.PositiveOrientation)
	if got := l.Status(grid.Point{X: 2, Y: 2, Z: 2}); got != Useless {
		t.Errorf("fully enclosed node = %v, want useless", got)
	}
}

func TestNoFaultsNoLabels(t *testing.T) {
	m := mesh.New3D(5, 5, 5)
	l := Compute(m, grid.PositiveOrientation)
	if l.UnsafeCount() != 0 {
		t.Errorf("fault-free mesh has %d unsafe nodes", l.UnsafeCount())
	}
	if l.Promotions() != 0 {
		t.Error("fault-free mesh should promote no nodes")
	}
}

func TestOrientationSymmetry(t *testing.T) {
	// A configuration that is useless for (+X,+Y) must be can't-reach for the
	// mirrored (-X,-Y) orientation, by symmetry of the definitions.
	m := mesh.New2D(8, 8)
	m.AddFaults(grid.Point{X: 4, Y: 5}, grid.Point{X: 5, Y: 4})
	pos := Compute(m, grid.Orientation{SX: 1, SY: 1, SZ: 1})
	neg := Compute(m, grid.Orientation{SX: -1, SY: -1, SZ: 1})
	p := grid.Point{X: 4, Y: 4}
	if pos.Status(p) != Useless {
		t.Fatalf("expected %v useless under (+X,+Y), got %v", p, pos.Status(p))
	}
	if neg.Status(p) != CantReach {
		t.Fatalf("expected %v can't-reach under (-X,-Y), got %v", p, neg.Status(p))
	}
}

func TestBorderPolicyDefaultSafe(t *testing.T) {
	m := mesh.New2D(6, 6)
	// A fault next to the +Y border: under the default policy the node between
	// the fault and the border stays safe.
	m.AddFaults(grid.Point{X: 3, Y: 5})
	l := Compute(m, grid.PositiveOrientation)
	if !l.Safe(grid.Point{X: 2, Y: 5}) {
		t.Error("border nodes must stay safe under BorderSafe")
	}
	lb := Compute(m, grid.PositiveOrientation, Options{Border: BorderBlocked})
	if lb.Status(grid.Point{X: 2, Y: 5}) != Useless {
		t.Error("BorderBlocked should absorb the node next to the border fault")
	}
}

// TestMonotonicity: adding a fault never removes unsafe labels (property I1).
func TestMonotonicity(t *testing.T) {
	r := rng.New(2024)
	for trial := 0; trial < 30; trial++ {
		m := mesh.New3D(7, 7, 7)
		for i := 0; i < 10; i++ {
			m.SetFaulty(m.Point(r.Intn(m.NodeCount())), true)
		}
		before := Compute(m, grid.PositiveOrientation)
		// Add one more fault.
		var extra grid.Point
		for {
			extra = m.Point(r.Intn(m.NodeCount()))
			if !m.IsFaulty(extra) {
				break
			}
		}
		m.SetFaulty(extra, true)
		after := Compute(m, grid.PositiveOrientation)
		m.ForEach(func(p grid.Point) {
			if before.Unsafe(p) && !after.Unsafe(p) {
				t.Errorf("trial %d: node %v lost its unsafe label after adding fault %v", trial, p, extra)
			}
		})
	}
}

// TestRuleSoundness verifies that every label is justified by its definition
// (property I1) and the safe-frontier lemma (property I2) holds.
func TestRuleSoundness(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 40; trial++ {
		var m *mesh.Mesh
		if trial%2 == 0 {
			m = mesh.New2D(12, 12)
		} else {
			m = mesh.New3D(8, 8, 8)
		}
		n := 5 + r.Intn(30)
		for i := 0; i < n; i++ {
			m.SetFaulty(m.Point(r.Intn(m.NodeCount())), true)
		}
		for _, orient := range []grid.Orientation{grid.PositiveOrientation, {SX: -1, SY: 1, SZ: -1}} {
			l := Compute(m, orient)
			m.ForEach(func(p grid.Point) {
				st := l.Status(p)
				switch st {
				case Faulty:
					if !m.IsFaulty(p) {
						t.Fatalf("non-faulty node labelled faulty at %v", p)
					}
				case Useless:
					for _, a := range m.Axes() {
						q := orient.Ahead(p, a)
						if !m.InBounds(q) {
							t.Fatalf("useless node %v at the border under BorderSafe", p)
						}
						if s := l.Status(q); s != Faulty && s != Useless {
							t.Fatalf("useless node %v has forward neighbour %v with status %v", p, q, s)
						}
					}
				case CantReach:
					for _, a := range m.Axes() {
						q := orient.Behind(p, a)
						if !m.InBounds(q) {
							t.Fatalf("can't-reach node %v at the border under BorderSafe", p)
						}
						if s := l.Status(q); s != Faulty && s != CantReach {
							t.Fatalf("can't-reach node %v has backward neighbour %v with status %v", p, q, s)
						}
					}
				case Safe:
					// Safe-frontier lemma: not all forward neighbours may be
					// faulty-or-useless, and the node directly ahead can never
					// be can't-reach.
					allBlocked := true
					for _, a := range m.Axes() {
						q := orient.Ahead(p, a)
						if !m.InBounds(q) {
							allBlocked = false
							continue
						}
						s := l.Status(q)
						if s == CantReach {
							t.Fatalf("safe node %v has a can't-reach forward neighbour %v", p, q)
						}
						if s == Safe {
							allBlocked = false
						}
					}
					if allBlocked {
						t.Fatalf("safe node %v has all forward neighbours faulty/useless", p)
					}
				}
			})
		}
	}
}

func TestComputeAll(t *testing.T) {
	m := mesh.New3D(5, 5, 5)
	m.AddFaults(grid.Point{X: 2, Y: 2, Z: 2})
	all := ComputeAll(m)
	count := 0
	for _, l := range all {
		if l != nil {
			count++
			if l.Count(Faulty) != 1 {
				t.Error("every orientation sees the same faults")
			}
		}
	}
	if count != 8 {
		t.Errorf("ComputeAll produced %d labelings, want 8", count)
	}
	m2 := mesh.New2D(5, 5)
	if got := nonNil(ComputeAll(m2)); got != 4 {
		t.Errorf("2-D ComputeAll produced %d labelings, want 4", got)
	}
}

func nonNil(ls []*Labeling) int {
	n := 0
	for _, l := range ls {
		if l != nil {
			n++
		}
	}
	return n
}

func TestStatusString(t *testing.T) {
	if Safe.String() != "safe" || Faulty.String() != "faulty" ||
		Useless.String() != "useless" || CantReach.String() != "cant-reach" {
		t.Error("Status.String wrong")
	}
	if Safe.Unsafe() || !Faulty.Unsafe() {
		t.Error("Unsafe() wrong")
	}
}

func TestInvalidOrientationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid orientation")
		}
	}()
	Compute(mesh.New2D(3, 3), grid.Orientation{})
}

// TestSeedMatchesEveryNodeSeed: Compute seeds only the nodes next to a fault
// (and, under BorderBlocked, the border nodes). Seeding every node instead
// must give the same labels, split included, and the same promotion count.
func TestSeedMatchesEveryNodeSeed(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 60; trial++ {
		var m *mesh.Mesh
		if trial%2 == 0 {
			k := 4 + r.Intn(12)
			m = mesh.New2D(k, k)
		} else {
			k := 3 + r.Intn(6)
			m = mesh.New3D(k, k, k)
		}
		for n := r.Intn(m.NodeCount() / 3); n > 0; n-- {
			m.AddFaults(m.Point(r.Intn(m.NodeCount())))
		}
		orient := grid.OrientationFromIndex(r.Intn(8))
		if m.Is2D() {
			orient.SZ = 1
		}
		for _, border := range []BorderPolicy{BorderSafe, BorderBlocked} {
			got := Compute(m, orient, Options{Border: border})
			want := &Labeling{mesh: m, orient: orient, opts: Options{Border: border}, status: make([]Status, m.NodeCount())}
			all := make([]int32, m.NodeCount())
			for i := range all {
				want.status[i] = Safe
				if m.FaultyAt(i) {
					want.status[i] = Faulty
				}
				all[i] = int32(i)
			}
			want.fixpoint(all)
			for i := range want.status {
				if got.status[i] != want.status[i] {
					t.Fatalf("trial %d %v: node %v seeded=%v every-node=%v", trial, border, m.Point(i), got.status[i], want.status[i])
				}
			}
			if got.Promotions() != want.Promotions() {
				t.Fatalf("trial %d %v: %d promotions, every-node seed made %d", trial, border, got.Promotions(), want.Promotions())
			}
		}
	}
}

package block

import (
	"testing"

	"mccmesh/internal/grid"
	"mccmesh/internal/labeling"
	"mccmesh/internal/mesh"
	"mccmesh/internal/meshtest"
	"mccmesh/internal/region"
	"mccmesh/internal/rng"
)

func TestBoundingBoxSingleCluster(t *testing.T) {
	m := mesh.New2D(10, 10)
	// (3,3)-(4,3) form one cluster; (5,4) touches its bounding box diagonally,
	// so the two blocks merge into one rectangle.
	m.AddFaults(grid.Point{X: 3, Y: 3}, grid.Point{X: 4, Y: 3}, grid.Point{X: 5, Y: 4})
	r := Build(m, BoundingBox)
	if len(r.Blocks) != 1 {
		t.Fatalf("expected a single merged block, got %d", len(r.Blocks))
	}
	b := r.Blocks[0]
	want := grid.Box{Min: grid.Point{X: 3, Y: 3}, Max: grid.Point{X: 5, Y: 4}}
	if b.Bounds != want {
		t.Errorf("bounds = %v, want %v", b.Bounds, want)
	}
	if b.FaultyCount != 3 || b.NonFaulty() != want.Volume()-3 {
		t.Errorf("counts wrong: %+v", b)
	}
}

func TestBoundingBoxSeparatedByAFreeRow(t *testing.T) {
	m := mesh.New2D(10, 10)
	// A whole healthy row separates the clusters (gap 2), so the blocks stay
	// distinct.
	m.AddFaults(grid.Point{X: 3, Y: 3}, grid.Point{X: 4, Y: 3}, grid.Point{X: 4, Y: 5})
	r := Build(m, BoundingBox)
	if len(r.Blocks) != 2 {
		t.Fatalf("expected 2 blocks separated by a free row, got %d", len(r.Blocks))
	}
}

func TestBoundingBoxKeepsDistantBlocksSeparate(t *testing.T) {
	m := mesh.New3D(12, 12, 12)
	m.AddFaults(grid.Point{X: 2, Y: 2, Z: 2}, grid.Point{X: 9, Y: 9, Z: 9})
	r := Build(m, BoundingBox)
	if len(r.Blocks) != 2 {
		t.Fatalf("expected 2 blocks, got %d", len(r.Blocks))
	}
}

func TestBoundingBoxFigure5(t *testing.T) {
	// Figure 5(a): the seven clustered faults produce the rectangular block
	// RFB spanning x 4..7, y 4..8, z 4..7 once merged with the nearby
	// (7,8,4); the MCC model splits the same faults into much smaller regions.
	m := mesh.New3D(10, 10, 10)
	m.AddFaults(
		grid.Point{X: 5, Y: 5, Z: 6}, grid.Point{X: 6, Y: 5, Z: 5}, grid.Point{X: 5, Y: 6, Z: 5},
		grid.Point{X: 6, Y: 7, Z: 5}, grid.Point{X: 7, Y: 6, Z: 5}, grid.Point{X: 5, Y: 4, Z: 7},
		grid.Point{X: 4, Y: 5, Z: 7}, grid.Point{X: 7, Y: 8, Z: 4},
	)
	r := Build(m, BoundingBox)
	if len(r.Blocks) != 1 {
		t.Fatalf("expected the faults to merge into one RFB, got %d", len(r.Blocks))
	}
	b := r.Blocks[0]
	want := grid.Box{Min: grid.Point{X: 4, Y: 4, Z: 4}, Max: grid.Point{X: 7, Y: 8, Z: 7}}
	if b.Bounds != want {
		t.Errorf("RFB bounds = %v, want %v", b.Bounds, want)
	}
	// The paper's point: the RFB swallows far more healthy nodes than the MCC.
	l := labeling.Compute(m, grid.PositiveOrientation)
	cs := region.FindMCCs(l)
	if cs.TotalNonFaulty() >= b.NonFaulty() {
		t.Errorf("MCC absorbed %d healthy nodes, RFB %d; MCC must be strictly smaller",
			cs.TotalNonFaulty(), b.NonFaulty())
	}
}

func TestConvexityRule2DRectangles(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 25; trial++ {
		m := meshtest.Random2D(r, 12, 4+r.Intn(14))
		regions := Build(m, ConvexityRule)
		for _, b := range regions.Blocks {
			// In 2-D the convexity rule produces solid rectangles.
			if len(b.Nodes) != b.Bounds.Volume() {
				t.Fatalf("trial %d: block %v is not a solid rectangle (%d nodes, bounds volume %d)",
					trial, b.Bounds, len(b.Nodes), b.Bounds.Volume())
			}
		}
	}
}

func TestMCCContainedInConvexityBlocks(t *testing.T) {
	// Property I4: every node the MCC model marks unsafe is also inside a
	// convexity-rule fault block for the same faults (the MCC refines the
	// classical model).
	r := rng.New(77)
	for trial := 0; trial < 20; trial++ {
		var m *mesh.Mesh
		if trial%2 == 0 {
			m = meshtest.Random2D(r, 12, 5+r.Intn(16))
		} else {
			m = meshtest.Random3D(r, 8, 5+r.Intn(30))
		}
		l := labeling.Compute(m, grid.PositiveOrientation)
		blocks := Build(m, ConvexityRule)
		m.ForEach(func(p grid.Point) {
			if l.Unsafe(p) && !blocks.Contains(p) {
				t.Fatalf("trial %d: node %v is MCC-unsafe but outside every convexity block", trial, p)
			}
		})
		if l.NonFaultyUnsafeCount() > blocks.TotalNonFaulty() {
			t.Fatalf("trial %d: MCC absorbed more healthy nodes (%d) than the block model (%d)",
				trial, l.NonFaultyUnsafeCount(), blocks.TotalNonFaulty())
		}
	}
}

func TestContainsAndBlockOf(t *testing.T) {
	m := mesh.New2D(8, 8)
	m.AddFaults(grid.Point{X: 2, Y: 2})
	r := Build(m, BoundingBox)
	if !r.Contains(grid.Point{X: 2, Y: 2}) {
		t.Error("fault not inside its own block")
	}
	if r.Contains(grid.Point{X: 7, Y: 7}) || r.BlockOf(grid.Point{X: 7, Y: 7}) != nil {
		t.Error("healthy distant node claimed by a block")
	}
	if r.BlockOf(grid.Point{X: -1, Y: 0}) != nil {
		t.Error("out-of-bounds point claimed by a block")
	}
}

func TestBlockedQueries(t *testing.T) {
	m := mesh.New2D(10, 10)
	m.AddFaults(grid.Point{X: 3, Y: 5}, grid.Point{X: 4, Y: 5}, grid.Point{X: 5, Y: 5})
	r := Build(m, BoundingBox)
	if len(r.Blocks) != 1 {
		t.Fatal("expected one block")
	}
	if !r.BlockedByUnion(grid.Point{X: 4, Y: 2}, grid.Point{X: 4, Y: 9}) {
		t.Error("a column through the block must be blocked")
	}
	if r.BlockedByUnion(grid.Point{X: 0, Y: 0}, grid.Point{X: 9, Y: 9}) {
		t.Error("BlockedByUnion wrong for a clear pair")
	}
}

func TestTotals(t *testing.T) {
	m := mesh.New2D(10, 10)
	m.AddFaults(grid.Point{X: 1, Y: 1}, grid.Point{X: 2, Y: 2})
	r := Build(m, BoundingBox)
	if r.TotalNodes() != 4 || r.TotalNonFaulty() != 2 {
		t.Errorf("totals wrong: nodes=%d nonfaulty=%d", r.TotalNodes(), r.TotalNonFaulty())
	}
}

func TestModelString(t *testing.T) {
	if BoundingBox.String() == "" || ConvexityRule.String() == "" {
		t.Error("model names must not be empty")
	}
	if BoundingBox.String() == ConvexityRule.String() {
		t.Error("model names must differ")
	}
}

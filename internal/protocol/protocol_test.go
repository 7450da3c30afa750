package protocol

import (
	"testing"

	"mccmesh/internal/feasibility"
	"mccmesh/internal/grid"
	"mccmesh/internal/labeling"
	"mccmesh/internal/mesh"
	"mccmesh/internal/meshtest"
	"mccmesh/internal/minimal"
	"mccmesh/internal/region"
	"mccmesh/internal/rng"
)

// TestDistributedLabelingMatchesCentralised is invariant I7: the purely local
// message protocol reaches the fault regions of Algorithm 1/4, under both
// border policies. It compares the faulty and unsafe sets and checks that the
// distributed labels are a fixpoint of the rules. The useless vs can't-reach
// split of a node both rules fire for follows the processing order, which
// differs between the two drivers, so the split is not compared
// (TestDistributedLabelingSplitFollowsOrder pins it).
func TestDistributedLabelingMatchesCentralised(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 30; trial++ {
		var m *mesh.Mesh
		if trial%2 == 0 {
			m = meshtest.Random2D(r, 10, 5+r.Intn(20))
		} else {
			m = meshtest.Random3D(r, 7, 5+r.Intn(40))
		}
		orient := grid.OrientationFromIndex(trial % 8)
		if m.Is2D() {
			orient.SZ = 1
		}
		for _, border := range []labeling.BorderPolicy{labeling.BorderSafe, labeling.BorderBlocked} {
			opts := labeling.Options{Border: border}
			want := labeling.Compute(m, orient, opts)
			got := RunLabeling(m, orient, opts)
			if err := sameRegions(m, want, got); err != nil {
				t.Fatalf("trial %d, %v: %v", trial, border, err)
			}
			if err := fixpointViolation(m, orient, border, func(i int) labeling.Status { return got.Statuses[i] }); err != nil {
				t.Fatalf("trial %d, %v: distributed: %v", trial, border, err)
			}
			if got.Stats.Delivered == 0 && want.NonFaultyUnsafeCount() > 0 {
				t.Errorf("trial %d, %v: promotions require messages", trial, border)
			}
		}
	}
}

func TestDistributedLabelingMessageCountScales(t *testing.T) {
	m := mesh.New3D(8, 8, 8)
	few := RunLabeling(m, grid.PositiveOrientation)
	if few.Stats.ByKind[KindLabel] != 0 {
		t.Errorf("a fault-free mesh needs no label messages, got %d", few.Stats.ByKind[KindLabel])
	}
	m.AddFaults(
		grid.Point{X: 3, Y: 2, Z: 2}, grid.Point{X: 2, Y: 3, Z: 2}, grid.Point{X: 2, Y: 2, Z: 3},
	)
	some := RunLabeling(m, grid.PositiveOrientation)
	if some.Stats.ByKind[KindLabel] == 0 {
		t.Error("the enclosed node must announce its promotion")
	}
}

// TestDetection2DMatchesFeasibility: the message-based check agrees with the
// centralised walkers and with ground truth.
func TestDetection2DMatchesFeasibility(t *testing.T) {
	r := rng.New(23)
	checked := 0
	for trial := 0; trial < 80; trial++ {
		m := meshtest.Random2D(r, 10, 4+r.Intn(20))
		s, d, ok := meshtest.SafePair(r, m, 3)
		if !ok {
			continue
		}
		checked++
		lab := labeling.Compute(m, grid.OrientationOf(s, d))
		cs := region.FindMCCs(lab)
		want := feasibility.GroundTruth(cs, s, d)
		got := RunDetection2D(m, lab, s, d)
		if got.Feasible != want {
			t.Fatalf("trial %d: distributed detection=%v, ground truth=%v (s=%v d=%v)",
				trial, got.Feasible, want, s, d)
		}
		if want && got.ForwardHops == 0 && grid.Manhattan(s, d) > 1 {
			t.Error("successful detection should take forward hops")
		}
	}
	if checked < 30 {
		t.Fatalf("only %d pairs checked", checked)
	}
}

func TestDetection3DMatchesFeasibility(t *testing.T) {
	r := rng.New(29)
	checked := 0
	for trial := 0; trial < 60; trial++ {
		m := meshtest.Random3D(r, 7, 5+r.Intn(40))
		s, d, ok := meshtest.SafePair(r, m, 4)
		if !ok {
			continue
		}
		checked++
		lab := labeling.Compute(m, grid.OrientationOf(s, d))
		cs := region.FindMCCs(lab)
		want := feasibility.GroundTruth(cs, s, d)
		got := RunDetection3D(m, lab, s, d)
		if got.Feasible != want {
			t.Fatalf("trial %d: distributed detection=%v, ground truth=%v (s=%v d=%v)",
				trial, got.Feasible, want, s, d)
		}
	}
	if checked < 25 {
		t.Fatalf("only %d pairs checked", checked)
	}
}

func TestInformationModel2D(t *testing.T) {
	m := mesh.New2D(12, 12)
	m.AddFaults(grid.Point{X: 5, Y: 6}, grid.Point{X: 6, Y: 6}, grid.Point{X: 6, Y: 5})
	lab := labeling.Compute(m, grid.PositiveOrientation)
	cs := region.FindMCCs(lab)
	info := RunInformationModel(m, lab, cs)

	if info.IdentifyMessages == 0 {
		t.Error("identification messages expected")
	}
	if info.BoundaryMessages == 0 {
		t.Error("boundary messages expected")
	}
	if len(info.Completed) != cs.Len() {
		t.Errorf("identification completed for %d of %d components", len(info.Completed), cs.Len())
	}
	// The Y boundary runs down the column left of the MCC nose: records must
	// be present below the initialization corner.
	corners := cs.Corners2D(cs.Components[0])
	if !corners.Found {
		t.Fatal("corners not found")
	}
	below := grid.Point{X: corners.Initialization.X, Y: 1}
	if len(info.Records[m.Index(below)]) == 0 {
		t.Errorf("no record stored on the Y boundary at %v", below)
	}
	// Edge nodes always hold the record of their MCC.
	for _, e := range cs.EdgeNodes(cs.Components[0]) {
		if len(info.Records[m.Index(e)]) == 0 {
			t.Errorf("edge node %v holds no record", e)
		}
	}
}

func TestInformationModelMergesAcrossMCCs(t *testing.T) {
	m := mesh.New2D(14, 14)
	// Two stacked MCCs as in Figure 3: the lower one intercepts the upper
	// one's Y boundary, so the boundary records below the lower MCC must
	// mention both components.
	m.AddFaults(grid.Point{X: 6, Y: 9}, grid.Point{X: 7, Y: 9}) // upper MCC
	m.AddFaults(grid.Point{X: 5, Y: 4}, grid.Point{X: 6, Y: 4}) // lower MCC
	lab := labeling.Compute(m, grid.PositiveOrientation)
	cs := region.FindMCCs(lab)
	if cs.Len() != 2 {
		t.Fatalf("expected 2 MCCs, got %d", cs.Len())
	}
	info := RunInformationModel(m, lab, cs)
	merged := 0
	for _, recs := range info.Records {
		if len(recs) >= 2 {
			merged++
		}
	}
	if merged == 0 {
		t.Error("no node holds a merged record; boundary merging failed")
	}
}

// TestDistributedRoutingDeliversMinimal: with the records produced by the
// information model, the hop-by-hop routing delivers minimal paths for
// feasible pairs in 2-D meshes (the setting of Algorithm 3).
func TestDistributedRoutingDeliversMinimal2D(t *testing.T) {
	r := rng.New(41)
	routed, minimalCount := 0, 0
	for trial := 0; trial < 60; trial++ {
		m := meshtest.Random2D(r, 10, 4+r.Intn(14))
		s, d, ok := meshtest.SafePair(r, m, 4)
		if !ok {
			continue
		}
		lab := labeling.Compute(m, grid.OrientationOf(s, d))
		cs := region.FindMCCs(lab)
		if !feasibility.GroundTruth(cs, s, d) {
			continue
		}
		info := RunInformationModel(m, lab, cs)
		res := RunRouting(m, cs, info.Records, s, d)
		routed++
		if !res.Delivered {
			t.Fatalf("trial %d: routing failed for feasible pair %v -> %v (stuck at %v)", trial, s, d, res.StuckAt)
		}
		if res.Minimal {
			minimalCount++
		}
		if !minimal.IsMinimalPath(m, m.FaultyWords(), s, d, res.Path) {
			t.Fatalf("trial %d: delivered path is not a fault-free minimal path", trial)
		}
	}
	if routed < 20 {
		t.Fatalf("only %d feasible pairs routed", routed)
	}
	if minimalCount != routed {
		t.Errorf("only %d of %d delivered paths were minimal", minimalCount, routed)
	}
}

func TestDistributedRoutingDeliversMinimal3D(t *testing.T) {
	r := rng.New(43)
	routed := 0
	for trial := 0; trial < 40; trial++ {
		m := meshtest.Random3D(r, 7, 5+r.Intn(30))
		s, d, ok := meshtest.SafePair(r, m, 4)
		if !ok {
			continue
		}
		lab := labeling.Compute(m, grid.OrientationOf(s, d))
		cs := region.FindMCCs(lab)
		if !feasibility.GroundTruth(cs, s, d) {
			continue
		}
		info := RunInformationModel(m, lab, cs)
		res := RunRouting(m, cs, info.Records, s, d)
		routed++
		if !res.Delivered {
			t.Fatalf("trial %d: routing failed for feasible pair %v -> %v (stuck at %v)", trial, s, d, res.StuckAt)
		}
		if !minimal.IsMinimalPath(m, m.FaultyWords(), s, d, res.Path) {
			t.Fatalf("trial %d: delivered path is not a fault-free minimal path", trial)
		}
	}
	if routed < 15 {
		t.Fatalf("only %d feasible pairs routed", routed)
	}
}

func TestRunRoutingWithoutRecords(t *testing.T) {
	m := mesh.New2D(8, 8)
	lab := labeling.Compute(m, grid.PositiveOrientation)
	cs := region.FindMCCs(lab)
	res := RunRouting(m, cs, nil, grid.Point{}, grid.Point{X: 5, Y: 5})
	if !res.Delivered || !res.Minimal {
		t.Error("fault-free routing must deliver minimally even without records")
	}
	if res.Hops != 10 {
		t.Errorf("hops = %d, want 10", res.Hops)
	}
}

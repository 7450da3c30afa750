package protocol

import (
	"fmt"
	"slices"
	"testing"

	"mccmesh/internal/feasibility"
	"mccmesh/internal/grid"
	"mccmesh/internal/labeling"
	"mccmesh/internal/mesh"
	"mccmesh/internal/meshtest"
	"mccmesh/internal/region"
	"mccmesh/internal/rng"
	"mccmesh/internal/routing"
)

// sameRegions reports the first node where the distributed labelling got and
// the centralised want disagree on faultiness or on unsafety. Both drivers
// reach the same unsafe set in any processing order; only the useless vs
// can't-reach split of a node both rules fire for may differ.
func sameRegions(m *mesh.Mesh, want *labeling.Labeling, got *LabelingResult) error {
	for i := 0; i < m.NodeCount(); i++ {
		g, w := got.Statuses[i], want.StatusAt(i)
		if (g == labeling.Faulty) != (w == labeling.Faulty) || g.Unsafe() != w.Unsafe() {
			return fmt.Errorf("node %v distributed=%v centralised=%v", m.Point(i), g, w)
		}
	}
	return nil
}

// fixpointViolation checks the invariants every labelling fixpoint satisfies,
// whatever its processing order, and reports the first node that breaks
// them: a useless node has every forward neighbour faulty or useless, a
// can't-reach node has every backward neighbour faulty or can't-reach, and a
// safe healthy node satisfies neither. The rules are restated here, from the
// paper's definitions, as an independent reference for labeling.Rule.
func fixpointViolation(m *mesh.Mesh, orient grid.Orientation, border labeling.BorderPolicy, status func(i int) labeling.Status) error {
	all := func(id int, dir func(grid.Axis) grid.Direction, bad labeling.Status) bool {
		for _, a := range m.Axes() {
			q := m.NeighborID(int32(id), dir(a))
			if q == mesh.NoNeighbor {
				if border != labeling.BorderBlocked {
					return false
				}
				continue
			}
			if s := status(int(q)); s != labeling.Faulty && s != bad {
				return false
			}
		}
		return true
	}
	for i := 0; i < m.NodeCount(); i++ {
		useless := all(i, orient.Forward, labeling.Useless)
		cantReach := all(i, orient.Backward, labeling.CantReach)
		s := status(i)
		ok := true
		switch {
		case m.FaultyAt(i):
			ok = s == labeling.Faulty
		case s == labeling.Useless:
			ok = useless
		case s == labeling.CantReach:
			ok = cantReach
		case s == labeling.Safe:
			ok = !useless && !cantReach
		default:
			ok = false
		}
		if !ok {
			return fmt.Errorf("node %v labelled %v (useless rule %v, can't-reach rule %v)", m.Point(i), s, useless, cantReach)
		}
	}
	return nil
}

// TestDistributedLabelingSplitFollowsOrder pins the one place the two
// labelling drivers may differ. Node (3,3) has faulty backward neighbours and
// a faulty forward neighbour; its other forward neighbour (3,4) turns useless
// at once. The centralised worklist labels (3,4) first and then (3,3)
// useless; the protocol evaluates (3,3) at start-up, before the announcement
// of (3,4) arrives, and labels it can't-reach. Both are fixpoints with the
// same unsafe set.
func TestDistributedLabelingSplitFollowsOrder(t *testing.T) {
	m := mesh.New2D(8, 8)
	m.AddFaults(grid.Point{X: 2, Y: 3}, grid.Point{X: 3, Y: 2}, grid.Point{X: 4, Y: 3}, grid.Point{X: 4, Y: 4}, grid.Point{X: 3, Y: 5})
	orient := grid.PositiveOrientation
	orient.SZ = 1
	want := labeling.Compute(m, orient)
	got := RunLabeling(m, orient)
	if err := sameRegions(m, want, got); err != nil {
		t.Fatal(err)
	}
	if err := fixpointViolation(m, orient, labeling.BorderSafe, want.StatusAt); err != nil {
		t.Fatalf("centralised: %v", err)
	}
	if err := fixpointViolation(m, orient, labeling.BorderSafe, func(i int) labeling.Status { return got.Statuses[i] }); err != nil {
		t.Fatalf("distributed: %v", err)
	}
	x := grid.Point{X: 3, Y: 3}
	if want.Status(x) != labeling.Useless || got.Status(m, x) != labeling.CantReach {
		t.Errorf("split at %v: centralised=%v distributed=%v, want useless and can't-reach", x, want.Status(x), got.Status(m, x))
	}
}

// FuzzProtocolMatchesCentral checks the simnet protocol against the
// centralised driver of each rule on random meshes up to 8x8 and 6x6x6:
//
//   - labelling: RunLabeling and labeling.Compute reach the same faulty and
//     unsafe sets, and both are fixpoints, under both border policies;
//   - detection, for a safe pair: RunDetection2D/3D agrees with
//     Detect2D/3D, and GroundTruth with Theorem; in 2-D the walkers also take
//     the same forward hops and agree with GroundTruth;
//   - routing: RunRouting and a Router over routing.Records with CarryAlong
//     agree on delivery and, when delivered, on the path.
//
// Exact statuses are not compared: a node both labelling rules fire for gets
// the label of whichever rule its driver evaluates first (see
// TestDistributedLabelingSplitFollowsOrder).
func FuzzProtocolMatchesCentral(f *testing.F) {
	f.Add(uint64(1), false, uint8(8), uint8(12))
	f.Add(uint64(2), true, uint8(6), uint8(40))
	f.Fuzz(func(t *testing.T, seed uint64, is3D bool, side, faults uint8) {
		r := rng.New(seed)
		var m *mesh.Mesh
		if is3D {
			k := 3 + int(side)%4
			m = meshtest.Random3D(r, k, int(faults)%(k*k*k/2+1))
		} else {
			k := 3 + int(side)%6
			m = meshtest.Random2D(r, k, int(faults)%(k*k/2+1))
		}

		orient := grid.OrientationFromIndex(r.Intn(8))
		if m.Is2D() {
			orient.SZ = 1
		}
		for _, border := range []labeling.BorderPolicy{labeling.BorderSafe, labeling.BorderBlocked} {
			opts := labeling.Options{Border: border}
			want := labeling.Compute(m, orient, opts)
			got := RunLabeling(m, orient, opts)
			if err := sameRegions(m, want, got); err != nil {
				t.Fatalf("%v %v: %v", orient, border, err)
			}
			if err := fixpointViolation(m, orient, border, want.StatusAt); err != nil {
				t.Fatalf("%v %v: centralised: %v", orient, border, err)
			}
			if err := fixpointViolation(m, orient, border, func(i int) labeling.Status { return got.Statuses[i] }); err != nil {
				t.Fatalf("%v %v: distributed: %v", orient, border, err)
			}
		}

		s, d, ok := meshtest.SafePair(r, m, 1)
		if !ok {
			return
		}
		lab := labeling.Compute(m, grid.OrientationOf(s, d))
		cs := region.FindMCCs(lab)
		truth := feasibility.GroundTruth(cs, s, d)
		if th := feasibility.Theorem(cs, s, d); th != truth {
			t.Fatalf("%v->%v: Theorem=%v, ground truth=%v", s, d, th, truth)
		}
		var det feasibility.Result
		var dist *DetectionResult
		if m.Is2D() {
			det, dist = feasibility.Detect2D(lab, s, d), RunDetection2D(m, lab, s, d)
			if det.Hops != dist.ForwardHops {
				t.Fatalf("%v->%v: walkers took %d hops centrally, %d as messages", s, d, det.Hops, dist.ForwardHops)
			}
		} else {
			det, dist = feasibility.Detect3D(lab, s, d), RunDetection3D(m, lab, s, d)
		}
		if det.Feasible != dist.Feasible {
			t.Fatalf("%v->%v: Detect=%v, RunDetection=%v", s, d, det.Feasible, dist.Feasible)
		}
		// The 3-D sweeps are not exact: a node whose open forward neighbour
		// lies beyond the s–d box is labelled safe, so a flood can reach all
		// three target faces while every path into d is blocked, and it can
		// also miss a path (corpus entries detect3d-*).
		if m.Is2D() && det.Feasible != truth {
			t.Fatalf("%v->%v: detection=%v, ground truth=%v", s, d, det.Feasible, truth)
		}

		info := RunInformationModel(m, lab, cs)
		res := RunRouting(m, cs, info.Records, s, d)
		tr := routing.New(m, &routing.Records{Set: cs, PerNode: info.Records, CarryAlong: true}, nil).Route(s, d)
		if tr.Succeeded() != res.Delivered {
			t.Fatalf("%v->%v: Router succeeded=%v (%v), RunRouting delivered=%v", s, d, tr.Succeeded(), tr.Err, res.Delivered)
		}
		if res.Delivered && !slices.Equal(tr.Path, res.Path) {
			t.Fatalf("%v->%v: paths differ: Router %v, RunRouting %v", s, d, tr.Path, res.Path)
		}
	})
}

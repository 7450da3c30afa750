package routing_test

// Parity tests for the packed-decision fast path: for every built-in
// provider, CandidateMaskID must agree bit for bit with the reference
// decision assembled from per-direction AllowedID consultations — on fresh
// fault sets, after incremental fault additions and after repairs, at every
// point of the epoch lifecycle (cold slot, warm slot, stale slot).

import (
	"fmt"
	"math/bits"
	"testing"

	"mccmesh/internal/block"
	"mccmesh/internal/fault"
	"mccmesh/internal/grid"
	"mccmesh/internal/labeling"
	"mccmesh/internal/mesh"
	"mccmesh/internal/region"
	"mccmesh/internal/rng"
	"mccmesh/internal/routing"
)

// parityProvider is a Provider with the dense-ID per-direction AllowedID
// every caching or label-based built-in one carries: the reference its masks
// are checked against.
type parityProvider interface {
	routing.Provider
	AllowedID(u, v, d int32) bool
}

// referenceMask assembles the decision mask the slow way: the healthy forward
// directions from u toward d, filtered through per-direction AllowedID.
func referenceMask(m *mesh.Mesh, prov parityProvider, u int32, uPt grid.Point, d int32, dPt grid.Point) uint8 {
	var mk uint8
	for _, a := range m.Axes() {
		delta := dPt.Axis(a) - uPt.Axis(a)
		if delta == 0 {
			continue
		}
		dir := grid.DirectionOf(a, grid.Sign(delta))
		v := m.NeighborID(u, dir)
		if v == mesh.NoNeighbor || m.FaultyAt(int(v)) {
			continue
		}
		if prov.AllowedID(u, v, d) {
			mk |= 1 << uint(dir)
		}
	}
	return mk
}

// checkParity compares CandidateMaskID against referenceMask over count
// random (u, d) pairs of healthy nodes. Each pair is checked twice in a row,
// so both the miss path (cold or stale slot) and the immediately-warm hit
// path of the caching providers are exercised on the same query.
func checkParity(t *testing.T, m *mesh.Mesh, prov parityProvider, r *rng.Rand, count int, stage string) {
	t.Helper()
	for n := 0; n < count; n++ {
		u := int32(r.Intn(m.NodeCount()))
		d := int32(r.Intn(m.NodeCount()))
		if u == d || m.FaultyAt(int(u)) || m.FaultyAt(int(d)) {
			continue
		}
		uPt, dPt := m.Point(int(u)), m.Point(int(d))
		want := referenceMask(m, prov, u, uPt, d, dPt)
		for pass := 0; pass < 2; pass++ {
			got := prov.CandidateMaskID(m, u, uPt, d, dPt)
			if got != want {
				t.Fatalf("%s/%s pass %d: CandidateMaskID(%v -> %v) = %06b, per-direction AllowedID gives %06b",
					stage, prov.Name(), pass, uPt, dPt, bits.Reverse8(got)>>2, bits.Reverse8(want)>>2)
			}
		}
	}
}

// TestDecisionMaskParity runs every built-in provider that carries AllowedID
// through fresh, post-addition and post-repair fault states over several
// random seeds. The caching providers take the same incremental update path
// the traffic engine uses (AddFaults/RemoveFaults + Refresh +
// InvalidateCache); the Block provider, whose snapshot has no in-place
// refresh, is rebuilt wholesale.
func TestDecisionMaskParity(t *testing.T) {
	for _, seed := range []uint64{2, 19, 101} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m := mesh.NewCube(10)
			placed := fault.Uniform{Count: 60}.Inject(m, rng.New(seed))
			lab := labeling.Compute(m, grid.PositiveOrientation)
			set := region.FindMCCs(lab)

			oracle := &routing.Oracle{Mesh: m}
			mcc := &routing.MCC{Set: set}
			labeled := &routing.Labeled{Labeling: lab}
			cached := []parityProvider{oracle, mcc}
			blockProvs := func() []parityProvider {
				return []parityProvider{
					&routing.Block{Regions: block.Build(m, block.BoundingBox)},
					&routing.Block{Regions: block.Build(m, block.ConvexityRule)},
				}
			}

			r := rng.New(seed * 7)
			stageAll := func(stage string, provs ...parityProvider) {
				for _, p := range provs {
					checkParity(t, m, p, r, 300, stage)
				}
			}
			all := append([]parityProvider{labeled, routing.LocalGreedy{}}, cached...)
			stageAll("fresh", append(all, blockProvs()...)...)

			// Incremental fault additions, one node at a time.
			for i := 0; i < 4; i++ {
				var p grid.Point
				for {
					idx := r.Intn(m.NodeCount())
					if !m.FaultyAt(idx) {
						p = m.Point(idx)
						break
					}
				}
				m.SetFaulty(p, true)
				placed = append(placed, p)
				lab.AddFaults([]grid.Point{p})
				set.Refresh()
				oracle.InvalidateCache()
				mcc.InvalidateCache()
			}
			stageAll("after-add", append(all, blockProvs()...)...)

			// Repair a batch through the removal path.
			repaired := placed[:len(placed)/2]
			m.RemoveFaults(repaired...)
			lab.RemoveFaults(repaired)
			set.Refresh()
			oracle.InvalidateCache()
			mcc.InvalidateCache()
			stageAll("after-repair", append(all, blockProvs()...)...)
		})
	}
}

// TestRecordsMaskWithoutRecords: a Records provider whose nodes hold no
// records knows only the labelling, so its mask must equal the labels-only
// provider's on every hop, carried records or not.
func TestRecordsMaskWithoutRecords(t *testing.T) {
	m := mesh.NewCube(8)
	fault.Uniform{Count: 100}.Inject(m, rng.New(4))
	lab := labeling.Compute(m, grid.PositiveOrientation)
	if lab.NonFaultyUnsafeCount() == 0 {
		t.Fatal("fault set absorbs no healthy node; the unsafe-neighbour rule goes untested")
	}
	labeled := &routing.Labeled{Labeling: lab}
	r := rng.New(8)
	for _, carry := range []bool{false, true} {
		rec := &routing.Records{Set: region.FindMCCs(lab), CarryAlong: carry}
		for n := 0; n < 500; n++ {
			u := int32(r.Intn(m.NodeCount()))
			d := int32(r.Intn(m.NodeCount()))
			if u == d || m.FaultyAt(int(u)) || m.FaultyAt(int(d)) {
				continue
			}
			uPt, dPt := m.Point(int(u)), m.Point(int(d))
			got := rec.CandidateMaskID(m, u, uPt, d, dPt)
			if want := labeled.CandidateMaskID(m, u, uPt, d, dPt); got != want {
				t.Fatalf("carry=%v: Records mask (%v -> %v) = %06b, labels-only gives %06b", carry, uPt, dPt, got, want)
			}
		}
	}
}

package routing_test

// Parity tests for the packed-decision fast path: for every built-in
// provider, CandidateMaskID must agree bit for bit with the first-principles
// reference decision (ReferenceMask over the provider's obstacle set) — on
// fresh fault sets, after incremental fault additions and after repairs, at
// every point of an entry's life (cold, warm, patched by a fault change).

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

// refCase pairs a provider with the rule of its reference decision: the
// obstacle set toward d and whether ReferenceMask tests reachability.
type refCase struct {
	prov  routing.Provider
	avoid func(d int32) []uint64
	reach bool
}

// fieldCase is the reference rule of a field provider over the obstacle set
// source; carve applies the block baselines' destination carve-out.
func fieldCase(p *routing.FieldProvider, source func() []uint64, carve bool) refCase {
	return refCase{p, func(d int32) []uint64 {
		if carve {
			return routing.CarveOut(source(), d)
		}
		return source()
	}, true}
}

// blockCases are fresh rfb and fb-rule providers over m's current faults.
func blockCases(m *mesh.Mesh) []refCase {
	var out []refCase
	for _, variant := range []block.Model{block.BoundingBox, block.ConvexityRule} {
		r := block.Build(m, variant)
		out = append(out, fieldCase(routing.NewBlock(r), r.AvoidWords, true))
	}
	return out
}

// checkParity compares CandidateMaskID against the reference over count
// random (u, d) pairs of healthy nodes. Each pair is checked twice in a row,
// so both the miss path (no built octant holds the hop) and the
// immediately-warm hit path of the caching providers are exercised on the
// same query. A field
// provider's derived AllowedID is checked against the reference bit of every
// forward neighbour too.
func checkParity(t *testing.T, m *mesh.Mesh, rc refCase, r *rng.Rand, count int, stage string) {
	t.Helper()
	for n := 0; n < count; n++ {
		u := int32(r.Intn(m.NodeCount()))
		d := int32(r.Intn(m.NodeCount()))
		if u == d || m.FaultyAt(int(u)) || m.FaultyAt(int(d)) {
			continue
		}
		uPt, dPt := m.Point(int(u)), m.Point(int(d))
		want := routing.ReferenceMask(m, rc.avoid(d), rc.reach, u, d)
		for pass := 0; pass < 2; pass++ {
			got := rc.prov.CandidateMaskID(m, u, uPt, d, dPt)
			if got != want {
				t.Fatalf("%s/%s pass %d: CandidateMaskID(%v -> %v) = %06b, reference gives %06b",
					stage, rc.prov.Name(), pass, uPt, dPt, bits.Reverse8(got)>>2, bits.Reverse8(want)>>2)
			}
		}
		fp, ok := rc.prov.(*routing.FieldProvider)
		if !ok {
			continue
		}
		for _, dir := range m.Directions() {
			v := m.NeighborID(u, dir)
			if v == mesh.NoNeighbor || grid.Manhattan(m.Point(int(v)), dPt) >= grid.Manhattan(uPt, dPt) {
				continue // not a forward neighbour
			}
			if got, want := fp.AllowedID(u, v, d), want&(1<<uint(dir)) != 0; got != want {
				t.Fatalf("%s/%s: AllowedID(%v -> %v toward %v) = %v, reference gives %v",
					stage, fp.Name(), uPt, m.Point(int(v)), dPt, got, want)
			}
		}
	}
}

// TestDecisionMaskParity runs every built-in provider except Records through
// fresh, post-addition and post-repair fault states over several random
// seeds. The oracle and MCC providers take the same incremental update path
// the traffic engine uses (AddFaults/RemoveFaults + Refresh +
// InvalidateCache); the block providers, whose snapshot has no in-place
// refresh, are rebuilt wholesale.
func TestDecisionMaskParity(t *testing.T) {
	for _, seed := range []uint64{2, 19, 101} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m := mesh.NewCube(10)
			placed := fault.Uniform{Count: 60}.Inject(m, rng.New(seed))
			lab := labeling.Compute(m, grid.PositiveOrientation)
			set := region.FindMCCs(lab)

			oracle := routing.NewOracle(m)
			mcc := routing.NewMCC(set)
			all := []refCase{
				{&routing.Labeled{Labeling: lab}, func(int32) []uint64 { return lab.UnsafeWords() }, false},
				{routing.LocalGreedy{}, func(int32) []uint64 { return m.FaultyWords() }, false},
				fieldCase(oracle, m.FaultyWords, false),
				fieldCase(mcc, set.UnionAvoidWords, false),
			}

			r := rng.New(seed * 7)
			stageAll := func(stage string, cases ...refCase) {
				for _, rc := range cases {
					checkParity(t, m, rc, r, 300, stage)
				}
			}
			stageAll("fresh", append(all, blockCases(m)...)...)

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
			stageAll("after-add", append(all, blockCases(m)...)...)

			// Repair a batch through the removal path.
			repaired := placed[:len(placed)/2]
			m.RemoveFaults(repaired...)
			lab.RemoveFaults(repaired)
			set.Refresh()
			oracle.InvalidateCache()
			mcc.InvalidateCache()
			stageAll("after-repair", append(all, blockCases(m)...)...)
		})
	}
}

// FuzzDecisionMatchesReference drives the four field models — oracle, mcc,
// rfb and fb-rule — through a random fail/repair schedule on a random mesh
// of up to 6³ nodes (2-D when an extent is 1), and checks CandidateMaskID
// against ReferenceMask before the first step and after every step. The
// oracle and mcc providers follow each step in place (labelling update,
// Refresh, InvalidateCache), as the traffic engine's models do, so their
// caches go through cold, warm, patched and widened entries; rfb and fb-rule are
// rebuilt over the new faults, as core.Model rebuilds them.
func FuzzDecisionMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(6), uint8(6), uint8(20), uint8(8))
	f.Fuzz(func(t *testing.T, seed uint64, nx, ny, nz, faults, steps uint8) {
		m := mesh.New3D(1+int(nx)%6, 1+int(ny)%6, 1+int(nz)%6)
		n := m.NodeCount()
		r := rng.New(seed)
		fault.Uniform{Count: int(faults) % (n/3 + 1)}.Inject(m, r)
		lab := labeling.Compute(m, grid.OrientationFromIndex(int(seed%8)))
		set := region.FindMCCs(lab)
		oracle, mcc := routing.NewOracle(m), routing.NewMCC(set)
		check := func(stage string) {
			cases := append([]refCase{fieldCase(oracle, m.FaultyWords, false), fieldCase(mcc, set.UnionAvoidWords, false)}, blockCases(m)...)
			for _, rc := range cases {
				checkParity(t, m, rc, r, 64, stage)
			}
		}
		check("fresh")
		var groups [][]grid.Point
		for step := 0; step < int(steps)%16; step++ {
			if len(groups) == 0 || (r.Intn(3) < 2 && m.FaultCount() < n/2) {
				var placed []grid.Point
				if r.Intn(2) == 0 {
					placed = fault.Uniform{Count: 1}.Inject(m, r)
				} else {
					placed = fault.Clustered{Clusters: 1, Size: 2 + r.Intn(3)}.Inject(m, r)
				}
				lab.AddFaults(placed)
				groups = append(groups, placed)
			} else {
				k := r.Intn(len(groups))
				g := groups[k]
				groups = append(groups[:k], groups[k+1:]...)
				m.RemoveFaults(g...)
				lab.RemoveFaults(g)
			}
			set.Refresh()
			oracle.InvalidateCache()
			mcc.InvalidateCache()
			check(fmt.Sprintf("step %d", step))
		}
	})
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

// TestFieldTableMatchesFreshUnderChurn drives the four field models — oracle,
// mcc, rfb and fb-rule — through a seeded fail/repair schedule on random
// 2-D and 3-D meshes. Each step asks every model, for a set of destinations,
// the hop from sources in all eight octants and from sources tied with d on
// one or two coordinates, so d's list merges several octants and planes. The
// oracle and mcc providers follow every step in place (their lists are
// patched); rfb and fb-rule are rebuilt per step, as core.Model
// rebuilds them, and then serve the whole step. Every answer must equal that
// of a provider built fresh for the one query and ReferenceMask.
func TestFieldTableMatchesFreshUnderChurn(t *testing.T) {
	for _, seed := range []uint64{3, 11, 29, 47} {
		r := rng.New(seed)
		var m *mesh.Mesh
		if seed%2 == 0 {
			m = mesh.New2D(9+r.Intn(6), 9+r.Intn(6))
		} else {
			m = mesh.New3D(6+r.Intn(4), 6+r.Intn(4), 6+r.Intn(4))
		}
		n := m.NodeCount()
		fault.Uniform{Count: n / 20}.Inject(m, r)
		lab := labeling.Compute(m, grid.OrientationFromIndex(int(seed%8)))
		set := region.FindMCCs(lab)
		oracle, mcc := routing.NewOracle(m), routing.NewMCC(set)
		dims := m.Dims()
		far := grid.Point{X: dims.X - 1, Y: dims.Y - 1, Z: dims.Z - 1}
		// sources returns hop sources toward d: one drawn from each octant
		// of d, and ones sharing one or two of d's coordinates.
		sources := func(d grid.Point) []grid.Point {
			pick := func(lo, hi int) int { return lo + r.Intn(hi-lo+1) }
			var out []grid.Point
			for k := 0; k < 8; k++ {
				var p grid.Point
				for a, c := range []*int{&p.X, &p.Y, &p.Z} {
					dc, hi := d.Axis(grid.Axis(a)), far.Axis(grid.Axis(a))
					if k>>a&1 == 0 {
						*c = pick(0, dc)
					} else {
						*c = pick(dc, hi)
					}
				}
				out = append(out, p)
				tie := p
				switch r.Intn(3) {
				case 0:
					tie.X = d.X
				case 1:
					tie.Y, tie.Z = d.Y, d.Z
				default:
					tie.Z = d.Z
				}
				out = append(out, tie)
			}
			return out
		}
		var groups [][]grid.Point
		for step := 0; step < 12; step++ {
			if step > 0 {
				if len(groups) == 0 || r.Intn(3) < 2 {
					var placed []grid.Point
					if r.Intn(2) == 0 {
						placed = fault.Uniform{Count: 1}.Inject(m, r)
					} else {
						placed = fault.Clustered{Clusters: 1, Size: 2 + r.Intn(3)}.Inject(m, r)
					}
					lab.AddFaults(placed)
					groups = append(groups, placed)
				} else {
					k := r.Intn(len(groups))
					m.RemoveFaults(groups[k]...)
					lab.RemoveFaults(groups[k])
					groups = append(groups[:k], groups[k+1:]...)
				}
				set.Refresh()
				oracle.InvalidateCache()
				mcc.InvalidateCache()
			}
			cases := append([]refCase{fieldCase(oracle, m.FaultyWords, false), fieldCase(mcc, set.UnionAvoidWords, false)}, blockCases(m)...)
			fresh := []func() routing.Provider{
				func() routing.Provider { return routing.NewOracle(m) },
				func() routing.Provider {
					return routing.NewMCC(region.FindMCCs(labeling.Compute(m, lab.Orientation())))
				},
				func() routing.Provider { return routing.NewBlock(block.Build(m, block.BoundingBox)) },
				func() routing.Provider { return routing.NewBlock(block.Build(m, block.ConvexityRule)) },
			}
			for q := 0; q < 6; q++ {
				d := int32(r.Intn(n))
				dPt := m.Point(int(d))
				for _, uPt := range sources(dPt) {
					u := m.ID(uPt)
					for i, rc := range cases {
						got := rc.prov.CandidateMaskID(m, u, uPt, d, dPt)
						want := fresh[i]().CandidateMaskID(m, u, uPt, d, dPt)
						if ref := routing.ReferenceMask(m, rc.avoid(d), rc.reach, u, d); got != want || got != ref {
							t.Fatalf("seed %d step %d: %s (%v -> %v) = %06b, fresh provider %06b, reference %06b",
								seed, step, rc.prov.Name(), uPt, dPt, got, want, ref)
						}
					}
				}
			}
		}
	}
}

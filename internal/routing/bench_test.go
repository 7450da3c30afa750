package routing_test

// Benchmarks for the per-hop provider decision, with and without fault churn.
// The churn variants model the traffic engine's steady state around a mid-run
// fault injection: the labelling absorbs the new fault incrementally, the
// component set refreshes in place, the provider marks stale the fields whose
// box holds the fault, and the next queries re-sweep only the stale fields
// they actually touch.

import (
	"testing"

	"mccmesh/internal/fault"
	"mccmesh/internal/grid"
	"mccmesh/internal/labeling"
	"mccmesh/internal/mesh"
	"mccmesh/internal/region"
	"mccmesh/internal/rng"
	"mccmesh/internal/routing"
)

// benchState holds a deterministic query mix over healthy node IDs: hops
// u → d where u has a healthy forward neighbour toward d.
type benchState struct {
	m   *mesh.Mesh
	lab *labeling.Labeling
	set *region.ComponentSet
	// provs is the per-orientation provider array the decision benchmarks
	// index with oi, mirroring the traffic engine: all sources feeding one
	// provider approach their destinations from the same octant, so octant
	// field builds converge instead of thrashing between opposite corners.
	provs [8]*routing.FieldProvider
	u, d  []int32
	oi    []uint8 // orientation index of each query
	uP    []grid.Point
	dP    []grid.Point
}

func newBenchState(tb testing.TB) *benchState {
	m := mesh.NewCube(16)
	fault.Uniform{Count: 120}.Inject(m, rng.New(11))
	lab := labeling.Compute(m, grid.PositiveOrientation)
	set := region.FindMCCs(lab)
	st := &benchState{m: m, lab: lab, set: set}
	for i := range st.provs {
		st.provs[i] = routing.NewMCC(set)
	}
	r := rng.New(23)
	for len(st.u) < 4096 {
		ui := int32(r.Intn(m.NodeCount()))
		di := int32(r.Intn(m.NodeCount()))
		uP, dP := m.Point(int(ui)), m.Point(int(di))
		if m.FaultyAt(int(ui)) || m.FaultyAt(int(di)) || ui == di {
			continue
		}
		orient := grid.OrientationOf(uP, dP)
		var vi int32 = mesh.NoNeighbor
		for _, a := range m.Axes() {
			if uP.Axis(a) == dP.Axis(a) {
				continue
			}
			if q := m.NeighborID(ui, orient.Forward(a)); q != mesh.NoNeighbor && !m.FaultyAt(int(q)) {
				vi = q
				break
			}
		}
		if vi == mesh.NoNeighbor {
			continue
		}
		st.u = append(st.u, ui)
		st.d = append(st.d, di)
		st.oi = append(st.oi, uint8(orient.Index()))
		st.uP = append(st.uP, uP)
		st.dP = append(st.dP, dP)
	}
	return st
}

// churn injects one extra fault and pushes it through the incremental update
// path the traffic engine uses: relabel, refresh, scoped invalidation.
func (st *benchState) churn(r *rng.Rand) {
	for {
		idx := r.Intn(st.m.NodeCount())
		if st.m.FaultyAt(idx) {
			continue
		}
		p := st.m.Point(idx)
		st.m.SetFaulty(p, true)
		st.lab.AddFaults([]grid.Point{p})
		st.set.Refresh()
		for _, pr := range st.provs {
			pr.InvalidateCache()
		}
		return
	}
}

// BenchmarkMCCDecisionHit16 is the steady-state per-hop decision: every
// destination's field is already built and up to date, so each
// CandidateMaskID call is the pure fast path — one slot read plus up to
// three bit probes. This is the cost the traffic engine pays for the vast
// majority of hops between fault events.
func BenchmarkMCCDecisionHit16(b *testing.B) {
	st := newBenchState(b)
	for k := range st.u {
		st.provs[st.oi[k]].CandidateMaskID(st.m, st.u[k], st.uP[k], st.d[k], st.dP[k])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & 4095
		st.provs[st.oi[k]].CandidateMaskID(st.m, st.u[k], st.uP[k], st.d[k], st.dP[k])
	}
}

// BenchmarkMCCDecisionBuild16 is the decision miss path: the queried field is
// marked stale over all its rows before every call, so each decision
// resolves through a whole-field sweep in place (the most the first query
// toward a destination pays after a fault event reaches its field).
func BenchmarkMCCDecisionBuild16(b *testing.B) {
	st := newBenchState(b)
	for k := range st.u {
		st.provs[st.oi[k]].CandidateMaskID(st.m, st.u[k], st.uP[k], st.d[k], st.dP[k])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & 4095
		routing.StaleField(st.provs[st.oi[k]], st.d[k])
		st.provs[st.oi[k]].CandidateMaskID(st.m, st.u[k], st.uP[k], st.d[k], st.dP[k])
	}
}

// BenchmarkMCCDecisionChurn16 drives the decision path through sustained
// fault churn: an incremental fault injection (relabel, refresh, scoped
// invalidation) every 2048 decisions. The query stream cycles through 4096
// distinct destinations, so every revisit to a field the fault reached
// re-sweeps it — this measures the lazy-rebuild regime, the worst case the
// engine approaches only around fault events (its hit ratio between events
// is what BenchmarkMCCDecisionHit16 measures).
func BenchmarkMCCDecisionChurn16(b *testing.B) {
	st := newBenchState(b)
	r := rng.New(31)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2048 == 2047 && st.m.FaultCount() < st.m.NodeCount()/8 {
			st.churn(r)
		}
		k := i & 4095
		st.provs[st.oi[k]].CandidateMaskID(st.m, st.u[k], st.uP[k], st.d[k], st.dP[k])
	}
}

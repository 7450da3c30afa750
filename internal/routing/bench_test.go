package routing_test

// Benchmarks for the per-hop provider decision, with and without fault churn.
// The churn variants model the traffic engine's steady state around a mid-run
// fault injection: the labelling absorbs the new fault incrementally, the
// component set refreshes in place, and the provider patches the exception
// lists the fault reaches in place, so no built octant is swept again.

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
	return newBenchStateOf(tb, 16, 120, 4096)
}

// newBenchStateOf is benchState over an n³ mesh with the given number of
// uniform faults and queries.
func newBenchStateOf(tb testing.TB, n, faults, queries int) *benchState {
	m := mesh.NewCube(n)
	fault.Uniform{Count: faults}.Inject(m, rng.New(11))
	lab := labeling.Compute(m, grid.PositiveOrientation)
	set := region.FindMCCs(lab)
	st := &benchState{m: m, lab: lab, set: set}
	for i := range st.provs {
		st.provs[i] = routing.NewMCC(set)
	}
	r := rng.New(23)
	for len(st.u) < queries {
		ui := int32(r.Intn(m.NodeCount()))
		di := int32(r.Intn(m.NodeCount()))
		st.add(r, ui, di)
	}
	return st
}

// add appends the query u → d when both are healthy and u has a healthy
// forward neighbour toward d.
func (st *benchState) add(r *rng.Rand, ui, di int32) bool {
	m := st.m
	uP, dP := m.Point(int(ui)), m.Point(int(di))
	if m.FaultyAt(int(ui)) || m.FaultyAt(int(di)) || ui == di {
		return false
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
		return false
	}
	st.u = append(st.u, ui)
	st.d = append(st.d, di)
	st.oi = append(st.oi, uint8(orient.Index()))
	st.uP = append(st.uP, uP)
	st.dP = append(st.dP, dP)
	return true
}

// churn injects one extra fault and pushes it through the incremental update
// path the traffic engine uses: relabel, refresh, in-place patch.
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

// BenchmarkMCCDecisionHit32 is the per-hop decision hit at the scale of the
// benchmark workloads: a 32³ mesh with 400 faults, every healthy node a
// destination once, from a random healthy source, in random order, over the
// eight orientation providers. After a warm-up pass every call is a hit, but
// the tables of 32768 destinations do not stay in the core's caches, so this
// is the memory-bound hit the traffic engine pays, next to
// BenchmarkMCCDecisionHit16's hot one.
func BenchmarkMCCDecisionHit32(b *testing.B) {
	st := newBenchStateOf(b, 32, 400, 0)
	r := rng.New(29)
	n := st.m.NodeCount()
	for _, d := range r.Perm(n) {
		for !st.add(r, int32(r.Intn(n)), int32(d)) && !st.m.FaultyAt(d) {
		}
	}
	for k := range st.u {
		st.provs[st.oi[k]].CandidateMaskID(st.m, st.u[k], st.uP[k], st.d[k], st.dP[k])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, k := 0, 0; i < b.N; i, k = i+1, k+1 {
		if k == len(st.u) {
			k = 0
		}
		st.provs[st.oi[k]].CandidateMaskID(st.m, st.u[k], st.uP[k], st.d[k], st.dP[k])
	}
}

// BenchmarkMCCDecisionBuild16 is the decision miss path: the queried
// destination's entry is cleared before every call (DropField), so each
// decision resolves through a whole-octant sweep, what the first query from
// an octant not built yet pays.
func BenchmarkMCCDecisionBuild16(b *testing.B) {
	st := newBenchState(b)
	for k := range st.u {
		st.provs[st.oi[k]].CandidateMaskID(st.m, st.u[k], st.uP[k], st.d[k], st.dP[k])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & 4095
		routing.DropField(st.provs[st.oi[k]], st.d[k])
		st.provs[st.oi[k]].CandidateMaskID(st.m, st.u[k], st.uP[k], st.d[k], st.dP[k])
	}
}

// BenchmarkMCCDecisionChurn16 drives the decision path through sustained
// fault churn: an incremental fault injection (relabel, refresh, in-place
// patch of every list the fault reaches) every 2048 decisions. The query
// stream cycles through 4096 distinct destinations; once their octants are
// built, a fault event costs its patch and no sweep, so this measures the
// patch amortised over 2048 hits (the hit alone is
// BenchmarkMCCDecisionHit16).
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

// BenchmarkInvalidate32 is the information model under churn at the scale of
// the benchmark workloads: the eight orientation MCC providers of a 32³ mesh
// with 400 faults, each holding an octant of every destination, take one
// fail event and one repair event of the same three adjacent cells per op
// through the path the traffic engine uses (relabel, region refresh,
// InvalidateCache), each invalidation patching every list the cells reach.
func BenchmarkInvalidate32(b *testing.B) {
	m := mesh.NewCube(32)
	fault.Uniform{Count: 400}.Inject(m, rng.New(11))
	var labs [8]*labeling.Labeling
	var sets [8]*region.ComponentSet
	var provs [8]*routing.FieldProvider
	n := m.NodeCount()
	for i := range provs {
		o := grid.OrientationFromIndex(i)
		labs[i] = labeling.Compute(m, o)
		sets[i] = region.FindMCCs(labs[i])
		provs[i] = routing.NewMCC(sets[i])
		// The source corner of orientation o: every destination's octant
		// toward it is the one o's packets approach from.
		var u grid.Point
		if o.SX < 0 {
			u.X = 31
		}
		if o.SY < 0 {
			u.Y = 31
		}
		if o.SZ < 0 {
			u.Z = 31
		}
		for d := range n {
			provs[i].CandidateMaskID(m, m.ID(u), u, int32(d), m.Point(d))
		}
	}
	// Three healthy cells in a row along X, at the middle of the mesh.
	var cells []grid.Point
	for x := 0; len(cells) < 3; x++ {
		if p := (grid.Point{X: x, Y: 16, Z: 16}); m.IsFaulty(p) {
			cells = cells[:0]
		} else {
			cells = append(cells, p)
		}
	}
	event := func(fail bool) {
		if fail {
			m.AddFaults(cells...)
		} else {
			m.RemoveFaults(cells...)
		}
		for i := range provs {
			if fail {
				labs[i].AddFaults(cells)
			} else {
				labs[i].RemoveFaults(cells)
			}
			sets[i].Refresh()
			provs[i].InvalidateCache()
		}
	}
	event(true)
	event(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		event(true)
		event(false)
	}
}

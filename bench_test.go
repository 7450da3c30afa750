package mccmesh

// Benchmarks regenerating every figure and evaluation table of the paper, one
// benchmark per artifact of the DESIGN.md §4 index. The table benchmarks
// (BenchmarkTableE*) run reduced sweeps of the checked-in specs/eN.json;
// `mcc run -spec specs/eN.json` runs the full ones.

import (
	"context"
	"os"
	"testing"

	"mccmesh/internal/block"
	"mccmesh/internal/core"
	"mccmesh/internal/fault"
	"mccmesh/internal/feasibility"
	"mccmesh/internal/grid"
	"mccmesh/internal/labeling"
	"mccmesh/internal/mesh"
	"mccmesh/internal/protocol"
	"mccmesh/internal/region"
	"mccmesh/internal/rng"
	"mccmesh/internal/routing"
	"mccmesh/internal/scenario"
	"mccmesh/internal/traffic"
)

func bench2DMesh(seed uint64, k, faults int) *mesh.Mesh {
	m := mesh.New2D(k, k)
	fault.Uniform{Count: faults, Protected: []grid.Point{{}, {X: k - 1, Y: k - 1}}}.Inject(m, rng.New(seed))
	return m
}

func bench3DMesh(seed uint64, k, faults int) *mesh.Mesh {
	m := mesh.New3D(k, k, k)
	fault.Uniform{Count: faults, Protected: []grid.Point{{}, {X: k - 1, Y: k - 1, Z: k - 1}}}.Inject(m, rng.New(seed))
	return m
}

// --- Figure benchmarks -------------------------------------------------------

// BenchmarkFigure1Labeling2D: the 2-D labelling procedure of Algorithm 1
// (Figure 1's useless / can't-reach definitions) on a 32x32 mesh with 5% faults.
func BenchmarkFigure1Labeling2D(b *testing.B) {
	m := bench2DMesh(1, 32, 51)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		labeling.Compute(m, grid.PositiveOrientation)
	}
}

// BenchmarkFigure2Identification2D: the identification process of Figure 2 as
// messages over the simulator.
func BenchmarkFigure2Identification2D(b *testing.B) {
	m := bench2DMesh(2, 24, 30)
	l := labeling.Compute(m, grid.PositiveOrientation)
	cs := region.FindMCCs(l)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		protocol.RunInformationModel(m, l, cs)
	}
}

// BenchmarkFigure3Boundary2D: boundary construction plus forbidden-region
// merging (Figure 3) — geometric part only.
func BenchmarkFigure3Boundary2D(b *testing.B) {
	m := bench2DMesh(3, 24, 30)
	l := labeling.Compute(m, grid.PositiveOrientation)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cs := region.FindMCCs(l)
		for _, c := range cs.Components {
			cs.Corners2D(c)
			cs.EdgeNodes(c)
		}
	}
}

// BenchmarkFigure4Feasibility2D: the two-detection-message feasibility check
// of Figure 4.
func BenchmarkFigure4Feasibility2D(b *testing.B) {
	m := bench2DMesh(4, 32, 80)
	s, d := grid.Point{}, grid.Point{X: 31, Y: 31}
	l := labeling.Compute(m, grid.OrientationOf(s, d))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		feasibility.Detect2D(l, s, d)
	}
}

// BenchmarkFigure5Regions3D: labelling plus MCC extraction on the 3-D mesh
// scale of Figure 5.
func BenchmarkFigure5Regions3D(b *testing.B) {
	m := bench3DMesh(5, 10, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := labeling.Compute(m, grid.PositiveOrientation)
		region.FindMCCs(l)
	}
}

// BenchmarkFigure6Sections3D: section, corner and edge extraction of the 3-D
// identification process (Figure 6).
func BenchmarkFigure6Sections3D(b *testing.B) {
	m := bench3DMesh(6, 10, 60)
	l := labeling.Compute(m, grid.PositiveOrientation)
	cs := region.FindMCCs(l)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, c := range cs.Components {
			cs.Edges(c)
		}
	}
}

// BenchmarkFigure7Feasibility3D: the three RMP-surface sweeps of Figure 7.
func BenchmarkFigure7Feasibility3D(b *testing.B) {
	m := bench3DMesh(7, 10, 60)
	s, d := grid.Point{}, grid.Point{X: 9, Y: 9, Z: 9}
	l := labeling.Compute(m, grid.OrientationOf(s, d))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		feasibility.Detect3D(l, s, d)
	}
}

// BenchmarkFigure8Routing3D: fully adaptive minimal routing under the MCC
// model (Figure 8).
func BenchmarkFigure8Routing3D(b *testing.B) {
	m := bench3DMesh(8, 10, 60)
	s, d := grid.Point{}, grid.Point{X: 9, Y: 9, Z: 9}
	l := labeling.Compute(m, grid.OrientationOf(s, d))
	cs := region.FindMCCs(l)
	if !feasibility.Theorem(cs, s, d) {
		b.Skip("benchmark fault pattern blocks the corner pair")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		provider := routing.NewMCC(cs)
		tr := routing.New(m, provider, nil).Route(s, d)
		if !tr.Succeeded() {
			b.Fatal("routing failed")
		}
	}
}

// BenchmarkDistributedLabeling3D measures the message-passing labelling
// protocol (the practical implementation stressed in the introduction).
func BenchmarkDistributedLabeling3D(b *testing.B) {
	m := bench3DMesh(9, 8, 40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		protocol.RunLabeling(m, grid.PositiveOrientation)
	}
}

// BenchmarkBlockBaseline3D measures the rectangular-faulty-block construction
// used as the comparison point.
func BenchmarkBlockBaseline3D(b *testing.B) {
	m := bench3DMesh(10, 10, 60)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		block.Build(m, block.BoundingBox)
		block.Build(m, block.ConvexityRule)
	}
}

// --- Evaluation-table benchmarks ---------------------------------------------

// benchTable runs the table spec specs/<exp>.json on a reduced sweep: an 8³
// mesh, 3 trials of 3 pairs, fault counts {10, 30} (30 alone for the
// single-count tables E3 and E6).
func benchTable(b *testing.B, exp string) {
	f, err := os.Open("specs/" + exp + ".json")
	if err != nil {
		b.Fatal(err)
	}
	sc, err := scenario.Load(f)
	f.Close()
	if err != nil {
		b.Fatal(err)
	}
	spec := sc.Spec()
	spec.Mesh = scenario.Cube(8)
	spec.Trials = 3
	spec.Measure.Pairs = 3
	spec.Faults.Counts = []int{10, 30}
	if exp == "e3" || exp == "e6" {
		spec.Faults.Counts = []int{30}
	}
	if sc, err = scenario.New(spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableE1 regenerates table E1 (healthy nodes absorbed by fault
// regions, MCC vs RFB).
func BenchmarkTableE1(b *testing.B) { benchTable(b, "e1") }

// BenchmarkTableE2 regenerates table E2 (minimal-routing success rate per
// information model).
func BenchmarkTableE2(b *testing.B) { benchTable(b, "e2") }

// BenchmarkTableE3 regenerates table E3 (success rate vs distance).
func BenchmarkTableE3(b *testing.B) { benchTable(b, "e3") }

// BenchmarkTableE4 regenerates table E4 (information-model message overhead).
func BenchmarkTableE4(b *testing.B) { benchTable(b, "e4") }

// BenchmarkTableE5 regenerates table E5 (region-size ablation).
func BenchmarkTableE5(b *testing.B) { benchTable(b, "e5") }

// BenchmarkTableE6 regenerates table E6 (routing adaptivity).
func BenchmarkTableE6(b *testing.B) { benchTable(b, "e6") }

// --- Continuous-traffic benchmarks -------------------------------------------

// benchTrafficEngine measures one continuous-traffic trial: geometric
// injection clocking, per-hop information-model consultation and latency
// accounting, for the given model.
func benchTrafficEngine(b *testing.B, model string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := bench3DMesh(11, 8, 30)
		im, err := traffic.ModelByName(model, core.NewModel(m))
		if err != nil {
			b.Fatal(err)
		}
		e := traffic.NewEngine(m, im, traffic.Uniform{}, traffic.Options{Rate: 0.02, Warmup: 20, Window: 100})
		if res := e.Run(uint64(i)); res.Delivered == 0 {
			b.Fatal("no traffic delivered")
		}
	}
}

// BenchmarkTrafficEngineMCC runs the workload engine under the paper's MCC
// information model.
func BenchmarkTrafficEngineMCC(b *testing.B) { benchTrafficEngine(b, "mcc") }

// BenchmarkTrafficEngineLocal runs the workload engine under the stateless
// local-greedy floor (the engine-overhead baseline).
func BenchmarkTrafficEngineLocal(b *testing.B) { benchTrafficEngine(b, "local") }

// BenchmarkTrafficSweepParallel measures the deterministic parallel sweep
// runner end to end: 8 trials sharded across GOMAXPROCS workers.
func BenchmarkTrafficSweepParallel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		results := traffic.RunTrials(0, 8, uint64(i), func(_ int, seed uint64) *traffic.Result {
			m := mesh.New3D(8, 8, 8)
			fault.Uniform{Count: 30}.Inject(m, rng.New(rng.Derive(seed, 1<<48)))
			im, err := traffic.ModelByName("mcc", core.NewModel(m))
			if err != nil {
				panic(err)
			}
			e := traffic.NewEngine(m, im, traffic.Uniform{}, traffic.Options{Rate: 0.02, Warmup: 20, Window: 100})
			return e.Run(seed)
		})
		if traffic.Collect(results).Delivered == 0 {
			b.Fatal("sweep delivered nothing")
		}
	}
}

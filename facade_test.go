package mccmesh

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mccmesh/internal/routing"
	"mccmesh/internal/traffic"
)

// The facade tests exercise the public API exactly as the examples do.

func TestFacadeQuickstartFlow(t *testing.T) {
	m := NewCube(8)
	r := NewRand(11)
	s, d := At(0, 0, 0), At(7, 7, 7)
	placed := InjectUniform(m, r, 20, s, d)
	if len(placed) != 20 || m.FaultCount() != 20 {
		t.Fatalf("injection placed %d faults", len(placed))
	}

	model := NewModel(m)
	if model.Feasible(s, d) != MinimalPathExists(m, s, d) {
		t.Error("facade feasibility disagrees with ground truth")
	}
	if !model.Feasible(s, d) {
		t.Skip("fault pattern blocks the corner pair for this seed")
	}
	tr, err := model.Route(s, d)
	if err != nil || !tr.Succeeded() {
		t.Fatalf("route failed: %v %v", err, tr)
	}
	if tr.Hops() != Distance(s, d) {
		t.Errorf("path length %d, want %d", tr.Hops(), Distance(s, d))
	}
}

func TestFacadeHelpers(t *testing.T) {
	m := New2D(6, 6)
	m.AddFaults(At(2, 2, 0))
	if !Feasible(m, At(0, 0, 0), At(5, 5, 0)) {
		t.Error("single fault cannot block a 6x6 corner pair")
	}
	path := FindMinimalPath(m, At(0, 0, 0), At(5, 5, 0))
	if len(path) != Distance(At(0, 0, 0), At(5, 5, 0))+1 {
		t.Errorf("path length %d", len(path))
	}
	if !GroundTruthFeasible(m, At(0, 0, 0), At(5, 5, 0)) {
		t.Error("ground truth wrong")
	}
	ok, hops := Detect(m, At(0, 0, 0), At(5, 5, 0))
	if !ok || hops <= 0 {
		t.Errorf("detection wrong: %v %d", ok, hops)
	}
	if AbsorbedHealthyNodes(m, At(0, 0, 0), At(5, 5, 0)) != 0 {
		t.Error("one isolated fault absorbs nothing")
	}
	if OrientationOf(At(3, 3, 0), At(0, 5, 0)).SX != -1 {
		t.Error("orientation wrong")
	}
}

func TestFacadeRouteHelper(t *testing.T) {
	m := New3D(6, 6, 6)
	r := NewRand(3)
	InjectClustered(m, r, 2, 4, At(0, 0, 0), At(5, 5, 5))
	tr, err := Route(m, At(0, 0, 0), At(5, 5, 5))
	if err != nil {
		t.Skipf("pair infeasible for this seed: %v", err)
	}
	if !tr.Succeeded() {
		t.Fatalf("route failed: %v", tr.Err)
	}
}

// TestFacadeRouteEndpointOutsideMesh: an endpoint outside the mesh is a
// routing error, not a panic and not a delivered path.
func TestFacadeRouteEndpointOutsideMesh(t *testing.T) {
	m := NewCube(4)
	for _, pair := range [][2]Point{
		{At(0, 0, 0), At(9, 9, 9)},
		{At(-1, 0, 0), At(3, 3, 3)},
	} {
		tr, err := Route(m, pair[0], pair[1])
		if err != nil {
			t.Fatalf("Route(%v, %v): %v", pair[0], pair[1], err)
		}
		if !errors.Is(tr.Err, routing.ErrEndpointOutOfMesh) {
			t.Errorf("Route(%v, %v): err = %v, want ErrEndpointOutOfMesh", pair[0], pair[1], tr.Err)
		}
		if tr.Succeeded() || tr.Hops() != 0 {
			t.Errorf("Route(%v, %v) delivered a %d-hop path outside the mesh", pair[0], pair[1], tr.Hops())
		}
	}
}

// TestFacadeMinimalPathEndpointOutsideMesh: with an endpoint outside the
// mesh there is no minimal path — not one through nonexistent nodes, and no
// panic on a negative coordinate.
func TestFacadeMinimalPathEndpointOutsideMesh(t *testing.T) {
	m := NewCube(4)
	for _, pair := range [][2]Point{
		{At(0, 0, 0), At(5, 1, 1)},
		{At(-1, 0, 0), At(3, 3, 3)},
		{At(2, 2, 2), At(0, -1, 0)},
	} {
		if MinimalPathExists(m, pair[0], pair[1]) {
			t.Errorf("MinimalPathExists(%v, %v) = true", pair[0], pair[1])
		}
		if path := FindMinimalPath(m, pair[0], pair[1]); path != nil {
			t.Errorf("FindMinimalPath(%v, %v) = %v", pair[0], pair[1], path)
		}
	}
}

func TestFacadeStatusConstants(t *testing.T) {
	if Safe.Unsafe() || !Faulty.Unsafe() || !Useless.Unsafe() || !CantReach.Unsafe() {
		t.Error("status constants wired incorrectly")
	}
}

func TestFacadeTrafficFlow(t *testing.T) {
	m := NewCube(6)
	InjectUniform(m, NewRand(5), 10)
	e, err := NewTrafficEngine(m, "mcc", "uniform", TrafficOptions{Rate: 0.02, Warmup: 10, Window: 60})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run(5)
	if res.Injected == 0 || res.Delivered == 0 {
		t.Fatalf("no traffic flowed: %+v", res)
	}
	if res.Lost != 0 {
		t.Errorf("packets lost with a static fault set: %+v", res)
	}
	if _, err := NewTrafficEngine(m, "nope", "uniform", TrafficOptions{}); err == nil {
		t.Error("unknown model should error")
	}
	if _, err := NewTrafficEngine(m, "mcc", "nope", TrafficOptions{}); err == nil {
		t.Error("unknown pattern should error")
	}
	if len(TrafficPatternNames()) == 0 || len(TrafficModelNames()) == 0 {
		t.Error("name listings should be non-empty")
	}
}

func TestFacadeScenarioFlow(t *testing.T) {
	var events int
	sc, err := NewScenario(
		WithCube(6),
		WithFaults("uniform"),
		WithFaultCounts(8),
		WithModels("mcc", "rfb"),
		WithPattern("hotspot", Params{"fraction": 0.2}),
		WithRates(0.02),
		WithWarmup(10),
		WithWindow(50),
		WithSeed(11),
		WithTrials(2),
		WithObserver(func(ScenarioEvent) { events++ }),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 || len(rep.Table.Rows) != 2 {
		t.Fatalf("expected 2 cells (1 pattern x 2 models x 1 rate): %d", len(rep.Cells))
	}
	if events != 4 {
		t.Errorf("observer saw %d events, want 4", events)
	}

	// The spec round-trips through LoadScenario and reproduces the report.
	var buf bytes.Buffer
	if err := sc.WriteSpec(&buf); err != nil {
		t.Fatal(err)
	}
	sc2, err := LoadScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := sc2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Table.CSV() != rep2.Table.CSV() {
		t.Error("LoadScenario(WriteSpec(sc)) produced a different table")
	}
}

func TestFacadeScenarioErrors(t *testing.T) {
	if _, err := NewScenario(WithCube(6), WithPatterns("hotpsot")); err == nil || !strings.Contains(err.Error(), `did you mean "hotspot"?`) {
		t.Errorf("typo should be suggested: %v", err)
	}
	if _, err := LoadScenario(strings.NewReader(`{"mesh": {"x": 5`)); err == nil {
		t.Error("truncated spec should error")
	}
}

func TestFacadeTrafficEnginePatternParams(t *testing.T) {
	m := NewCube(6)
	InjectUniform(m, NewRand(5), 10)
	// The hotspot fraction is a library-level knob now, not just a CLI flag.
	e, err := NewTrafficEngine(m, "mcc", "hotspot", TrafficOptions{
		Rate: 0.02, Warmup: 10, Window: 60,
		PatternParams: map[string]any{"fraction": 0.5, "target": []any{0, 0, 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := e.Run(5); res.Delivered == 0 {
		t.Fatalf("no traffic flowed: %+v", res)
	}
	_, err = NewTrafficEngine(m, "mcc", "hotspot", TrafficOptions{
		PatternParams: map[string]any{"fractoin": 0.5},
	})
	if err == nil || !strings.Contains(err.Error(), `did you mean "fraction"?`) {
		t.Errorf("bad parameter should be suggested: %v", err)
	}
	if _, err := NewTrafficEngine(m, "mcc", "hotspot", TrafficOptions{
		PatternParams: map[string]any{"fraction": 1.5},
	}); err == nil {
		t.Error("out-of-range fraction should error")
	}
}

// registerCorner registers the facade-test-corner pattern once per test
// binary, so the test can run repeatedly (-count=N) against the global
// registry.
var registerCorner sync.Once

func TestFacadeRegisterTrafficPattern(t *testing.T) {
	registerCorner.Do(func() {
		RegisterTrafficPattern(TrafficPatternEntry{
			Name: "facade-test-corner",
			Doc:  "everything goes to the origin corner",
			New: func(m *Mesh, _ RegistryArgs) (TrafficPattern, error) {
				return cornerPattern{}, nil
			},
		})
	})
	found := false
	for _, name := range TrafficPatternNames() {
		if name == "facade-test-corner" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered pattern not listed")
	}
	// Usable by name through the facade engine and through a scenario.
	m := NewCube(5)
	e, err := NewTrafficEngine(m, "mcc", "facade-test-corner", TrafficOptions{Rate: 0.03, Warmup: 5, Window: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res := e.Run(3); res.Delivered == 0 {
		t.Fatalf("custom pattern carried no traffic: %+v", res)
	}
	sc, err := NewScenario(WithCube(5), WithPatterns("facade-test-corner"), WithWindow(30), WithTrials(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// cornerPattern is the custom pattern registered by the facade test.
type cornerPattern struct{}

func (cornerPattern) Name() string { return "facade-test-corner" }
func (cornerPattern) Dest(_ *Rand, m *Mesh, src Point) (Point, bool) {
	d := At(0, 0, 0)
	if src == d || m.IsFaulty(d) {
		return Point{}, false
	}
	return d, true
}

// countedModelBuilds counts the constructions of the facade-test-counted
// model, registered once per test binary by TestFacadeTrafficEngineShards.
var (
	countedModelBuilds int
	registerCounted    sync.Once
)

// TestFacadeTrafficEngineShards: NewTrafficEngine fills ShardModel, so
// TrafficOptions.Shards takes effect — a 2-shard run builds the engine's model
// plus one per slab, and returns the same Result as one shard.
func TestFacadeTrafficEngineShards(t *testing.T) {
	registerCounted.Do(func() {
		RegisterTrafficModel(TrafficModelEntry{
			Name: "facade-test-counted",
			Doc:  "the MCC model, counting its constructions",
			New: func(model *Model, args RegistryArgs) (TrafficModel, error) {
				countedModelBuilds++
				return traffic.BuildModel("mcc", model, args)
			},
		})
	})
	run := func(shards int) (*TrafficResult, int) {
		countedModelBuilds = 0
		m := NewCube(6)
		InjectUniform(m, NewRand(9), 10)
		e, err := NewTrafficEngine(m, "facade-test-counted", "uniform", TrafficOptions{
			Rate: 0.03, Warmup: 10, Window: 60, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e.Run(9), countedModelBuilds
	}
	one, oneBuilds := run(1)
	two, twoBuilds := run(2)
	if oneBuilds != 1 || twoBuilds != 3 {
		t.Errorf("model builds: %d at 1 shard, %d at 2 shards; want 1 and 3 (engine + one per slab)", oneBuilds, twoBuilds)
	}
	if one.Delivered == 0 {
		t.Fatalf("no traffic flowed: %+v", one)
	}
	if !reflect.DeepEqual(one, two) {
		t.Errorf("2-shard result diverges from 1 shard:\n got %+v\nwant %+v", two, one)
	}
}

func TestFacadeTrafficTrialsDeterministic(t *testing.T) {
	trial := func(_ int, seed uint64) *TrafficResult {
		m := NewCube(5)
		InjectUniform(m, NewRand(seed), 6)
		e, err := NewTrafficEngine(m, "mcc", "uniform", TrafficOptions{Rate: 0.03, Warmup: 10, Window: 40})
		if err != nil {
			panic(err)
		}
		return e.Run(seed)
	}
	a := RunTrafficTrials(1, 6, 3, trial)
	b := RunTrafficTrials(4, 6, 3, trial)
	for i := range a {
		if a[i].Delivered != b[i].Delivered || a[i].Injected != b[i].Injected {
			t.Fatalf("trial %d differs between worker counts", i)
		}
	}
}

// TestFacadeChurnScenario drives the fault-churn surface end to end through
// the facade: a scenario with a stochastic fail/repair timeline must run,
// churn, and stay bit-identical across worker counts.
func TestFacadeChurnScenario(t *testing.T) {
	build := func(workers int) *Scenario {
		sc, err := NewScenario(
			WithCube(7),
			WithFaults("uniform"),
			WithFaultCounts(12),
			WithFaultTimeline(25, 60, "region", Params{"size": 3}),
			WithModels("mcc"),
			WithPatterns("uniform"),
			WithRates(0.02),
			WithWarmup(20),
			WithWindow(160),
			WithSeed(5),
			WithTrials(2),
			WithWorkers(workers),
		)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	repA, err := build(1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	repB, err := build(4).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if repA.Table.CSV() != repB.Table.CSV() {
		t.Fatalf("churn scenario not worker-count invariant:\n%s\n%s", repA.Table.CSV(), repB.Table.CSV())
	}
	if v, ok := repA.Cells[0].Values["failures"]; !ok || v == 0 {
		t.Fatalf("churn scenario reported no failures: %+v", repA.Cells[0].Values)
	}
	if v, ok := repA.Cells[0].Values["repairs"]; !ok || v == 0 {
		t.Fatalf("churn scenario reported no repairs: %+v", repA.Cells[0].Values)
	}
}

package traffic

import (
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"mccmesh/internal/core"
	"mccmesh/internal/fault"
	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/rng"
	"mccmesh/internal/simnet"
)

// newTrialEngine builds a mesh with `faults` uniform faults drawn from the
// trial seed, wraps it in the named information model and returns an engine.
func newTrialEngine(t *testing.T, modelName string, faults int, seed uint64, opts Options) *Engine {
	t.Helper()
	m := mesh.New3D(6, 6, 6)
	if faults > 0 {
		fault.Uniform{Count: faults}.Inject(m, rng.New(rng.Derive(seed, 1<<48)))
	}
	im, err := ModelByName(modelName, core.NewModel(m))
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(m, im, Uniform{}, opts)
}

func TestEngineFaultFreeDeliversEverything(t *testing.T) {
	opts := Options{Rate: 0.02, Warmup: 20, Window: 80}
	res := newTrialEngine(t, "mcc", 0, 11, opts).Run(11)
	if res.Injected == 0 || res.MeasuredDelivered == 0 {
		t.Fatalf("no traffic flowed: %+v", res)
	}
	if res.Delivered != res.Injected || res.Stuck != 0 || res.Lost != 0 {
		t.Errorf("fault-free traffic must all deliver: %+v", res)
	}
	if res.Offered != res.Injected+res.Skipped {
		t.Errorf("offered %d != injected %d + skipped %d", res.Offered, res.Injected, res.Skipped)
	}
	if res.Latency.N() != int64(res.MeasuredDelivered) || res.Hops.N() != res.Latency.N() {
		t.Errorf("histogram counts out of sync with measured deliveries: %+v", res)
	}
	// With unit link delay and minimal routing, latency equals hop count.
	if res.Latency.Mean() != res.Hops.Mean() {
		t.Errorf("latency mean %v != hops mean %v under unit link delay", res.Latency.Mean(), res.Hops.Mean())
	}
	if p99 := res.Latency.Percentile(0.99); p99 > 15 {
		t.Errorf("p99 latency %d exceeds the 6x6x6 diameter", p99)
	}
	if tp := res.Throughput(); tp <= 0 || tp > opts.Rate*1.5 {
		t.Errorf("throughput %v implausible for offered rate %v", tp, opts.Rate)
	}
}

func TestEngineAccountingWithFaults(t *testing.T) {
	for _, name := range []string{"mcc", "rfb", "labels", "local", "oracle"} {
		res := newTrialEngine(t, name, 20, 5, Options{Rate: 0.02, Warmup: 20, Window: 80}).Run(5)
		// With a static fault set no node ever dies mid-run, so no packet can
		// be dropped in flight: every injected packet must be delivered or
		// stuck. (Lost is derived, so checking it alone would be circular.)
		if res.Lost != 0 {
			t.Errorf("%s: %d packets lost with a static fault set (delivered %d + stuck %d != injected %d)",
				name, res.Lost, res.Delivered, res.Stuck, res.Injected)
		}
		if res.Delivered == 0 {
			t.Errorf("%s: nothing delivered", name)
		}
	}
}

func TestEngineFaultEventBeforeFirstPacket(t *testing.T) {
	// A fault event at t=0 fires before any packet asks the model for a
	// provider; every model must invalidate cleanly from that state
	// (regression: the oracle once panicked on its nil cached provider).
	for _, name := range []string{"mcc", "rfb", "labels", "local", "oracle"} {
		m := mesh.New3D(5, 5, 5)
		im, err := ModelByName(name, core.NewModel(m))
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(m, im, Uniform{}, Options{
			Rate: 0.03, Warmup: 5, Window: 40,
			Faults: []FaultEvent{{At: 0, Inject: fault.Uniform{Count: 4}}},
		})
		res := e.Run(2)
		if res.Delivered == 0 {
			t.Errorf("%s: nothing delivered after t=0 fault event", name)
		}
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() *Result {
		return newTrialEngine(t, "mcc", 15, 42, Options{Rate: 0.03, Warmup: 10, Window: 60}).Run(42)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical seeds diverged:\n%+v\n%+v", a, b)
	}
}

func TestEngineDynamicFaultInjection(t *testing.T) {
	m := mesh.New3D(6, 6, 6)
	im, err := ModelByName("mcc", core.NewModel(m))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(m, im, Uniform{}, Options{
		Rate: 0.05, Warmup: 10, Window: 120,
		Faults: []FaultEvent{
			{At: 40, Inject: fault.Uniform{Count: 8}},
			{At: 80, Inject: fault.Clustered{Clusters: 1, Size: 5}},
		},
	})
	res := e.Run(9)
	if m.FaultCount() != 13 {
		t.Fatalf("fault schedule placed %d faults, want 13", m.FaultCount())
	}
	if res.Injected != res.Delivered+res.Stuck+res.Lost {
		t.Errorf("accounting broken under dynamic faults: %+v", res)
	}
	// Packets in flight toward dying nodes (or re-routed into dead ends) must
	// show up as lost or stuck, not vanish.
	if res.Delivered == res.Injected {
		t.Log("note: every packet survived the fault events (possible but unusual)")
	}
	if res.MeasuredDelivered == 0 {
		t.Error("traffic collapsed entirely after fault injection")
	}
	// Determinism holds across fault-schedule runs too.
	m2 := mesh.New3D(6, 6, 6)
	im2, _ := ModelByName("mcc", core.NewModel(m2))
	e2 := NewEngine(m2, im2, Uniform{}, Options{
		Rate: 0.05, Warmup: 10, Window: 120,
		Faults: []FaultEvent{
			{At: 40, Inject: fault.Uniform{Count: 8}},
			{At: 80, Inject: fault.Clustered{Clusters: 1, Size: 5}},
		},
	})
	if res2 := e2.Run(9); !reflect.DeepEqual(res, res2) {
		t.Errorf("dynamic-fault runs diverged:\n%+v\n%+v", res, res2)
	}
}

func TestEngineStuckUnderLocalGreedy(t *testing.T) {
	// A concave fault wall reliably traps the local-greedy model; the MCC
	// model routes around it. Build a 2-D pocket open toward -X.
	build := func(name string) *Result {
		m := mesh.New2D(8, 8)
		m.AddFaults(
			grid.Point{X: 4, Y: 2}, grid.Point{X: 4, Y: 3}, grid.Point{X: 4, Y: 4},
			grid.Point{X: 3, Y: 4}, grid.Point{X: 2, Y: 4},
			grid.Point{X: 2, Y: 2}, grid.Point{X: 2, Y: 3},
		)
		im, err := ModelByName(name, core.NewModel(m))
		if err != nil {
			t.Fatal(err)
		}
		return NewEngine(m, im, Uniform{}, Options{Rate: 0.05, Warmup: 10, Window: 200}).Run(3)
	}
	greedy := build("local")
	mcc := build("mcc")
	if greedy.Stuck == 0 {
		t.Error("local greedy should hit dead ends inside the pocket")
	}
	if mcc.DeliveredRatio() < greedy.DeliveredRatio() {
		t.Errorf("MCC delivered %.3f < local greedy %.3f", mcc.DeliveredRatio(), greedy.DeliveredRatio())
	}
}

// TestEventBudgetSurfacesInResult: a trial that exhausts the simulator's
// event budget must come back as a Result with Err set (and the counters of
// the prefix that ran), not as a panic, and Collect must aggregate the
// failure.
func TestEventBudgetSurfacesInResult(t *testing.T) {
	e := newTrialEngine(t, "local", 0, 5, Options{Rate: 0.5, Window: 200, MaxEvents: 64})
	res := e.Run(5)
	if !errors.Is(res.Err, simnet.ErrEventBudget) {
		t.Fatalf("Result.Err = %v, want simnet.ErrEventBudget", res.Err)
	}
	if res.Events != 64 {
		t.Errorf("Events = %d, want exactly the budget 64", res.Events)
	}
	agg := Collect([]*Result{res, e.Run(6)})
	if agg.Failed == 0 || agg.Err == nil {
		t.Errorf("Collect must surface failed trials: %+v", agg)
	}
}

// TestPacketFitsCacheLine pins the packet record to one cache line, and the
// position it carries, moved hop by hop, to grid.Step: forward reads both in
// place of a per-node coordinate table.
func TestPacketFitsCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(packet{}); size > 64 {
		t.Errorf("packet is %d B, want at most 64", size)
	}
	p := grid.Point{X: 3, Y: 4, Z: 5}
	for _, d := range grid.Directions3D {
		c := coordOf(p)
		c.step(d)
		if got, want := c.point(), grid.Step(p, d); got != want {
			t.Errorf("step %v from %v = %v, want %v", d, p, got, want)
		}
	}
}

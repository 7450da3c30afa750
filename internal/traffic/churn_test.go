package traffic

// Tests for the fault-churn timeline: stochastic fail/repair streams driven
// through the live engine, the incremental repair path against wholesale
// invalidation, and the determinism churn trials must keep at any worker
// count.

import (
	"reflect"
	"testing"

	"mccmesh/internal/core"
	"mccmesh/internal/fault"
	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/rng"
	"mccmesh/internal/routing"
)

// churnTimeline is the reference stochastic timeline of these tests.
func churnTimeline(until int64) *fault.Timeline {
	shape, err := fault.Build("region", map[string]any{"size": 3})
	if err != nil {
		panic(err)
	}
	return &fault.Timeline{Until: until, MTTF: 25, MTTR: 60, Shape: shape}
}

// churnEngine builds one churn trial over a fresh mesh.
func churnEngine(tb testing.TB, model string, tl *fault.Timeline, seed uint64) *Engine {
	tb.Helper()
	m := mesh.NewCube(8)
	fault.Uniform{Count: 25}.Inject(m, rng.New(rng.Derive(seed, 1<<48)))
	im, err := ModelByName(model, core.NewModel(m))
	if err != nil {
		tb.Fatal(err)
	}
	p, err := PatternByName("uniform", m, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return NewEngine(m, im, p, Options{
		Rate: 0.02, Warmup: 40, Window: 260, MaxEvents: 20_000_000, Timeline: tl,
	})
}

// TestTimelineProgramDeterminism pins Program to its seed: identical
// (timeline, seed) pairs must yield identical step streams, failures must
// precede their repairs, and every step must respect the horizon.
func TestTimelineProgramDeterminism(t *testing.T) {
	tl := churnTimeline(300)
	a := tl.Program(rng.New(9))
	b := tl.Program(rng.New(9))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Program is not deterministic for a fixed seed")
	}
	if len(a) == 0 {
		t.Fatal("no steps materialised (mttf 25 over 300 ticks should arrive ~12 groups)")
	}
	failAt := map[int]int64{}
	for i, s := range a {
		if s.At < 0 || s.At >= 300 {
			t.Fatalf("step %d at %d escapes [0, 300)", i, s.At)
		}
		if i > 0 && a[i-1].At > s.At {
			t.Fatalf("steps out of order: %d after %d", s.At, a[i-1].At)
		}
		if s.Repair {
			ft, ok := failAt[s.Group]
			if !ok {
				t.Fatalf("repair of group %d precedes its failure", s.Group)
			}
			if s.At <= ft {
				t.Fatalf("group %d repaired at %d, failed at %d", s.Group, s.At, ft)
			}
		} else {
			if s.Inject == nil {
				t.Fatalf("failure step %d has no injector", i)
			}
			failAt[s.Group] = s.At
		}
	}
	if c := tl.Program(rng.New(10)); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical programs")
	}
}

// TestTimelineFixedEvents checks the deterministic entries: fail exactly the
// listed nodes at the listed tick, repair them after the listed delay.
func TestTimelineFixedEvents(t *testing.T) {
	target := grid.Point{X: 4, Y: 4, Z: 4}
	tl := &fault.Timeline{
		Until: 200,
		Fixed: []fault.FixedEvent{{At: 60, Inject: fault.Exact{Nodes: []grid.Point{target}}, RepairAfter: 80}},
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	steps := tl.Program(rng.New(1))
	if len(steps) != 2 || steps[0].Repair || !steps[1].Repair ||
		steps[0].At != 60 || steps[1].At != 140 || steps[0].Group != steps[1].Group {
		t.Fatalf("unexpected program for one fixed fail/repair pair: %+v", steps)
	}
}

// TestChurnEngineDeterminism: a churn trial must be a pure function of its
// seed — same seed, same full Result (counters, histograms, phases).
func TestChurnEngineDeterminism(t *testing.T) {
	tl := churnTimeline(300)
	a := churnEngine(t, "mcc", tl, 42).Run(42)
	b := churnEngine(t, "mcc", tl, 42).Run(42)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("churn trials failed: %v / %v", a.Err, b.Err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical seeds diverged:\n%+v\n%+v", a, b)
	}
	if a.Failures == 0 || a.Repairs == 0 {
		t.Fatalf("timeline did not churn: %d failures, %d repairs", a.Failures, a.Repairs)
	}
}

// invalidateOnly hides a model's incremental FaultApplier / FaultRepairer
// paths, forcing the engine onto wholesale Invalidate at every churn event.
type invalidateOnly struct{ im InfoModel }

func (w invalidateOnly) Provider(o grid.Orientation) routing.Provider { return w.im.Provider(o) }
func (w invalidateOnly) Invalidate()                                  { w.im.Invalidate() }
func (w invalidateOnly) Name() string                                 { return w.im.Name() }

// TestChurnIncrementalMatchesInvalidate is the engine-level parity proof: a
// churn trial whose model absorbs every failure and repair through the
// incremental paths (AddFaults / RemoveFaults / Refresh / epoch bumps) must
// be bit-identical to the same trial forced through wholesale invalidation
// and lazy recompute. Covers every registered information model.
func TestChurnIncrementalMatchesInvalidate(t *testing.T) {
	tl := churnTimeline(300)
	for _, model := range ModelNames() {
		for _, seed := range []uint64{7, 20050507} {
			inc := churnEngine(t, model, tl, seed).Run(seed)

			m := mesh.NewCube(8)
			fault.Uniform{Count: 25}.Inject(m, rng.New(rng.Derive(seed, 1<<48)))
			im, err := ModelByName(model, core.NewModel(m))
			if err != nil {
				t.Fatal(err)
			}
			p, err := PatternByName("uniform", m, 0)
			if err != nil {
				t.Fatal(err)
			}
			full := NewEngine(m, invalidateOnly{im}, p, Options{
				Rate: 0.02, Warmup: 40, Window: 260, MaxEvents: 20_000_000, Timeline: tl,
			}).Run(seed)

			if inc.Err != nil || full.Err != nil {
				t.Fatalf("%s seed=%d: churn trials failed: %v / %v", model, seed, inc.Err, full.Err)
			}
			// The model name differs through the wrapper only in identity, not
			// value; everything else must match exactly.
			full.Model = inc.Model
			if !reflect.DeepEqual(inc, full) {
				t.Fatalf("%s seed=%d: incremental churn diverged from invalidate-and-recompute:\n%+v\n%+v",
					model, seed, inc, full)
			}
		}
	}
}

// TestChurnRepairRestartsInjection: a repaired node must resume injecting.
// With repairs disabled (mttr 0) the same timeline produces strictly fewer
// injection attempts, because failed nodes stay silent for the rest of the
// run.
func TestChurnRepairRestartsInjection(t *testing.T) {
	withRepair := churnTimeline(400)
	noRepair := churnTimeline(400)
	noRepair.MTTR = 0
	a := churnEngine(t, "local", withRepair, 7).Run(7)
	b := churnEngine(t, "local", noRepair, 7).Run(7)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("churn trials failed: %v / %v", a.Err, b.Err)
	}
	if a.Repairs == 0 || b.Repairs != 0 {
		t.Fatalf("repair counts wrong: with=%d without=%d", a.Repairs, b.Repairs)
	}
	if a.Offered <= b.Offered {
		t.Fatalf("repairs did not restore injection capacity: %d offered with repair, %d without", a.Offered, b.Offered)
	}
}

// TestChurnPhases checks the phase ledger: phases tile [warmup, horizon]
// without gaps, every churn event inside the window opens a new phase, and
// the per-phase deliveries add up to the trial's measured deliveries.
func TestChurnPhases(t *testing.T) {
	tl := churnTimeline(300)
	res := churnEngine(t, "mcc", tl, 11).Run(11)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Phases) == 0 {
		t.Fatal("no phases recorded for a churn trial")
	}
	if res.Phases[0].Start != 40 {
		t.Fatalf("first phase starts at %d, want the warmup boundary 40", res.Phases[0].Start)
	}
	if last := res.Phases[len(res.Phases)-1]; last.End != 300 {
		t.Fatalf("last phase ends at %d, want the horizon 300", last.End)
	}
	sum := 0
	for i, ph := range res.Phases {
		if i > 0 && ph.Start != res.Phases[i-1].End {
			t.Fatalf("phase %d starts at %d, previous ended at %d", i, ph.Start, res.Phases[i-1].End)
		}
		if ph.Healthy <= 0 || ph.End <= ph.Start {
			t.Fatalf("degenerate phase %d: %+v", i, ph)
		}
		sum += ph.Delivered
	}
	if sum != res.MeasuredDelivered {
		t.Fatalf("phase deliveries sum to %d, trial measured %d", sum, res.MeasuredDelivered)
	}
}

// TestChurnSweepWorkersInvariance: churn trials sharded across workers must
// land bit-identically regardless of the worker count.
func TestChurnSweepWorkersInvariance(t *testing.T) {
	tl := churnTimeline(300)
	runAt := func(workers int) []*Result {
		return RunTrials(workers, 6, 99, func(_ int, seed uint64) *Result {
			return churnEngine(t, "mcc", tl, seed).Run(seed)
		})
	}
	one := runAt(1)
	eight := runAt(8)
	if !reflect.DeepEqual(one, eight) {
		t.Fatal("churn sweep results differ between -workers 1 and -workers 8")
	}
}

// TestScheduledFaultsSplitPhases: when a legacy scheduled injection
// (Options.Faults) fires while a churn timeline is active, it must close the
// open phase and rebase the healthy-node count — otherwise every later
// phase's throughput would be normalised by a stale base.
func TestScheduledFaultsSplitPhases(t *testing.T) {
	m := mesh.NewCube(8)
	im, err := ModelByName("local", core.NewModel(m))
	if err != nil {
		t.Fatal(err)
	}
	p, err := PatternByName("uniform", m, 0)
	if err != nil {
		t.Fatal(err)
	}
	tl := &fault.Timeline{
		Until: 300,
		Fixed: []fault.FixedEvent{{At: 250, Inject: fault.Exact{Nodes: []grid.Point{{X: 1, Y: 1, Z: 1}}}}},
	}
	res := NewEngine(m, im, p, Options{
		Rate: 0.02, Warmup: 40, Window: 260, MaxEvents: 20_000_000,
		Faults:   []FaultEvent{{At: 120, Inject: fault.Uniform{Count: 16}}},
		Timeline: tl,
	}).Run(5)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Phases) != 3 {
		t.Fatalf("want 3 phases (warmup..120, 120..250, 250..horizon), got %+v", res.Phases)
	}
	if res.Phases[0].End != 120 || res.Phases[1].Start != 120 {
		t.Fatalf("scheduled injection did not split the phase: %+v", res.Phases)
	}
	if res.Phases[1].Healthy != res.Phases[0].Healthy-16 {
		t.Fatalf("healthy base not rebased across the scheduled injection: %+v", res.Phases)
	}
	if res.Failures != 1 {
		t.Fatalf("scheduled injections must not count as timeline failures: %d", res.Failures)
	}
}

package traffic

// Parity tests for the sharded engine: a sharded trial must reproduce the
// sequential trial's Result bit for bit — counters, histograms, phase stats,
// event totals — at any shard count, with and without churn. These are the
// engine-level counterpart of the scenario-level golden tests.

import (
	"reflect"
	"testing"

	"mccmesh/internal/core"
	"mccmesh/internal/fault"
	"mccmesh/internal/mesh"
	"mccmesh/internal/rng"
)

// shardedTrialEngine builds one trial engine over a fresh cube mesh, wired
// for `shards` shards (0 = sequential). Each call constructs its own mesh:
// churn mutates the mesh in place, so sequential and sharded runs must not
// share one.
func shardedTrialEngine(tb testing.TB, model string, side, faults, shards int, tl *fault.Timeline, seed uint64, telemetry bool) *Engine {
	tb.Helper()
	m := mesh.NewCube(side)
	if faults > 0 {
		fault.Uniform{Count: faults}.Inject(m, rng.New(rng.Derive(seed, 1<<48)))
	}
	im, err := ModelByName(model, core.NewModel(m))
	if err != nil {
		tb.Fatal(err)
	}
	p, err := PatternByName("uniform", m, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return NewEngine(m, im, p, Options{
		Rate: 0.03, Warmup: 30, Window: 200, MaxEvents: 20_000_000,
		Timeline:  tl,
		Telemetry: telemetry,
		Shards:    shards,
		ShardModel: func() (InfoModel, error) {
			return ModelByName(model, core.NewModel(m))
		},
	})
}

// comparable strips the fields parity deliberately does not cover: Err is an
// interface (nil in these runs anyway), Telemetry contains queue-shape and
// model-cache counters that depend on the shard structure, Traces are off.
func comparable(r *Result) Result {
	c := *r
	c.Err = nil
	c.Telemetry = nil
	c.Traces = nil
	return c
}

func TestShardedParityStaticFaults(t *testing.T) {
	tl := (*fault.Timeline)(nil)
	want := shardedTrialEngine(t, "mcc", 8, 25, 0, tl, 42, false).Run(42)
	if want.Delivered == 0 {
		t.Fatal("sequential reference delivered nothing")
	}
	for _, shards := range []int{2, 3, 8} {
		got := shardedTrialEngine(t, "mcc", 8, 25, shards, tl, 42, false).Run(42)
		if !reflect.DeepEqual(comparable(got), comparable(want)) {
			t.Errorf("shards=%d diverges from sequential:\n got %+v\nwant %+v", shards, comparable(got), comparable(want))
		}
	}
}

func TestShardedParityChurn(t *testing.T) {
	for _, model := range []string{"mcc", "labels"} {
		tl := churnTimeline(200)
		want := shardedTrialEngine(t, model, 8, 25, 0, tl, 7, false).Run(7)
		if want.Failures == 0 || want.Repairs == 0 {
			t.Fatalf("%s: churn reference saw no failures/repairs: %+v", model, want)
		}
		if len(want.Phases) < 2 {
			t.Fatalf("%s: churn reference produced %d phases", model, len(want.Phases))
		}
		for _, shards := range []int{2, 4, 8} {
			got := shardedTrialEngine(t, model, 8, 25, shards, tl, 7, false).Run(7)
			if !reflect.DeepEqual(comparable(got), comparable(want)) {
				t.Errorf("%s shards=%d diverges from sequential:\n got %+v\nwant %+v",
					model, shards, comparable(got), comparable(want))
			}
		}
	}
}

// TestShardedParityScheduledFaults covers the Options.Faults path (scheduled
// injections, never repaired): the fault RNG streams and mid-run model
// invalidation must land identically under the barrier.
func TestShardedParityScheduledFaults(t *testing.T) {
	build := func(shards int) *Engine {
		m := mesh.NewCube(8)
		im, err := ModelByName("mcc", core.NewModel(m))
		if err != nil {
			t.Fatal(err)
		}
		p, err := PatternByName("uniform", m, 0)
		if err != nil {
			t.Fatal(err)
		}
		return NewEngine(m, im, p, Options{
			Rate: 0.03, Warmup: 20, Window: 150, MaxEvents: 20_000_000,
			Faults: []FaultEvent{
				{At: 60, Inject: fault.Uniform{Count: 10}},
				{At: 110, Inject: fault.Uniform{Count: 10}},
			},
			Shards: shards,
			ShardModel: func() (InfoModel, error) {
				return ModelByName("mcc", core.NewModel(m))
			},
		})
	}
	want := build(0).Run(13)
	if want.Lost == 0 {
		t.Logf("note: no packets lost despite mid-run faults (small mesh luck)")
	}
	for _, shards := range []int{2, 8} {
		got := build(shards).Run(13)
		if !reflect.DeepEqual(comparable(got), comparable(want)) {
			t.Errorf("shards=%d diverges from sequential:\n got %+v\nwant %+v", shards, comparable(got), comparable(want))
		}
	}
}

// TestShardedSemanticTelemetry pins the semantic telemetry counters — packet
// and churn totals — as shards-invariant. Queue-shape and model-cache
// counters are structural (each shard owns a queue and a model) and are
// deliberately not compared.
func TestShardedSemanticTelemetry(t *testing.T) {
	tl := churnTimeline(200)
	seqRes := shardedTrialEngine(t, "mcc", 8, 25, 0, tl, 9, true).Run(9)
	shRes := shardedTrialEngine(t, "mcc", 8, 25, 4, tl, 9, true).Run(9)
	if seqRes.Telemetry == nil || shRes.Telemetry == nil {
		t.Fatal("telemetry sink missing")
	}
	seq := seqRes.Telemetry.Snapshot()
	sh := shRes.Telemetry.Snapshot()
	for _, k := range []string{
		"traffic.injected", "traffic.delivered", "traffic.stuck", "traffic.lost",
		"churn.failures", "churn.repairs", "churn.failed_nodes", "churn.repaired_nodes",
	} {
		if seq[k] != sh[k] {
			t.Errorf("counter %s: sequential %d, sharded %d", k, seq[k], sh[k])
		}
	}
}

// TestShardedFallsBackSequential checks the guard rails: Shards 1, a mesh
// with a single layer (it cannot split) and tracing all pin the single-shard
// path, so each must produce a real result without ever calling ShardModel;
// a mesh that does split calls ShardModel exactly once per slab.
func TestShardedFallsBackSequential(t *testing.T) {
	cases := []struct {
		name       string
		m          *mesh.Mesh
		shards     int
		traceEvery int
		wantCalls  int
	}{
		{"shards=1", mesh.NewCube(6), 1, 0, 0},
		{"single-layer", mesh.New2D(16, 1), 8, 0, 0}, // SlabPartition yields one slab
		{"traced", mesh.NewCube(6), 4, 5, 0},
		{"split", mesh.NewCube(6), 4, 0, len(mesh.SlabPartition(mesh.NewCube(6), 4))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			im, err := ModelByName("mcc", core.NewModel(tc.m))
			if err != nil {
				t.Fatal(err)
			}
			p, err := PatternByName("uniform", tc.m, 0)
			if err != nil {
				t.Fatal(err)
			}
			calls := 0
			e := NewEngine(tc.m, im, p, Options{
				Rate: 0.05, Warmup: 10, Window: 100,
				Shards:     tc.shards,
				TraceEvery: tc.traceEvery,
				ShardModel: func() (InfoModel, error) {
					calls++
					return ModelByName("mcc", core.NewModel(tc.m))
				},
			})
			res := e.Run(3)
			if res == nil || res.Err != nil {
				t.Fatalf("run failed: %+v", res)
			}
			if res.Injected == 0 {
				t.Fatal("run injected nothing")
			}
			if calls != tc.wantCalls {
				t.Errorf("ShardModel called %d times, want %d", calls, tc.wantCalls)
			}
		})
	}
}
